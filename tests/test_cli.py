"""Tests for the command-line interface."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cyclicaut.cli import run
from cyclicaut.verify import ENUMERATION_CAP, check_enumeration

G96 = (
    "(1,4)(2,7)(3,10)(5,8)(6,11)(9,12);"
    "(1,10,9,5)(2,4,11,3,7,12,6,8);"
    "(1,2,3)(4,5,6)(7,8,9)(10,11,12)"
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FERMAT_ARGS = ["fermat", "--n", "5", "--d", "4", "--json"]


def test_classify_curve_text(capsys):
    assert run(["classify", "--curve", "y^7 = x(x-1)^2(x+1)^4"]) == 0
    out = capsys.readouterr().out
    assert "C.2" in out and "168" in out and "PSL(2,7)" in out
    assert "row 4 -> (2,3,7) index 24" in out


def test_classify_triple_json_key_order(capsys):
    assert run(["classify", "--n", "15", "--a", "1", "--b", "4", "--c", "10", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert list(obj) == ["input", "canonical_triple", "genus", "signature", "row",
                         "order", "structure", "presentation", "chain", "base_order"]
    assert obj["order"] == 30 and obj["row"] == "B.1"


def test_classify_usage_errors(capsys):
    assert run(["classify"]) == 2
    assert run(["classify", "--curve", "y^7=x(x-1)(x+1)^5", "--n", "7"]) == 2
    assert run(["classify", "--n", "7", "--a", "1"]) == 2
    capsys.readouterr()


def test_classify_domain_error(capsys):
    assert run(["classify", "--curve", "y^5 + x^3 = 1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_unknown_command_and_help(capsys):
    assert run(["no-such-command"]) == 2
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_lefschetz_json(capsys):
    assert run(["lefschetz", "--p", "13", "--a", "3", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["order"] == 39 and obj["structure"] == "Z13:Z3"


def test_fermat_json_compact(capsys):
    assert run(["fermat", "--n", "5", "--d", "4", "--json"]) == 0
    out = capsys.readouterr().out
    assert '"order":20,"structure":"Z4+Z5"' in out


def test_fermat_domain_error(capsys):
    assert run(["fermat", "--n", "3", "--d", "2"]) == 1
    assert "below hyperbolic range" in capsys.readouterr().err


def test_genus(capsys):
    assert run(["genus", "--curve", "y^7 = x(x-1)^2(x+1)^4"]) == 0
    assert "genus      3" in capsys.readouterr().out
    assert run(["genus", "--curve", "y^7 = x(x-1)^2(x+1)^4", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["genus"] == obj["monodromy_genus"] == 3
    assert obj["signature"] == [7, 7, 7]


def test_enumerate_text_and_json(capsys):
    assert run(["enumerate", "--n", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and "PSL(2,7)" in lines[1]
    assert run(["enumerate", "--n", "7", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["count"] == 2
    assert [c["size"] for c in obj["classes"]] == [18, 12]


def test_cross_check_sweep(capsys):
    assert run(["cross-check", "--n-max", "8"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6 and "FAIL" not in out
    assert run(["cross-check", "--n-max", "8", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n_max"] == 8 and all(c["pass"] for c in obj["checks"])


def test_cross_check_empty_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert run(["cross-check"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cross_check_below_range(capsys):
    assert run(["cross-check", "--n-max", "3"]) == 1
    assert "error:" in capsys.readouterr().err
    # and above the enumeration cap
    assert run(["cross-check", "--n-max", str(ENUMERATION_CAP + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: degree {ENUMERATION_CAP + 1} above enumeration cap")


def test_pipe_enumerate_into_cross_check(capsys, monkeypatch):
    assert run(["enumerate", "--n", "9", "--json"]) == 0
    payload = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    assert run(["cross-check"]) == 0
    assert "PASS enumeration_consistent" in capsys.readouterr().out
    # and the verdict matches the in-process call
    assert check_enumeration(json.loads(payload)).passed


def test_pipe_detects_doctored_payload(capsys, monkeypatch):
    assert run(["enumerate", "--n", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    payload["classes"][0]["order"] = 1
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert run(["cross-check", "--json"]) == 1
    out = capsys.readouterr().out
    assert '"pass":false' in out


def test_pipe_rejects_bad_json(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("not json"))
    assert run(["cross-check"]) == 1
    assert "error:" in capsys.readouterr().err
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": ' + "9" * 5000 + "}"))
    assert run(["cross-check"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    # n must be a JSON integer: no float, string or bool is read as a degree
    for n in ("1e400", "5.5", '"7"', "true"):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": ' + n + ', "classes": []}'))
        assert run(["cross-check"]) == 1, n
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), n


def test_gs_table(capsys):
    assert run(["gs-table"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 16
    assert run(["gs-table", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 16
    assert {r["row_id"] for r in rows if r["normal"]} == {"1", "2", "3", "A", "B"}


def test_coset_enum(capsys):
    assert run(["coset-enum", "--pres", "<u,v | u^4, v^8, (u*v)^2, u^2*v*u^2*v^3>"]) == 0
    assert capsys.readouterr().out.strip() == "32"
    assert run(["coset-enum", "--pres", "<x,y | x^2, y^3, (x*y)^4>", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"order": 24}


def test_coset_enum_budget(capsys):
    code = run(["coset-enum", "--pres", "<x,y | x^2, y^3, (x*y)^7>",
                "--max-cosets", "10000"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "BUDGET_EXCEEDED"


def test_coset_enum_parse_error(capsys):
    assert run(["coset-enum", "--pres", "<x,y | x^^2>"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "word",
    [
        "a^99999999999",
        "(a^100000)^100000",
        "[" * 23 + "a" + ",a]" * 23,
        pytest.param("a^" + "9" * 5000, id="a^(5000 digits)"),
    ],
)
def test_coset_enum_overlong_relator(capsys, word):
    assert run(["coset-enum", "--pres", f"<a | {word}>"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["abelianize", "--pres", "<a | a^" + "9" * 5000 + ">"],
        ["coset-enum", "--pres", '{"generators": 1, "relators": [[' + "9" * 5000 + "]]}"],
        ["classify", "--curve", "y^" + "9" * 5000 + " = x(x-1)(x+1)"],
        ["genus", "--curve", "y^7 = x^" + "9" * 5000 + "(x-1)"],
    ],
)
def test_overlong_integer_is_a_domain_error(capsys, argv):
    # 5000 digits is past what int() converts from text by default
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_negative_budget(capsys):
    assert run(["coset-enum", "--pres", "<x | x^2>", "--max-cosets", "-5"]) == 1
    assert "positive" in capsys.readouterr().err


def test_abelianize(capsys):
    assert run(["abelianize", "--pres", "<x,y | x^4, y^8, (x*y)^8>"]) == 0
    assert capsys.readouterr().out.strip() == "Z4 + Z8"
    assert run(["abelianize", "--pres", "<x,y | x^2, y^3, (x*y)^7>"]) == 0
    assert capsys.readouterr().out.strip() == "trivial"
    assert run(["abelianize", "--pres", "<x,y | [x,y]>", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"factors": [], "free_rank": 2}


def test_perm_order(capsys):
    assert run(["perm-order", "--perms", G96]) == 0
    assert capsys.readouterr().out.strip() == "96"
    assert run(["perm-order", "--perms", "(1,2,3)", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"order": 3}


def test_perm_order_budget(capsys):
    big = "(1,2);(" + ",".join(str(i) for i in range(1, 16)) + ")"
    assert run(["perm-order", "--perms", big, "--max-size", "1000"]) == 0
    assert capsys.readouterr().out.strip() == "BUDGET_EXCEEDED"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-action", "--family", "accola-maclachlan", "--n", "6"],
        ["verify-action", "--family", "periodthree", "--n", "7", "--k", "2"],
        ["verify-action", "--family", "twistedz2", "--n", "15", "--b", "4"],
    ],
)
def test_verify_action_families(argv, capsys):
    assert run(argv + ["--samples", "50"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.count("PASS") >= 3


def test_verify_action_json_and_seed(capsys):
    argv = ["verify-action", "--family", "periodthree", "--n", "13", "--k", "3",
            "--json", "--seed", "2"]
    assert run(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["seed"] == 2 and obj["n"] == 13
    assert all(c["pass"] for c in obj["checks"])


def test_verify_action_errors(capsys):
    assert run(["verify-action", "--family", "periodthree", "--n", "7"]) == 1
    assert run(["verify-action", "--family", "klein", "--n", "7"]) == 2
    assert run(["verify-action", "--family", "twistedz2", "--n", "16", "--b", "7"]) == 1
    assert run(["verify-action", "--family", "twistedz2", "--n", "15", "--b", "4",
                "--samples", "0"]) == 1
    capsys.readouterr()


def _entry_point_argv():
    """Command that runs the declared `cyclicaut` script entry in a fresh
    interpreter, read from pyproject.toml so no install is needed."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["cyclicaut"]
    module, attr = target.split(":")
    return [sys.executable, "-c", f"from {module} import {attr}; {attr}()"]


def _run_entry_point(command, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        command + args, capture_output=True, text=True, env=env, timeout=60
    )


def test_console_script_installed():
    commands = [_entry_point_argv()]
    script = shutil.which("cyclicaut")
    if script is not None:
        commands.append([script])
    for command in commands:
        proc = _run_entry_point(command, FERMAT_ARGS)
        assert proc.returncode == 0
        assert '"order":20,"structure":"Z4+Z5"' in proc.stdout


def test_console_entry_point_exit_codes():
    command = _entry_point_argv()
    proc = _run_entry_point(command, ["fermat", "--n", "3", "--d", "2"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert _run_entry_point(command, ["classify"]).returncode == 2
