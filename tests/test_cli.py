"""Tests for the command-line interface."""

import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cyclicaut import grouptheory
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


def test_classify_curve_echoes_its_input(capsys):
    # the report holds the parsed cover: its points, its constant and its
    # branching over infinity, not the model over 0, 1 and -1
    assert run(["classify", "--curve", "y^7 = 3x(x-2)^2(x-5)^4", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["input"] == {
        "n": 7,
        "branches": [{"point": "0", "exponent": 1}, {"point": "2", "exponent": 2},
                     {"point": "5", "exponent": 4}],
        "infinity_exponent": 0,
        "constant": "3",
    }
    assert (obj["row"], obj["order"], obj["canonical_triple"]) == ("C.2", 168, [1, 2, 4])
    assert run(["classify", "--curve", "y^7 = x(x-2)^2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["input"] == {
        "n": 7,
        "branches": [{"point": "0", "exponent": 1}, {"point": "2", "exponent": 2}],
        "infinity_exponent": 4,
    }
    assert (obj["row"], obj["order"], obj["canonical_triple"]) == ("C.2", 168, [1, 2, 4])
    assert [step["index"] for step in obj["chain"]] == [24]


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


@pytest.mark.parametrize("text", [
    "<x,y | x^4, y^3, (x^2*y)^3>",
    "<x,y | x^6, y^4, (x^2*y^2)^5>",
    "<x,y,z | x^2, y^3, z^7, x*y*z>",
])
def test_coset_enum_infinite_forms_build_no_table(capsys, monkeypatch, text):
    # a free-product quotient and (2,3,7) on three generators are proven
    # infinite before the table
    def no_table(*args):
        raise AssertionError("a coset table was built")

    monkeypatch.setattr(grouptheory, "_CosetTable", no_table)
    assert run(["coset-enum", "--pres", text]) == 0
    assert capsys.readouterr().out.strip() == "BUDGET_EXCEEDED"
    assert run(["coset-enum", "--pres", text, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "budget_exceeded": {"what": "coset enumeration", "budget": 1000000}}


@pytest.mark.parametrize("argv, stop", [
    (["coset-enum", "--pres", "<x,y | x^2, y^3, (x*y)^7>"],
     {"what": "coset enumeration", "budget": 1000000}),
    (["perm-order", "--perms", "(1,2,3,4,5,6,7,8,9,10,11,12)(13,14);(1,2)", "--max-size", "100"],
     {"what": "permutation closure", "budget": 100}),
])
def test_budget_stop_under_json_is_one_object(capsys, argv, stop):
    # a budget stop is a verdict, so --json reports it as JSON too
    assert run(argv + ["--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"budget_exceeded": stop}
    assert captured.err == ""


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
        # far deeper than the parser reads: an error, not a RecursionError
        pytest.param("(" * 3000 + "a" + ")" * 3000, id="3000 nested parentheses"),
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


def _symmetric(n):
    return "(" + ",".join(str(i) for i in range(1, n + 1)) + ");(1,2)"


def test_perm_order_bounds_the_group_order_not_the_degree(capsys, monkeypatch):
    # the stabilizer chain holds O(degree) points per level, never the
    # elements, and reaches the budget after a few compositions per point
    calls = [0]
    compose = grouptheory._compose

    def counted(p, q):
        calls[0] += 1
        return compose(p, q)

    monkeypatch.setattr(grouptheory, "_compose", counted)
    assert run(["perm-order", "--perms", _symmetric(200)]) == 0
    assert capsys.readouterr().out.strip() == "BUDGET_EXCEEDED"
    assert calls[0] <= 6 * 200
    assert run(["perm-order", "--perms", _symmetric(12), "--max-size", "1000000000"]) == 0
    assert capsys.readouterr().out.strip() == "479001600"


@pytest.mark.parametrize(
    "argv",
    [
        ["perm-order", "--perms", "(1,99999999999)"],
        ["perm-order", "--perms", "(1,2)", "--degree", "99999999999"],
    ],
)
def test_perm_order_huge_degree_is_a_domain_error(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "text",
    ["(1,2_0)", "(+1,2)", "(1,2)x", "(1," + "9" * 5000 + ")"],
    ids=["underscore", "plus", "trailing", "5000-digits"],
)
def test_perm_order_malformed_text_is_a_domain_error(capsys, text):
    # "(1,2_0)" was read as the point 20, and "(+1,2)" as (1,2)
    assert run(["perm-order", "--perms", text, "--degree", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-action", "--family", "accola-maclachlan", "--n", "6"],
        ["verify-action", "--family", "periodthree", "--n", "7", "--k", "2"],
        # n divides 1 + k + k^2 but is smaller than it
        ["verify-action", "--family", "periodthree", "--n", "19", "--k", "7"],
        ["verify-action", "--family", "periodthree", "--n", "13", "--k", "9"],
        ["verify-action", "--family", "twistedz2", "--n", "15", "--b", "4"],
    ],
)
def test_verify_action_families(argv, capsys):
    assert run(argv + ["--samples", "50"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.count("PASS") >= 3
    # each check reports the number of points it checked
    assert all(line.endswith("  (50 points)") for line in out.splitlines())


def test_verify_action_json_and_seed(capsys):
    argv = ["verify-action", "--family", "periodthree", "--n", "13", "--k", "3",
            "--json", "--seed", "2"]
    assert run(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["seed"] == 2 and obj["n"] == 13
    assert all(c["pass"] for c in obj["checks"])
    assert [c["value"] for c in obj["checks"]] == [100] * 4


def test_verify_action_errors(capsys):
    assert run(["verify-action", "--family", "periodthree", "--n", "7"]) == 1
    assert run(["verify-action", "--family", "klein", "--n", "7"]) == 2
    capsys.readouterr()
    # a degree divisible by 8 is a checked scenario, every check passing
    assert run(["verify-action", "--family", "twistedz2", "--n", "16", "--b", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.startswith("PASS ") for line in lines)
    assert run(["verify-action", "--family", "twistedz2", "--n", "15", "--b", "4",
                "--samples", "0"]) == 1
    capsys.readouterr()
    # a parameter the family does not take is a domain error, not ignored
    for argv in (["--family", "twistedz2", "--n", "15", "--b", "4", "--k", "99"],
                 ["--family", "accola-maclachlan", "--n", "8", "--k", "3", "--b", "5"]):
        assert run(["verify-action"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
        assert "takes no parameter k" in captured.err


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


def _run_entry_point(command, args, timeout=60):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        command + args, capture_output=True, text=True, env=env, timeout=timeout
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


def test_coset_enum_long_power_relator_is_linear():
    # one scan of a^100000 closes it at every coset; scanning it from each
    # coset, and checking it letter by letter, took about 20 minutes.  The
    # bare HLT loop runs here, in a fresh interpreter: coset-enum itself
    # answers a cyclic presentation from its abelianization.
    script = (
        "from cyclicaut import grouptheory as g\n"
        "print(g._enumerate_hlt(1, g._powers([(1,) * 100000]), 1000000))\n"
    )
    proc = _run_entry_point([sys.executable, "-c", script], [], timeout=30)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "100000"


def test_coset_enum_long_cyclic_presentation_builds_no_table():
    # Z_1000000 is abelian, so its order is its abelianization's; the
    # million-coset table took 1.5-2 s and over 200 MB
    script = (
        "from cyclicaut import grouptheory\n"
        "class NoTable:\n"
        "    def __init__(self, *args):\n"
        "        raise AssertionError('a coset table was built')\n"
        "grouptheory._CosetTable = NoTable\n"
        "from cyclicaut.cli import main\n"
        "main()\n"
    )
    argv = ["coset-enum", "--pres", "<a | a^1000000>"]
    proc = _run_entry_point([sys.executable, "-c", script], argv, timeout=10)
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout.strip() == "1000000"


def test_coset_enum_long_power_budget_stop_is_linear():
    # nothing closes before the budget, so each lookahead scan of a^400000
    # walked the whole open chain: a pass cost budget x chain length.  The
    # bare HLT loop runs here, in a fresh interpreter: coset-enum itself stops
    # before any table, since Z_400000 outgrows the budget.
    script = (
        "from cyclicaut import grouptheory as g\n"
        "try:\n"
        "    print(g._enumerate_hlt(1, g._powers([(1,) * 400000]), 200000))\n"
        "except g.BudgetExceeded:\n"
        "    print('BUDGET_EXCEEDED')\n"
    )
    proc = _run_entry_point([sys.executable, "-c", script], [], timeout=30)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "BUDGET_EXCEEDED"


def test_coset_enum_dihedral_budget_stop_skips_scans_proven_open():
    # D_200000 has order 400,000, above the budget, but its abelianization
    # Z_2 x Z_2 does not outgrow it, so the table runs to the budget along
    # the open chain of a.  Each lookahead scan of a^200000 stops at the
    # chain's gap.  Without the skip of the scans it proves open
    # (_prove_open), a pass cost budget x chain length and ran for more than
    # 10 minutes.
    argv = ["coset-enum", "--pres", "<a,b | a^200000, b^2, b*a*b*a>", "--max-cosets", "100000"]
    proc = _run_entry_point(_entry_point_argv(), argv, timeout=30)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "BUDGET_EXCEEDED"


def test_coset_enum_lookahead_pass_stops_on_its_letter_bound():
    # D_1000000 outgrows the budget, but its abelianization Z_2 x Z_2 does
    # not, so the table runs along the open chain of (a*b)^1000000.  Every
    # a^2 or b^2 deduction of the pass voids the scans it proved open, so
    # each scan of (a*b)^1000000 walked the whole chain again: the call ran
    # past 90 s before a pass was bounded in letters.  The text form of a
    # coset stop is checked on cheaper inputs above.
    argv = ["coset-enum", "--pres", "<a,b | (a*b)^1000000, b^2, a^2>", "--json"]
    proc = _run_entry_point(_entry_point_argv(), argv, timeout=30)
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout.strip() == '{"budget_exceeded":{"what":"lookahead letters","budget":33554432}}'


def test_coset_table_wider_than_its_slot_bound_stops_within_the_address_space():
    # the free product of 120 copies of Z_2 is infinite; its table takes 244
    # slots a coset, and the bare HLT loop ended in a MemoryError at 1.46 GB
    # before the table was bounded in slots
    pytest.importorskip("resource")
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from cyclicaut import grouptheory as g\n"
        "try:\n"
        "    print(g._enumerate_hlt(120, g._powers([(i, i) for i in range(1, 121)]), 1000000))\n"
        "except g.BudgetExceeded as exc:\n"
        "    print('BUDGET_EXCEEDED', exc.what, exc.budget == g.MAX_TABLE_SLOTS)\n"
    )
    proc = _run_entry_point([sys.executable, "-c", script], [], timeout=30)
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout.strip() == "BUDGET_EXCEEDED coset table slots True"


def test_coset_enum_free_product_of_120_z2_stops_before_the_table():
    # its abelianization Z_2^120 splits into 120 one-generator blocks, so the
    # check before the table runs and outgrows the budget at once
    names = [f"g{i}" for i in range(1, 121)]
    text = f"<{','.join(names)} | {', '.join(f'{x}^2' for x in names)}>"
    proc = _run_entry_point(_entry_point_argv(), ["coset-enum", "--pres", text], timeout=30)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "BUDGET_EXCEEDED"


def test_coset_enum_triangle_with_a_repeated_relator_stops_before_the_table():
    # x^2 twice is one relator, so this is the (2,3,7) triangle group; with
    # the repeat kept, the table ran to the default budget in 4.7 s
    proc = _run_entry_point(
        _entry_point_argv(),
        ["coset-enum", "--pres", "<x,y | x^2, y^3, (x*y)^7, x^2>"],
        timeout=5,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "BUDGET_EXCEEDED"


def test_coset_enum_hyperbolic_triangle_stops_before_the_table():
    # the (4,8,8) triangle group is infinite, but its abelianization is
    # finite; the table ran to the default budget in 2.3-2.7 s in-process
    proc = _run_entry_point(
        _entry_point_argv(), ["coset-enum", "--pres", "<x,y | x^4, y^8, (x*y)^8>"], timeout=5
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "BUDGET_EXCEEDED"


def test_abelianize_256_generators_of_distinct_powers_ends_within_the_guard():
    # <g1..g256 | g_i^j, 2 <= j <= 21>: 5,120 distinct rows, which one
    # elimination over every generator took 19 s to reduce; each generator's
    # powers are a block of their own
    names = [f"g{i}" for i in range(1, 257)]
    relators = ", ".join(f"{x}^{j}" for x in names for j in range(2, 22))
    proc = _run_entry_point(
        _entry_point_argv(), ["abelianize", "--pres", f"<{','.join(names)} | {relators}>"],
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout.strip() == "trivial"


def test_abelianize_dense_48_by_48_ends_within_the_guard():
    # 48 relators, each a random power of every one of 48 generators: the
    # elimination without a modulus was still running after 60 s
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(48)
    names = [f"g{i}" for i in range(1, 49)]
    rows = [[rng.choice((-1, 1)) * rng.randint(1, 50) for _ in names] for _ in names]
    relators = ", ".join("*".join(f"{x}^{e}" for x, e in zip(names, row)) for row in rows)
    text = f"<{','.join(names)} | {relators}>"
    proc = _run_entry_point(
        _entry_point_argv(), ["abelianize", "--pres", text, "--json"], timeout=30
    )
    assert proc.returncode == 0
    got = json.loads(proc.stdout)
    det = DomainMatrix.from_list_sympy(48, 48, rows).convert_to(sympy.ZZ).det()
    assert det != 0 and got["free_rank"] == 0
    assert math.prod(got["factors"]) == abs(int(det))
    assert all(b % a == 0 for a, b in zip(got["factors"], got["factors"][1:]))


def test_abelianize_reads_only_the_generators_that_occur():
    # 3,000 powers of g1 over 4,096 generators: a dense 3,000 x 4,096
    # relation matrix took 3.6 s and 350 MB; over the one generator that
    # occurs, the answer fits in a 256 MB address space
    pytest.importorskip("resource")
    names = ",".join(f"g{i}" for i in range(1, 4097))
    relators = ", ".join(f"g1^{k}" for k in range(1, 3001))
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 * 2**20, 256 * 2**20))\n"
        "from cyclicaut.cli import main\n"
        "main()\n"
    )
    argv = ["abelianize", "--pres", f"<{names} | {relators}>", "--json"]
    proc = _run_entry_point([sys.executable, "-c", script], argv, timeout=30)
    assert proc.returncode == 0, proc.stderr[-300:]
    assert json.loads(proc.stdout) == {"factors": [], "free_rank": 4095}


@pytest.mark.parametrize("command, generators, answer", [
    (["abelianize"], 64, "trivial"),
    (["abelianize"], 256, "BUDGET_EXCEEDED"),
    (["coset-enum", "--max-cosets", "400000000"], 256, "1"),
])
def test_one_large_block_ends_within_the_guard(command, generators, answer):
    # <g1..gN | g_i^j, 2 <= j <= 21, g_i * g_(i+1)^-1>: the chain relators join
    # every generator into one block of 21N - 1 rows, whose elimination takes
    # up to (21N - 1) N^2 steps: 5.5 million at N = 64, and 352 million at
    # N = 256, which ran past the guard before the step bound, in abelianize
    # and in coset-enum's check before the table at a budget above it
    pytest.importorskip("resource")
    names = [f"g{i}" for i in range(1, generators + 1)]
    powers = [f"{x}^{j}" for x in names for j in range(2, 22)]
    steps = [f"{x}*{y}^-1" for x, y in zip(names, names[1:])]
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))\n"
        "from cyclicaut.cli import main\n"
        "main()\n"
    )
    argv = command + ["--pres", f"<{','.join(names)} | {', '.join(powers + steps)}>"]
    proc = _run_entry_point([sys.executable, "-c", script], argv, timeout=30)
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout.strip() == answer


def test_coset_enum_square_chain_of_2000_generators_ends_within_the_guard():
    # <g1..g2000 | g_i^2, g_i * g_(i+1)^-1> has order 2, but its squares
    # alone give a maximal minor of 2^2000; eliminating its 3,999 x 2,000
    # relation matrix before the table would outlast the table many times
    names = [f"g{i}" for i in range(1, 2001)]
    squares = [f"{x}^2" for x in names]
    steps = [f"{x}*{y}^-1" for x, y in zip(names, names[1:])]
    text = f"<{','.join(names)} | {', '.join(squares + steps)}>"
    proc = _run_entry_point(_entry_point_argv(), ["coset-enum", "--pres", text], timeout=30)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


_WIDE = json.dumps({"generators": 1_000_000, "relators": [[i] for i in range(1, 301)]})


@pytest.mark.parametrize(
    "argv,message",
    [
        # a list as a name was an unhashable-type traceback
        (["coset-enum", "--pres", '{"generators": 1, "relators": [[1]], "names": [[1]]}'],
         "generator names"),
        # default names for 10^8 generators were built before any check:
        # a MemoryError after 12 s at 2.9 GB
        (["coset-enum", "--pres", '{"generators": 100000000, "relators": [[1]]}'],
         "more than"),
        (["abelianize", "--pres", '{"generators": 100000000, "relators": [[1]]}'],
         "more than"),
        # a dense 300 x 10^6 relation matrix: a MemoryError after 10 s
        (["abelianize", "--pres", _WIDE], "more than"),
    ],
    ids=["list-name", "coset-enum-1e8-generators", "abelianize-1e8-generators",
         "abelianize-300x1e6"],
)
def test_json_presentation_faults_end_in_a_domain_error(argv, message):
    proc = _run_entry_point(_entry_point_argv(), argv, timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and message in proc.stderr


@pytest.mark.parametrize(
    "text",
    [
        '{"generators": true, "relators": [[1]]}',
        '{"generators": 1.0, "relators": [[1]]}',
        '{"generators": 2, "relators": [[1]], "names": ["a", "a"]}',
        '{"generators": 2, "relators": [[1]], "names": ["a"]}',
        '{"generators": 1, "relators": [[1]], "names": ["1a"]}',
        '{"generators": 1, "relators": [[1]], "names": ["a b"]}',
        '{"generators": 1, "relators": [[1]], "names": [" a"]}',
        '{"generators": 1, "relators": [[1]], "names": [""]}',
        '{"generators": 1, "relators": [[1]], "names": "a"}',
        '{"generators": 1, "relators": [[1]], "names": [null]}',
        '{"generators": 4097, "relators": []}',
    ],
)
def test_json_presentation_is_validated_like_text(capsys, text):
    for command in ("coset-enum", "abelianize"):
        assert run([command, "--pres", text]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), command


def test_json_presentation_names_in_the_text_grammar(capsys):
    text = '{"generators": 2, "relators": [[1,1],[2,2,2],[1,2,1,2]], "names": ["_s1", "t"]}'
    assert run(["coset-enum", "--pres", text]) == 0
    assert capsys.readouterr().out.strip() == "6"
    # 4096 generators, the most a presentation may have
    assert run(["abelianize", "--pres", '{"generators": 4096, "relators": [[1]]}', "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"factors": [], "free_rank": 4095}


@pytest.mark.parametrize(
    "argv,message",
    [
        # 3,000,000 branch points: a MemoryError after 19 s under 1 GB
        (["genus", "--curve", "y^5 + x^3000000 = 1"], "exponent of x 3000000 above"),
        # 8.4 s and 578 MB before the bound
        (["fermat", "--n", "1000000", "--d", "1000000"], "exponent of x 1000000 above"),
        # the oracle's mark array of 10^11 bytes: a MemoryError at once
        (["genus", "--curve", "y^100000000000 = x(x-1)", "--json"], "sheet steps"),
        (["lefschetz", "--p", "3317044064679887385961981", "--a", "2"], "primality is decided below"),
        # about n draws for each x kept: killed at 100 s
        (["verify-action", "--family", "accola-maclachlan", "--n", "10000000"], "draws, above"),
        # 30,000,000 points, one draw each: killed at 60 s
        (["verify-action", "--family", "accola-maclachlan", "--n", "4", "--samples", "30000000"],
         "draws, above"),
        # an O(n) search for the phase, then a pipeline of b deck maps
        (["verify-action", "--family", "twistedz2", "--n", "2000000000", "--b", "1000000001"],
         "draws, above"),
    ],
    ids=["genus-fermat-3e6", "fermat-1e6", "genus-json-1e11-sheets", "lefschetz-past-primality",
         "accola-1e7", "accola-3e7-samples", "twistedz2-2e9"],
)
def test_unbounded_inputs_end_in_a_domain_error(argv, message):
    pytest.importorskip("resource")
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from cyclicaut.cli import main\n"
        "main()\n"
    )
    proc = _run_entry_point([sys.executable, "-c", script], argv, timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and message in proc.stderr


def test_lefschetz_reads_a_21_digit_prime(capsys):
    # trial division of this prime would run for minutes
    p = 100000000000000000039
    assert run(["lefschetz", "--p", str(p), "--a", "2"]) == 0
    assert f"order      {p}" in capsys.readouterr().out
    # text-mode genus reads no monodromy, so it keeps every sheet count
    assert run(["genus", "--curve", "y^100000000000 = x(x-1)"]) == 0
    assert capsys.readouterr().out.startswith("genus      49999999999\n")
