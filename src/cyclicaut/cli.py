"""Command-line front end.

Subcommands: classify, lefschetz, fermat, genus, enumerate, cross-check,
gs-table, coset-enum, abelianize, perm-order, verify-action, each declared
once in ``_COMMANDS``.  A handler prints nothing: it returns the exit code,
the JSON payload and the text lines, and ``run`` writes one of the two.
Every command supports --json with a fixed key order.  Exit codes: 0 success
(including a reported budget stop), 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classifier import (
    classify_belyi,
    classify_cover,
    classify_fermat,
    classify_lefschetz,
    report_to_json_dict,
)
from .curve import genus, monodromy_genus, parse_curve, signature_of
from .fuchsian import gs_table_json
from .grouptheory import (
    BudgetExceeded,
    abelianization,
    coset_enumerate,
    parse_permutations,
    parse_presentation,
    perm_order,
)
from .numtheory import DomainError
from .verify import (
    FAMILIES,
    build_scenario,
    check_enumeration,
    check_to_json_dict,
    cross_check,
    cross_check_to_json_dict,
    enumerate_classes,
    enumeration_to_json_dict,
    run_scenario,
)


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _mark(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _report_lines(report):
    yield f"row        {report.row}"
    yield f"genus      {report.genus}"
    yield f"signature  {_csv(report.signature.periods)}"
    yield f"order      {report.group.order}"
    yield f"structure  {report.group.structure}"
    yield f"base       {report.base_order}"
    for step in report.chain:
        yield f"chain      row {step.row_id} -> ({_csv(step.signature.periods)}) index {step.index}"
    if report.group.presentation_text is not None:
        yield f"presentation {report.group.presentation_text}"
    if report.notes:
        yield f"notes      {report.notes}"


def _report(report):
    return 0, report_to_json_dict(report), _report_lines(report)


def _order(order: int):
    return 0, {"order": order}, [str(order)]


def _classify(ns):
    by_curve = ns.curve is not None
    if by_curve == any(v is not None for v in (ns.n, ns.a, ns.b, ns.c)):
        raise argparse.ArgumentError(None, "give either --curve or all of --n/--a/--b/--c")
    if by_curve:
        return _report(classify_cover(parse_curve(ns.curve)))
    if None in (ns.n, ns.a, ns.b, ns.c):
        raise argparse.ArgumentError(None, "triple mode needs all of --n/--a/--b/--c")
    return _report(classify_belyi(ns.n, ns.a, ns.b, ns.c))


def _genus(ns):
    cover = parse_curve(ns.curve)
    g, periods = genus(cover), signature_of(cover).periods
    # only JSON output reports the monodromy genus, which is bounded in sheet
    # steps (n per distinct exponent), so text mode keeps any degree
    payload = None
    if ns.json:
        payload = {"n": cover.n, "genus": g, "monodromy_genus": monodromy_genus(cover),
                   "signature": list(periods)}
    return 0, payload, [f"genus      {g}", f"signature  {_csv(periods)}"]


def _enumerate(ns):
    classes = enumerate_classes(ns.n)
    lines = (
        f"({_csv(c.canonical)})  size {c.size:3d}  row {c.report.row:7s} "
        f"genus {c.report.genus:2d}  order {c.report.group.order:4d}  "
        f"{c.report.group.structure}"
        for c in classes
    )
    return 0, enumeration_to_json_dict(ns.n, classes), lines


def _cross_check(ns):
    if ns.n_max is not None:
        report = cross_check(ns.n_max)
        lines = []
        for c in report.checks:
            lines.append(f"{_mark(c.passed)} {c.name}")
            if c.witness is not None:
                lines.append(f"     witness {_compact(c.witness)}")
        return (0 if report.all_passed else 1), cross_check_to_json_dict(report), lines
    # filter mode: verify an enumeration report piped on standard input
    try:
        payload = json.load(sys.stdin)
    except json.JSONDecodeError as exc:
        raise DomainError(f"stdin is not valid JSON: {exc}")
    except ValueError:  # an integer with more digits than int() converts
        raise DomainError("stdin is not valid JSON: an integer is too long") from None
    result = check_enumeration(payload)
    return (0 if result.passed else 1, {"checks": [check_to_json_dict(result)]},
            [f"{_mark(result.passed)} {result.name}"])


def _gs_table(ns):
    rows = gs_table_json()
    lines = (
        f"{row['row_id']:3s} {'normal' if row['normal'] else '      '} index {row['index']:>3}"
        f"  {row['inner']}  ->  {row['outer']}"
        for row in rows
    )
    return 0, rows, lines


def _abelianize(ns):
    inv = abelianization(parse_presentation(ns.pres))
    parts = [f"Z{f}" for f in inv.factors] + ["Z"] * inv.free_rank
    payload = {"factors": list(inv.factors), "free_rank": inv.free_rank}
    return 0, payload, [" + ".join(parts) or "trivial"]


def _verify_action(ns):
    scenario = build_scenario(ns.family, ns.n, k=ns.k, b=ns.b)
    outcomes = run_scenario(scenario, ns.samples, ns.seed)
    payload = {
        "family": scenario.family,
        "n": scenario.cover.n,
        "seed": ns.seed,
        "samples": ns.samples,
        "checks": [{"label": o.label, "value": o.value, "pass": o.passed} for o in outcomes],
    }
    lines = (f"{_mark(o.passed)} {o.label}  ({o.value} points)" for o in outcomes)
    return (0 if all(o.passed for o in outcomes) else 1), payload, lines


_INT = {"type": int}
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}

# Each subcommand once: its name, its help, its handler, and its options as
# (flag, add_argument keywords); every subcommand also takes --json.
_COMMANDS = (
    ("classify", "classify a three-branch-point cover", _classify, (
        ("--curve", {"help": 'curve text, e.g. "y^7 = x(x-1)^2(x+1)^4"'}),
        ("--n", _INT), ("--a", _INT), ("--b", _INT), ("--c", _INT),
    )),
    ("lefschetz", "classify y^p = x^a (x+1)", lambda ns: _report(classify_lefschetz(ns.p, ns.a)),
     (("--p", _REQUIRED_INT), ("--a", _REQUIRED_INT))),
    ("fermat", "classify y^n + x^d = 1", lambda ns: _report(classify_fermat(ns.n, ns.d)),
     (("--n", _REQUIRED_INT), ("--d", _REQUIRED_INT))),
    ("genus", "genus and signature of a curve", _genus, (("--curve", _REQUIRED),)),
    ("enumerate", "equivalence classes at one degree", _enumerate, (("--n", _REQUIRED_INT),)),
    ("cross-check", "replay classifier invariants", _cross_check, (
        ("--n-max", {"type": int,
                     "help": "sweep degrees 4..N, or omit to check a piped enumeration"}),
    )),
    ("gs-table", "print the signature-extension table", _gs_table, ()),
    ("coset-enum", "order of a finitely presented group",
     lambda ns: _order(coset_enumerate(parse_presentation(ns.pres), max_cosets=ns.max_cosets)), (
        ("--pres", {"required": True, "help": 'e.g. "<x,y | x^2, y^3, (x*y)^7>"'}),
        ("--max-cosets", {"type": int, "default": 1_000_000}),
    )),
    ("abelianize", "abelian invariants of a presentation", _abelianize, (("--pres", _REQUIRED),)),
    ("perm-order", "order of a permutation group",
     lambda ns: _order(perm_order(parse_permutations(ns.perms, degree=ns.degree),
                                  max_size=ns.max_size)), (
        ("--perms", {"required": True, "help": 'e.g. "(1,2,3);(1,2)"'}),
        ("--degree", _INT),
        ("--max-size", {
            "type": int, "default": 10_000_000,
            "help": "largest group order computed; a larger group prints BUDGET_EXCEEDED",
        }),
    )),
    ("verify-action", "exact map verification over a prime field", _verify_action, (
        ("--family", {"required": True, "choices": list(FAMILIES)}),
        ("--n", _REQUIRED_INT), ("--k", _INT), ("--b", _INT),
        ("--samples", {"type": int, "default": 100}),
        ("--seed", {"type": int, "default": 0}),
    )),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclicaut",
        description="Automorphism groups of cyclic covers of the sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def run(argv) -> int:
    """Parse and dispatch; returns the process exit code.  The one place that
    writes output: the result as JSON or text, a budget stop as
    ``BUDGET_EXCEEDED`` or a ``budget_exceeded`` object, a domain error as
    ``error: ...`` on stderr, a usage error as argparse's usage."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        try:
            code, payload, lines = ns.handler(ns)
        except argparse.ArgumentError as exc:  # a usage fault the handler found
            parser.error(str(exc))
    except SystemExit as exc:  # argparse printed help or usage
        return int(exc.code or 0)
    except BudgetExceeded as exc:
        code, payload = 0, {"budget_exceeded": {"what": exc.what, "budget": exc.budget}}
        lines = ["BUDGET_EXCEEDED"]
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if ns.json:
        print(_compact(payload))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
