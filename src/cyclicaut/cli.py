"""Command-line front end.

Subcommands: classify, lefschetz, fermat, genus, enumerate, cross-check,
gs-table, coset-enum, abelianize, perm-order, verify-action.  Every command
supports --json with a fixed key order.  Exit codes: 0 success (including a
reported budget stop), 1 domain error, 2 usage error.
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


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _print_report(report, as_json: bool) -> None:
    if as_json:
        _emit(report_to_json_dict(report))
        return
    print(f"row        {report.row}")
    print(f"genus      {report.genus}")
    print(f"signature  {','.join(str(p) for p in report.signature.periods)}")
    print(f"order      {report.group.order}")
    print(f"structure  {report.group.structure}")
    print(f"base       {report.base_order}")
    for step in report.chain:
        periods = ",".join(str(p) for p in step.signature.periods)
        print(f"chain      row {step.row_id} -> ({periods}) index {step.index}")
    if report.group.presentation_text is not None:
        print(f"presentation {report.group.presentation_text}")
    if report.notes:
        print(f"notes      {report.notes}")


def _cmd_classify(ns, parser) -> int:
    by_curve = ns.curve is not None
    by_triple = any(v is not None for v in (ns.n, ns.a, ns.b, ns.c))
    if by_curve == by_triple:
        parser.error("give either --curve or all of --n/--a/--b/--c")
    if by_curve:
        report = classify_cover(parse_curve(ns.curve))
    else:
        if None in (ns.n, ns.a, ns.b, ns.c):
            parser.error("triple mode needs all of --n/--a/--b/--c")
        report = classify_belyi(ns.n, ns.a, ns.b, ns.c)
    _print_report(report, ns.json)
    return 0


def _cmd_lefschetz(ns, parser) -> int:
    _print_report(classify_lefschetz(ns.p, ns.a), ns.json)
    return 0


def _cmd_fermat(ns, parser) -> int:
    _print_report(classify_fermat(ns.n, ns.d), ns.json)
    return 0


def _cmd_genus(ns, parser) -> int:
    cover = parse_curve(ns.curve)
    g = genus(cover)
    sig = signature_of(cover)
    if ns.json:
        _emit(
            {
                "n": cover.n,
                "genus": g,
                "monodromy_genus": monodromy_genus(cover),
                "signature": list(sig.periods),
            }
        )
    else:
        print(f"genus      {g}")
        print(f"signature  {','.join(str(p) for p in sig.periods)}")
    return 0


def _cmd_enumerate(ns, parser) -> int:
    classes = enumerate_classes(ns.n)
    if ns.json:
        _emit(enumeration_to_json_dict(ns.n, classes))
        return 0
    for c in classes:
        canon = ",".join(str(v) for v in c.canonical)
        print(
            f"({canon})  size {c.size:3d}  row {c.report.row:7s} "
            f"genus {c.report.genus:2d}  order {c.report.group.order:4d}  "
            f"{c.report.group.structure}"
        )
    return 0


def _cmd_cross_check(ns, parser) -> int:
    if ns.n_max is None:
        # filter mode: verify an enumeration report piped on standard input
        try:
            payload = json.load(sys.stdin)
        except json.JSONDecodeError as exc:
            raise DomainError(f"stdin is not valid JSON: {exc}")
        except ValueError:  # an integer with more digits than int() converts
            raise DomainError("stdin is not valid JSON: an integer is too long") from None
        result = check_enumeration(payload)
        if ns.json:
            _emit({"checks": [check_to_json_dict(result)]})
        else:
            print(f"{'PASS' if result.passed else 'FAIL'} {result.name}")
        return 0 if result.passed else 1
    report = cross_check(ns.n_max)
    if ns.json:
        _emit(cross_check_to_json_dict(report))
    else:
        for c in report.checks:
            print(f"{'PASS' if c.passed else 'FAIL'} {c.name}")
            if c.witness is not None:
                print(f"     witness {json.dumps(c.witness, separators=(',', ':'))}")
    return 0 if report.all_passed else 1


def _cmd_gs_table(ns, parser) -> int:
    rows = gs_table_json()
    if ns.json:
        _emit(rows)
        return 0
    for row in rows:
        marker = "normal" if row["normal"] else "      "
        print(f"{row['row_id']:3s} {marker} index {row['index']:>3}  {row['inner']}  ->  {row['outer']}")
    return 0


def _cmd_coset_enum(ns, parser) -> int:
    pres = parse_presentation(ns.pres)
    order = coset_enumerate(pres, max_cosets=ns.max_cosets)
    if ns.json:
        _emit({"order": order})
    else:
        print(order)
    return 0


def _cmd_abelianize(ns, parser) -> int:
    pres = parse_presentation(ns.pres)
    inv = abelianization(pres)
    if ns.json:
        _emit({"factors": list(inv.factors), "free_rank": inv.free_rank})
        return 0
    parts = [f"Z{f}" for f in inv.factors] + ["Z"] * inv.free_rank
    print(" + ".join(parts) if parts else "trivial")
    return 0


def _cmd_perm_order(ns, parser) -> int:
    perms = parse_permutations(ns.perms, degree=ns.degree)
    order = perm_order(perms, max_size=ns.max_size)
    if ns.json:
        _emit({"order": order})
    else:
        print(order)
    return 0


def _cmd_verify_action(ns, parser) -> int:
    scenario = build_scenario(ns.family, ns.n, k=ns.k, b=ns.b)
    outcomes = run_scenario(scenario, ns.samples, ns.seed)
    if ns.json:
        _emit(
            {
                "family": scenario.family,
                "n": scenario.cover.n,
                "seed": ns.seed,
                "samples": ns.samples,
                "checks": [
                    {"label": o.label, "value": o.value, "pass": o.passed} for o in outcomes
                ],
            }
        )
    else:
        for o in outcomes:
            print(f"{'PASS' if o.passed else 'FAIL'} {o.label}  ({o.value} points)")
    return 0 if all(o.passed for o in outcomes) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclicaut",
        description="Automorphism groups of cyclic covers of the sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(fn=fn)
        return p

    p = add("classify", _cmd_classify, help="classify a three-branch-point cover")
    p.add_argument("--curve", help='curve text, e.g. "y^7 = x(x-1)^2(x+1)^4"')
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)

    p = add("lefschetz", _cmd_lefschetz, help="classify y^p = x^a (x+1)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", type=int, required=True)

    p = add("fermat", _cmd_fermat, help="classify y^n + x^d = 1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("genus", _cmd_genus, help="genus and signature of a curve")
    p.add_argument("--curve", required=True)

    p = add("enumerate", _cmd_enumerate, help="equivalence classes at one degree")
    p.add_argument("--n", type=int, required=True)

    p = add("cross-check", _cmd_cross_check, help="replay classifier invariants")
    p.add_argument("--n-max", type=int, help="sweep degrees 4..N, or omit to check a piped enumeration")

    add("gs-table", _cmd_gs_table, help="print the signature-extension table")

    p = add("coset-enum", _cmd_coset_enum, help="order of a finitely presented group")
    p.add_argument("--pres", required=True, help='e.g. "<x,y | x^2, y^3, (x*y)^7>"')
    p.add_argument("--max-cosets", type=int, default=1_000_000)

    p = add("abelianize", _cmd_abelianize, help="abelian invariants of a presentation")
    p.add_argument("--pres", required=True)

    p = add("perm-order", _cmd_perm_order, help="order of a permutation group")
    p.add_argument("--perms", required=True, help='e.g. "(1,2,3);(1,2)"')
    p.add_argument("--degree", type=int)
    p.add_argument(
        "--max-size", type=int, default=10_000_000,
        help="largest group order computed; a larger group prints BUDGET_EXCEEDED",
    )

    p = add("verify-action", _cmd_verify_action, help="exact map verification over a prime field")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.fn(ns, parser)
    except SystemExit as exc:  # parser.error inside a handler
        return int(exc.code or 0)
    except BudgetExceeded:
        print("BUDGET_EXCEEDED")
        return 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
