"""Dump cyclicaut's answers on fixed input sets, one JSON line per call.

Two checkouts agree on every answer below exactly when their dumps are
byte-identical, so a change that must keep answers is checked with one cmp:

    python3 tools/dump_answers.py > after.jsonl
    python3 /path/to/other/checkout/tools/dump_answers.py > before.jsonl
    cmp before.jsonl after.jsonl

The script imports ``cyclicaut`` from ``src/`` of the checkout it sits in;
for a checkout that predates it, copy it into that checkout's ``tools/``.
Input sets, in output order:

- ``classify_belyi(n, a, b, c)`` on every ordered admissible triple with
  4 <= n <= 60 (57,750 calls);
- ``classify_lefschetz(p, a)`` for 0 <= a <= p at every prime p < 400 and at
  the non-primes 4, 6, 9, 15 and 21 (14,025 calls);
- ``classify_fermat(n, d)`` for n < 70 and 0 <= d <= n + 1 (2,555 calls);
- ``gs_extensions`` and ``extension_chains`` on every sorted period tuple of
  length 1 to 3 with entries 2..64, length 4 with entries 2..40 and length 5
  with entries 2..14 (163,877 tuples).

A classification line holds ``report_to_json_dict`` of the report plus its
``kind``, ``group.kind`` and ``group.params``; any call that raises
``DomainError`` writes the error text instead.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cyclicaut.classifier import (  # noqa: E402
    classify_belyi,
    classify_fermat,
    classify_lefschetz,
    report_to_json_dict,
)
from cyclicaut.curve import Signature  # noqa: E402
from cyclicaut.fuchsian import extension_chains, gs_extensions  # noqa: E402
from cyclicaut.numtheory import DomainError, is_prime  # noqa: E402
from cyclicaut.verify import ENUMERATION_CAP, _ordered_admissible  # noqa: E402


def _reported(classify):
    """classify, answering with the report's JSON and its group's kind and params."""
    return lambda *args: _report(classify(*args))


def _report(report) -> dict:
    return {
        "report": report_to_json_dict(report),
        "kind": report.kind,
        "group_kind": report.group.kind,
        "group_params": repr(report.group.params),
    }


def _extensions(sig: Signature) -> list:
    return [
        [ext.row.row_id, list(ext.outer.periods), ext.index, ext.row.normal]
        for ext in gs_extensions(sig)
    ]


def _chains(sig: Signature) -> list:
    return [
        [chain.item, [[s.row_id, list(s.signature.periods), s.index] for s in chain.steps],
         chain.equivalent_row_id, chain.live]
        for chain in extension_chains(sig)
    ]


def _answer(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return {"error": str(exc)}


def _extension_answer(*periods: int) -> dict:
    sig = Signature(0, periods)
    return {"gs_extensions": _extensions(sig), "extension_chains": _answer(_chains, sig)}


def _calls():
    """(name, function, args) of every call, in output order."""
    for n in range(4, ENUMERATION_CAP + 1):
        for triple in _ordered_admissible(n):
            yield "belyi", _reported(classify_belyi), (n, *triple)
    for p in [q for q in range(400) if is_prime(q)] + [4, 6, 9, 15, 21]:
        for a in range(p + 1):
            yield "lefschetz", _reported(classify_lefschetz), (p, a)
    for n in range(70):
        for d in range(n + 2):
            yield "fermat", _reported(classify_fermat), (n, d)
    for length, top in ((1, 64), (2, 64), (3, 64), (4, 40), (5, 14)):
        for periods in combinations_with_replacement(range(2, top + 1), length):
            yield "extensions", _extension_answer, periods


def main() -> None:
    out = sys.stdout
    for name, fn, args in _calls():
        answer = _answer(fn, *args)
        out.write(json.dumps([name, list(args), answer], separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
