"""Spans around the calls into each cyclicaut module, for the traced run.

The tracer replaces each public function named in TARGETS, in every
cyclicaut module namespace that holds it, so internal calls are counted
too (``canonical_triple`` is looked up in ``cyclicaut.classifier`` as well
as in ``cyclicaut.curve``).  Each call records a span: name, start, end,
parent, integer result and outcome.  Spans stay in memory until the run
ends, then go to a file.  A span's self time is its duration minus the
durations of its direct children; calls run on one thread, so children
nest inside their parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

from cyclicaut.grouptheory import BudgetExceeded

PRESENTATION_BUILDERS = (
    "cyclic_presentation",
    "central_dihedral_presentation",
    "kulkarni_presentation",
    "twisted_c2_presentation",
    "twisted_c3_presentation",
    "abelian_presentation",
    "fermat_divisor_presentation",
    "fermat_quadratic_presentation",
    "fermat_cubic_presentation",
    "octahedral_times_c4_presentation",
)

# (module, function, span name); the presentation builders share one span name.
TARGETS = (
    ("cli", "run", "cli.run"),
    *(
        ("numtheory", f, f"numtheory.{f}")
        for f in ("units", "involutory_units", "omega_units", "factorize")
    ),
    *(
        ("curve", f, f"curve.{f}")
        for f in ("canonical_triple", "genus", "monodromy_genus", "belyi_cover", "parse_curve")
    ),
    *(
        ("fuchsian", f, f"fuchsian.{f}")
        for f in ("gs_extensions", "cb_extendable", "harvey_admissible")
    ),
    *(
        ("classifier", f, f"classifier.{f}")
        for f in ("classify_belyi", "classify_lefschetz", "classify_fermat")
    ),
    *(("classifier", f, "classifier.presentations") for f in PRESENTATION_BUILDERS),
    *(
        ("grouptheory", f, f"grouptheory.{f}")
        for f in ("parse_presentation", "coset_enumerate", "smith_normal_form", "perm_order")
    ),
    *(("verify", f, f"verify.{f}") for f in ("cross_check", "enumerate_classes", "run_scenario")),
)

RETURNED, BUDGET_STOP, RAISED = 0, 1, 2
_MAX_VALUE = 2**63 - 1


class Tracer:
    """Span recorder; install() wraps the targets, uninstall() restores them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.outcome = array("b")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int):
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        value, outcome, stack = self.value, self.outcome, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1])
            value.append(0)
            outcome.append(RETURNED)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BudgetExceeded:
                outcome[i] = BUDGET_STOP
                raise
            except BaseException:
                outcome[i] = RAISED
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if type(result) is int and 0 <= result <= _MAX_VALUE:
                value[i] = result
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "cyclicaut" or key.startswith("cyclicaut.")
        ]
        for module_name, func_name, span_name in TARGETS:
            original = getattr(importlib.import_module(f"cyclicaut.{module_name}"), func_name)
            if span_name not in self.names:
                self.names.append(span_name)
            wrapper = self._wrap(original, self.names.index(span_name))
            for module in modules:
                for attr, held in list(vars(module).items()):
                    if held is original:
                        self._undo.append((module, attr, held))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, held = self._undo.pop()
            setattr(module, attr, held)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, stem: Path) -> None:
        """Write the spans as raw columns to ``stem.bin`` and their layout to
        ``stem.json``; read them back with ``array.fromfile``."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name_of", "parent", "start", "end", "value", "outcome")
        layout = {
            "count": len(self.name_of),
            "names": self.names,
            "columns": [[c, getattr(self, c).typecode, getattr(self, c).itemsize] for c in columns],
            "outcomes": {"returned": RETURNED, "budget_stop": BUDGET_STOP, "raised": RAISED},
            "clock": "time.perf_counter seconds",
        }
        stem.with_suffix(".json").write_text(json.dumps(layout, indent=1) + "\n")
        with stem.with_suffix(".bin").open("wb") as out:
            for c in columns:
                getattr(self, c).tofile(out)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced pass, by name, as (value, unit)."""
    own = tracer.self_times()
    count = {name: 0 for name in tracer.names}
    self_s = {name: 0.0 for name in tracer.names}
    max_call_s = {name: 0.0 for name in tracer.names}
    returned = {name: 0 for name in tracer.names}
    closed_value = {name: 0 for name in tracer.names}
    closed_self_s = {name: 0.0 for name in tracer.names}
    stops = 0
    stop_self_s = 0.0
    for i, name_id in enumerate(tracer.name_of):
        name = tracer.names[name_id]
        count[name] += 1
        self_s[name] += own[i]
        max_call_s[name] = max(max_call_s[name], tracer.end[i] - tracer.start[i])
        if tracer.outcome[i] == RETURNED:
            returned[name] += 1
            closed_value[name] += tracer.value[i]
            closed_self_s[name] += own[i]
        elif tracer.outcome[i] == BUDGET_STOP and name == "grouptheory.coset_enumerate":
            stops += 1
            stop_self_s += own[i]
    reports = sum(
        returned[f"classifier.{f}"] for f in ("classify_belyi", "classify_lefschetz", "classify_fermat")
    )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {
        "cli.run.calls": (count["cli.run"], "count"),
        "cli.run.self_ms_per_call": (ratio(1e3 * self_s["cli.run"], count["cli.run"]), "ms"),
        "numtheory.units.calls": (count["numtheory.units"], "count"),
        "curve.canonical_triple.calls": (count["curve.canonical_triple"], "count"),
        "curve.canonical_triple.calls_per_report": (
            ratio(count["curve.canonical_triple"], reports), "calls/report"),
        "curve.genus.calls_per_report": (ratio(count["curve.genus"], reports), "calls/report"),
        "fuchsian.gs_extensions.calls": (count["fuchsian.gs_extensions"], "count"),
        "classifier.classify_belyi.calls": (count["classifier.classify_belyi"], "count"),
        "grouptheory.coset_enumerate.calls": (count["grouptheory.coset_enumerate"], "count"),
        "grouptheory.coset_enumerate.index_per_s": (
            ratio(closed_value["grouptheory.coset_enumerate"],
                  closed_self_s["grouptheory.coset_enumerate"]), "cosets/s"),
        "grouptheory.coset_enumerate.budget_stops": (stops, "count"),
        "grouptheory.coset_enumerate.budget_stop_self_s": (stop_self_s, "s"),
        "grouptheory.smith_normal_form.max_call_s": (
            max_call_s["grouptheory.smith_normal_form"], "s"),
        "grouptheory.perm_order.elements_per_s": (
            ratio(closed_value["grouptheory.perm_order"],
                  closed_self_s["grouptheory.perm_order"]), "elements/s"),
    }
    for name in tracer.names:
        if name not in ("cli.run", "curve.genus"):
            out[f"{name}.self_s"] = (self_s[name], "s")
    return out
