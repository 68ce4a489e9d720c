"""The traced benchmark wraps functions by name; each name must still exist."""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_targets_resolve():
    # executed from its source text, so nothing is written under perfbench/
    namespace: dict = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert targets
    for module_name, func_name, _span in targets:
        module = importlib.import_module(f"cyclicaut.{module_name}")
        assert callable(getattr(module, func_name, None)), f"cyclicaut.{module_name}.{func_name}"
