"""The names that the benchmark's span tracer wraps and reads still exist.

``bench/spans.py`` looks up every traced function by name when it installs
its wrappers, and reads ``LqSolution.endpoint_gap``; a missing name fails
only a traced benchmark run, so it is checked here.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from bandctrl.lq import LqSolution

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = _spans()
    missing = [
        f"{mod}.{fn}" for mod, fn in spans.TRACED
        if not callable(getattr(importlib.import_module(mod), fn, None))
    ]
    assert missing == []
    for mod in spans.MODULES:
        importlib.import_module(mod)


def test_transfer_solutions_carry_the_endpoint_gap():
    assert "endpoint_gap" in {f.name for f in dataclasses.fields(LqSolution)}
