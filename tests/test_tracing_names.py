"""Every function that ``perfbench/tracing.py`` traces by name exists in its ``pietsp`` module.

``Tracer.install`` passes over a ``TRACED`` name its module lacks, so a
deleted or renamed function would leave its per-layer reading of
``perfbench/run.py --trace 1`` at zero without an error.  The file is read
and executed from its source, so nothing is written next to it.
"""

import importlib
import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_and_counted_name_exists_in_its_module(monkeypatch):
    tracing = types.ModuleType("perfbench_tracing")
    monkeypatch.setitem(sys.modules, tracing.__name__, tracing)  # its dataclasses look it up
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(tracing))
    missing = [f"{layer}.{name}" for layer, names in tracing.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"pietsp.{layer}"), name, None))]
    for layer, cls_name, method in tracing.COUNTED.values():
        owner = getattr(importlib.import_module(f"pietsp.{layer}"), cls_name, None)
        if owner is None or not callable(vars(owner).get(method)):
            missing.append(f"{layer}.{cls_name}.{method}")
    assert missing == []
