"""The benchmark's tracer names functions of `sil`; each must still exist.

`perfbench/layers.py` reports a function it cannot find as absent, so a
renamed or deleted traced function would otherwise show only as a changed
metric set after a full traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _traced(monkeypatch):
    """`TRACED` of the benchmark's tracer, loaded without a bytecode file."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves(monkeypatch):
    traced = _traced(monkeypatch)
    assert traced
    missing = [f"{module}.{name}" for module, name, _, _ in traced
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert missing == []
