"""The benchmark's tracer wraps package calls by name; each name must exist.

``bench/tracer.py`` is loaded from its file, unchanged, and every entry of
its ``TRACED`` table is resolved the way ``Tracer.install`` resolves it: a
plain name is an attribute of its module, and a ``Class.method`` entry is
defined in that class's own ``__dict__`` (``install`` reads it from there,
so a method the class only inherits fails).  The package's tests do not
run the benchmark, so a renamed call would otherwise go unnoticed there.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for module_name, calls in _load_tracer().TRACED.items():
        module = importlib.import_module(f"bellcert.{module_name}")
        for call in calls:
            owner, _, method = call.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                found = cls is not None and method in vars(cls)
            else:
                found = hasattr(module, call)
            if not found:
                missing.append(f"{module_name}.{call}")
    assert missing == []
