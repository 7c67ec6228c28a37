"""The benchmark tracer wraps package functions by name; each name must exist.

``perfbench/test_smoke.py`` runs outside the default test paths, so
without this check a renamed or deleted traced function would pass the
suite and only break ``perfbench/run.py --trace 1``.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced_targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer.TARGETS


def test_every_traced_name_resolves():
    targets = traced_targets()
    assert targets
    for name, module, path, _ in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: {module} has no {path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{name}: {module}.{path} is not callable"
