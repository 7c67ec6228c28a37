"""The benchmark tracer wraps package functions by name; each name must exist.

``perfbench/test_smoke.py`` runs outside the default test paths, so
without this check a renamed or deleted traced function would pass the
suite and only break ``perfbench/run.py --trace 1``.
"""

import importlib
import sys
from pathlib import Path

from helpers import worked_chain
from semishift import EPSILON, Pattern, Symbol, Word, measure

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


def test_eval_cylinder_calls_eval_constrained_once_through_the_module(monkeypatch):
    """The tracer's ``measure.eval_constrained`` calls and ``den_bits_max`` count
    cylinder work only while ``eval_cylinder`` reads that module global on every call."""
    real, calls = measure.eval_constrained, []

    def spy(chain, constraints):
        calls.append(dict(constraints))
        return real(chain, constraints)

    monkeypatch.setattr(measure, "eval_constrained", spy)
    chain = worked_chain(2)
    a1, a2 = Symbol.from_signed(1), Symbol.from_signed(2)
    pattern = Pattern.of({EPSILON: 0, Word((a1,)): 1, Word((a2, a1)): 0})
    expected = {w: (c,) for w, c in pattern.items()}
    assert measure.eval_cylinder(chain, pattern) == real(chain, expected)
    assert calls == [expected]
    assert chain.eval(pattern) == real(chain, expected)
    assert calls == [expected, expected]
