"""The benchmark reads package names; each name must exist.

``perfbench/test_smoke.py`` runs outside the default test paths, so
without these checks a renamed or deleted function that the tracer wraps
or a workload calls would pass the suite and only break a benchmark run.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from helpers import worked_chain
from semishift import EPSILON, MarkovizedMeasure, Pattern, Symbol, Word, fold, markovize, measure

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def traced_targets():
    return tracer_module().TARGETS


def test_every_traced_name_resolves():
    targets = traced_targets()
    assert targets
    for name, module, path, _ in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: {module} has no {path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{name}: {module}.{path} is not callable"


def test_the_cli_loads_every_module_the_tracer_wraps():
    """The tracer wraps names only in modules loaded when it is installed,
    which a traced child does right after importing the CLI."""
    modules = sorted({module for _, module, _, _ in traced_targets()})
    code = f"import sys, semishift.cli; print([m for m in {modules!r} if m not in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert (out.returncode, out.stdout.strip()) == (0, "[]"), out.stderr


def package_reads(source: str) -> set[tuple[str, str]]:
    """(module, attribute) for every attribute read on a name bound to the
    package: ``ss``, the package handed to every workload, and each
    ``import semishift...`` alias."""
    tree = ast.parse(source)
    bound = {"ss": "semishift"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "semishift":
                    bound[alias.asname or "semishift"] = alias.name if alias.asname else "semishift"
    return {
        (bound[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in bound
    }


def test_every_package_name_the_benchmark_reads_resolves():
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        reads |= package_reads(path.read_text())
    assert ("semishift", "all_patterns") in reads
    assert ("semishift.serialize", "measure_out") in reads
    for module, name in sorted(reads):
        # ``semishift.cli`` is a submodule that the package does not import itself.
        exists = hasattr(importlib.import_module(module), name)
        assert exists or importlib.util.find_spec(f"{module}.{name}"), f"no {module}.{name}"


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


def test_the_tracer_counts_the_chain_folds_under_their_measure_names():
    """The folds live in ``fold``; the tracer wraps them wherever a module
    binds them, so cylinder, markovized and validation work is counted
    under ``measure.eval_constrained`` and ``measure.validate_chain``."""
    chain, fresh = worked_chain(2), worked_chain(2)
    a1 = Symbol.from_signed(1)
    pattern = Pattern.of({EPSILON: 0, Word((a1,)): 1})
    pulled = MarkovizedMeasure(markovize(chain, 1))
    expected = measure.eval_cylinder(chain, pattern), pulled.eval(pattern)
    tracer = tracer_module().Tracer(child=True)
    tracer.install()
    try:
        values = measure.eval_cylinder(chain, pattern), pulled.eval(pattern)
        diagnostics = fresh.diagnostics
    finally:
        tracer.uninstall()
    assert values == expected and diagnostics.ok
    assert tracer.calls["measure.eval_constrained"] == len(values)
    assert tracer.calls["measure.validate_chain"] >= 1
    assert tracer.den_bits_max > 0
    assert measure.eval_constrained is fold.eval_constrained
