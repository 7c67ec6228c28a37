"""Value semantics of the package's record classes, and what importing the
package and the CLI loads.

Every frozen value class derives from ``algebra.Record``.  The
parametrized test below holds each of them to the same contract: fields
by position and keyword, equality only within one class, a hash over the
fields, a ``Name(field=value, ...)`` repr, no assignment or deletion, and
pickle and copy round trips.
"""

import ast
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import swap_orbit, worked_chain
from semishift import (
    EPSILON,
    BernoulliMeasure,
    BlockAlphabet,
    ChainDiagnostics,
    CheckResult,
    CounterexampleReport,
    GeneratorSet,
    LatticeBernoulli,
    LatticeMarkov,
    LatticePattern,
    LatticeTable,
    MarkovizationResult,
    MarkovizedMeasure,
    MarkovTreeChain,
    MixtureMeasure,
    OrbitAutomaton,
    Pattern,
    PeriodicMeasure,
    Symbol,
    Tree,
    Word,
    counterexample_analyze,
    markovize,
    parse_word,
    support_alphabet,
    tree_hull,
)
from semishift.algebra import Record

SRC = Path(__file__).resolve().parents[1] / "src"
HALF = (F(1, 2), F(1, 2))
A1, A2 = Symbol(1, 1), Symbol(2, 1)
SHEARS = (((1, 1), (0, 1)), ((1, 0), (1, 1)))


def gs12() -> GeneratorSet:
    return GeneratorSet.from_signed((1, 2))


def bernoulli(probs=(F(1, 3), F(2, 3))) -> BernoulliMeasure:
    return BernoulliMeasure(gs12(), (0, 1), probs)


def lattice_table(masses=(F(1, 2), F(1, 2))) -> LatticeTable:
    table = tuple(
        (LatticePattern.of({(0,): c}), mass) for c, mass in zip((0, 1), masses)
    )
    return LatticeTable(1, (0, 1), (1,), table)


# class -> (build an instance, build one of the same class that differs in a field,
# whether the fields hash).  Each call builds fresh objects, so equal
# instances are never the same object.
CASES = {
    Word: (lambda: parse_word("a1A2"), lambda: parse_word("a1a2"), True),
    GeneratorSet: (gs12, lambda: GeneratorSet.from_signed((1,)), True),
    Tree: (
        lambda: tree_hull([parse_word("a1a2")], gs12()),
        lambda: tree_hull([parse_word("a2")], gs12()),
        True,
    ),
    Pattern: (
        lambda: Pattern.of({EPSILON: 0, Word((A1,)): 1}),
        lambda: Pattern.of({EPSILON: 1, Word((A1,)): 1}),
        True,
    ),
    CheckResult: (lambda: CheckResult(False, "w"), lambda: CheckResult(True), True),
    ChainDiagnostics: (lambda: ChainDiagnostics(("p",)), lambda: ChainDiagnostics(()), True),
    MarkovTreeChain: (worked_chain, lambda: worked_chain(2), True),
    BernoulliMeasure: (bernoulli, lambda: bernoulli(HALF), True),
    MixtureMeasure: (
        lambda: MixtureMeasure((bernoulli(), bernoulli(HALF)), HALF),
        lambda: MixtureMeasure((bernoulli(), bernoulli(HALF)), (F(1, 4), F(3, 4))),
        True,
    ),
    CounterexampleReport: (
        lambda: counterexample_analyze(SHEARS, parse_word("a1a2A1A2"), 5),
        lambda: counterexample_analyze(SHEARS, parse_word("a1a2A1A2"), 7),
        True,
    ),
    BlockAlphabet: (
        lambda: support_alphabet(bernoulli(), 0),
        lambda: support_alphabet(bernoulli(HALF), 0),
        True,
    ),
    MarkovizationResult: (
        lambda: markovize(bernoulli(), 0),
        lambda: markovize(bernoulli(HALF), 0),
        True,
    ),
    MarkovizedMeasure: (
        lambda: MarkovizedMeasure(markovize(bernoulli(), 0)),
        lambda: MarkovizedMeasure(markovize(bernoulli(HALF), 0)),
        True,
    ),
    # delta is a dict, so automata and the measures holding them do not hash
    OrbitAutomaton: (
        swap_orbit,
        lambda: OrbitAutomaton(gs12(), (0, 1), (1, 0), {A1: (1, 0), A2: (1, 0)}),
        False,
    ),
    PeriodicMeasure: (
        lambda: PeriodicMeasure((swap_orbit(),), (F(1),)),
        lambda: PeriodicMeasure((swap_orbit(), swap_orbit()), HALF),
        False,
    ),
    LatticePattern: (
        lambda: LatticePattern.of({(0, 1): "x"}),
        lambda: LatticePattern.of({(1, 0): "x"}),
        True,
    ),
    LatticeBernoulli: (
        lambda: LatticeBernoulli(1, (0, 1), HALF),
        lambda: LatticeBernoulli(2, (0, 1), HALF),
        True,
    ),
    LatticeMarkov: (
        lambda: LatticeMarkov((0, 1), HALF, (HALF, HALF)),
        lambda: LatticeMarkov((0, 2), HALF, (HALF, HALF)),
        True,
    ),
    LatticeTable: (lattice_table, lambda: lattice_table((F(1, 4), F(3, 4))), True),
}


def record_classes(cls=Record) -> set:
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | record_classes(sub)
    return out


def test_every_record_class_is_covered():
    assert record_classes() == set(CASES)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    make, make_other, hashable = CASES[cls]
    x, twin, other = make(), make(), make_other()
    assert type(x) is type(twin) is type(other) is cls
    names = cls._fields
    values = [getattr(x, name) for name in names]

    # equality and hash by field, within the class
    assert x == twin and not x != twin
    assert x != other and other != x
    assert x != object() and x != tuple(values)
    if hashable:
        assert hash(x) == hash(twin)
        assert len({x, twin, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(x)

    # construction by position and by keyword gives an equal value
    assert cls(*values) == x
    assert cls(**dict(zip(names, values))) == x
    with pytest.raises(TypeError):
        cls(*values, *values)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)

    # frozen: no field or other attribute is assigned or deleted
    for name in (names[0], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert getattr(x, names[0]) is values[0]

    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(x) == f"{cls.__name__}({shown})"

    for clone in (
        pickle.loads(pickle.dumps(x)),
        copy.copy(x),
        copy.deepcopy(x),
    ):
        assert type(clone) is cls and clone == x
        if hashable:
            assert hash(clone) == hash(x)


def test_repr_format():
    assert repr(CheckResult(False, "w")) == "CheckResult(ok=False, witness='w')"
    assert repr(Word((A1,))) == "Word(letters=(Symbol(index=1, sign=1),))"


def test_fields_defaults_and_class_vars():
    assert Word() == Word(()) == Word(letters=()) == EPSILON
    assert CheckResult(True).witness is None
    assert CheckResult(ok=False, witness="w") == CheckResult(False, "w")
    o = swap_orbit()
    assert OrbitAutomaton(o.gs, o.alphabet, o.labels, o.delta) == o
    assert OrbitAutomaton(o.gs, o.alphabet, o.labels, o.delta).base == 0
    assert PeriodicMeasure._fields == MixtureMeasure._fields == ("components", "weights")
    assert LatticeMarkov._fields == ("alphabet", "p", "P")  # d is a ClassVar
    assert LatticeMarkov.d == 1
    with pytest.raises(TypeError):
        CheckResult()
    with pytest.raises(TypeError, match="missing field 'd'"):
        GeneratorSet(sigma=frozenset({A1}))


def test_post_init_checks_run_on_every_construction():
    with pytest.raises(ValueError, match="not reduced"):
        Word((A1, A1.inverse()))
    with pytest.raises(ValueError, match="rank d"):
        GeneratorSet(d=0, sigma=frozenset({A1}))


def test_cached_properties_are_kept_per_instance():
    p = Pattern.of({EPSILON: 0, Word((A1,)): 1})
    assert "_lookup" not in vars(p)
    assert p[Word((A1,))] == 1
    assert vars(p)["_lookup"] is p._lookup
    chain = worked_chain(2)
    assert chain.matrix is chain.matrix
    assert vars(chain)["matrix"][A2] == chain.transitions[1][1]
    # the cached values travel with a pickled or copied instance
    for clone in (pickle.loads(pickle.dumps(chain)), copy.copy(chain)):
        assert clone == chain and clone.matrix == chain.matrix
    restored = pickle.loads(pickle.dumps(p))
    assert restored[EPSILON] == 0 and restored._lookup == p._lookup


def probe(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports the package from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def loaded_by(statement: str) -> set[str]:
    """The modules a fresh interpreter loads to run one import statement."""
    code = f"import sys; before = set(sys.modules); {statement}; print(sorted(set(sys.modules) - before))"
    return set(ast.literal_eval(probe(code)))


LAZY_MODULES = {"semishift.orbit", "semishift.reversible"}
# The Theorem-E family: loaded on first use by the package and the CLI alike.
ON_FIRST_USE = {"semishift.counterexample"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
    every CLI process would pay for them at start-up.  The CLI loads the orbit
    and lattice modules itself, so a tracer installed after importing it wraps them."""
    loaded = loaded_by("import semishift.cli")
    assert not {"dataclasses", "inspect"} & loaded
    assert LAZY_MODULES <= loaded
    assert not ON_FIRST_USE & loaded


def test_package_import_loads_only_the_chain_path():
    loaded = loaded_by("import semishift")
    assert {"semishift.algebra", "semishift.fold", "semishift.measure", "semishift.markovize"} <= loaded
    assert not (LAZY_MODULES | ON_FIRST_USE) & loaded


# Without a bytecode cache (PYTHONDONTWRITEBYTECODE=1, or a source tree run
# with PYTHONPATH=src) every process compiles the package, and the compile of
# its largest module sets the process's memory high-water mark (VmHWM).
# Median of 5 fresh interpreters, Python 3.11.7 on a 2-vCPU Xeon: compiling
# measure.py while it held the chain folds (5914 nodes) raised VmHWM by
# 2408 kB, compiling the eight modules the CLI then loaded by 2524 kB, and
# compiling the same source as measure.py and fold.py by 1708 kB.
MAX_MODULE_NODES = 4500


def test_no_module_is_large_enough_to_set_the_compile_peak():
    sizes = {
        path.name: sum(1 for _ in ast.walk(ast.parse(path.read_text(), str(path))))
        for path in sorted((SRC / "semishift").glob("*.py"))
    }
    assert {name: n for name, n in sizes.items() if n > MAX_MODULE_NODES} == {}


@pytest.mark.parametrize(
    "code, expected",
    [
        # dir() lists every public name before it is loaded, and each resolves
        (
            "import semishift as ss\n"
            "print([n for n in ss.__all__ if n not in dir(ss)],"
            " [n for n in ss.__all__ if not hasattr(ss, n)],"
            " ss.minimized is ss.orbit.minimized, ss.LatticeTable is ss.reversible.LatticeTable)",
            "[] [] True True",
        ),
        (
            "import semishift as ss\n"
            "print(ss.counterexample_chain is ss.counterexample.counterexample_chain,"
            " ss.CounterexampleReport.__module__)",
            "True semishift.counterexample",
        ),
        (
            "from semishift import *\n"
            "print(minimized.__module__, LatticeTable.__module__, markovize.__module__)",
            "semishift.orbit semishift.reversible semishift.markovize",
        ),
        (
            "import semishift\n"
            "try:\n    semishift.no_such_name\nexcept AttributeError as exc:\n    print(exc)",
            "module 'semishift' has no attribute 'no_such_name'",
        ),
        # importing a submodule must not rebind the package's ``markovize`` function
        (
            "import semishift, semishift.serialize\nprint(type(semishift.markovize).__name__)",
            "function",
        ),
    ],
)
def test_package_namespace(code, expected):
    assert probe(code) == expected


def test_no_package_source_calls_exec_eval_or_compile():
    calls = []
    for path in sorted((SRC / "semishift").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"exec", "eval", "compile"}
            ):
                calls.append(f"{path.name}:{node.lineno} {node.func.id}")
    assert calls == []
