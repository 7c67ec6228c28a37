"""Exact arithmetic for shift actions of finitely generated free
subsemigroups: invariant Markov chains on generator trees, periodic
orbits through finite automata, markovization of cylinder measures, and
window measures on lattice orthants.
"""

import importlib
import types

from .algebra import (
    EPSILON,
    Edge,
    GeneratorSet,
    Symbol,
    Tree,
    Word,
    ball,
    in_semigroup,
    parse_word,
    sorted_ball,
    sorted_words,
    tree_hull,
    word_mul,
    word_to_string,
)
from .errors import (
    BudgetExhausted,
    DeltaOutOfRange,
    EmptyWord,
    FactorizationError,
    InvalidChain,
    MembershipError,
    NonInvertibleModP,
    NoWitness,
    NotInvariant,
    NotPeriodic,
    OracleNotNormalized,
    ParseError,
    SemishiftError,
    SigmaIncomplete,
    ValidationError,
)
from .fold import ChainDiagnostics, eval_constrained, validate_chain
# `markovize` is imported here, not on first use: importing the submodule
# later would rebind the package attribute `semishift.markovize` from the
# function to the module.
from .markovize import (
    BlockAlphabet,
    MarkovizationResult,
    MarkovizedMeasure,
    markovization_consistency,
    markovize,
    support_alphabet,
)
from .measure import (
    BernoulliMeasure,
    CheckResult,
    CylinderMeasure,
    MarkovTreeChain,
    MixtureMeasure,
    Pattern,
    all_patterns,
    eval_cylinder,
    extend_chain,
    is_invariant_chain,
    pushforward_check,
    shift_invariance_check,
    weak_star_distance,
)

__version__ = "0.1.0"

# The Theorem-E, orbit and lattice names, each listed under its module and
# loaded on first access (PEP 562), so that `import semishift` compiles only
# the chain path.
_LAZY = {
    name: module
    for module, names in {
        "counterexample": ("CounterexampleReport", "counterexample_analyze", "counterexample_chain"),
        "orbit": (
            "OrbitAutomaton", "PeriodicMeasure", "find_separating_morphism",
            "is_periodic", "is_transitive", "lift_to_group", "minimized", "orbit_size",
            "periodic_measure_eval", "readout", "theorem_a_point", "transformation_monoid",
        ),
        "reversible": (
            "LatticeBernoulli", "LatticeMarkov", "LatticeMeasure", "LatticePattern",
            "LatticeTable", "lower_bound", "window_consistency", "window_measure",
            "window_translation_invariance",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


# __all__: every global not starting with "_" that is not a module, plus _LAZY.
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    + list(_LAZY)
)
