"""Higher-block recoding of an arbitrary cylinder measure to a chain.

The order-m blocks of a measure are the positive-mass full patterns on
the m-ball of S.  Reading a configuration through the sliding m-block
window turns the measure into a chain over the block alphabet whose
single-site marginals are the block masses and whose transition along a
generator is the conditioned mass of the joint pattern on the ball and
its translate.  Pulling the block chain back through the window is done
symbolically: a constraint at site s allows every block whose symbol at
the identity matches, so no configurations are ever materialized.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .algebra import EPSILON, GeneratorSet, Record, Word, in_semigroup, scan_layout
from .errors import MAX_PATTERNS, MembershipError, OracleNotNormalized, ValidationError
from .measure import (
    ZERO,
    CheckResult,
    ChainDiagnostics,
    CylinderMeasure,
    MarkovTreeChain,
    Pattern,
    _pattern_at,
    eval_constrained,
    is_invariant_chain,
    pattern_masses,
    require_distinct_symbols,
    require_pattern,
)


class BlockAlphabet(Record):
    """Positive-mass full patterns on the m-ball, with their masses."""

    order: int
    sites: tuple[Word, ...]
    blocks: tuple[Pattern, ...]
    masses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        require_distinct_symbols(self.blocks, "blocks")
        if len(self.blocks) != len(self.masses):
            raise ValueError("one mass per block required")
        for b, m in zip(self.blocks, self.masses):
            if b.domain() != self.sites:
                raise ValueError(f"block {b.render()} is not a full pattern")
            if m <= 0:
                raise ValueError(f"block {b.render()} has nonpositive mass {m}")

    def __len__(self) -> int:
        return len(self.blocks)


def support_alphabet(measure: CylinderMeasure, order: int) -> BlockAlphabet:
    """Enumerate the order-m blocks the measure actually charges."""
    sites = scan_layout(measure.gs, order, len(measure.alphabet))[0]
    numerators, denominator = pattern_masses(measure, sites)
    charged = [(i, x) for i, x in enumerate(numerators) if x > 0]
    blocks = tuple(_pattern_at(sites, measure.alphabet, i) for i, _ in charged)
    return BlockAlphabet(order, sites, blocks, tuple(Fraction(x, denominator) for _, x in charged))


class MarkovizationResult(Record):
    """Block chain plus its structural and invariance check results."""

    chain: MarkovTreeChain
    blocks: BlockAlphabet
    base_alphabet: tuple
    diagnostics: ChainDiagnostics
    invariance: CheckResult


def markovize(measure: CylinderMeasure, order: int) -> MarkovizationResult:
    """Recode a measure as a chain over its order-m block alphabet.

    The chain names block i ``B{i}``, in the order of ``blocks``.
    Transition masses condition the joint pattern on the ball union its
    translate; blocks whose overlap disagrees get mass zero.  A
    non-invariant source measure is not an error: the result simply
    reports the failed invariance check.  ValidationError refuses, before
    the first union, more than MAX_PATTERNS block pairs over all generators.
    """
    ba = support_alphabet(measure, order)
    total = sum(ba.masses, ZERO)
    if total != 1:
        raise OracleNotNormalized(f"block masses sum to {total}, not 1")
    pairs = len(ba) ** 2 * len(measure.gs.sigma)
    if pairs > MAX_PATTERNS:
        raise ValidationError(
            f"markovize at order {order} is refused: {len(ba)} blocks give {pairs} "
            f"block pairs over {len(measure.gs.sigma)} generators, more than {MAX_PATTERNS}"
        )
    matrices = {}
    for sym in measure.gs.symbols():
        moved = [beta.translated(sym) for beta in ba.blocks]
        rows = []
        for alpha, mass in zip(ba.blocks, ba.masses):
            joints = (alpha.union(beta) for beta in moved)
            rows.append(tuple(ZERO if j is None else measure.eval(j) / mass for j in joints))
        matrices[sym] = tuple(rows)
    names = tuple(f"B{i}" for i in range(len(ba)))
    chain = MarkovTreeChain.make(measure.gs, names, ba.masses, matrices)
    diag = chain.diagnostics
    if diag:
        invariance = is_invariant_chain(chain)
    else:
        invariance = CheckResult(False, "block chain is not structurally valid")
    return MarkovizationResult(
        chain=chain,
        blocks=ba,
        base_alphabet=tuple(measure.alphabet),
        diagnostics=diag,
        invariance=invariance,
    )


class MarkovizedMeasure(Record):
    """The block chain pulled back through the sliding-window recoding."""

    result: MarkovizationResult

    @property
    def gs(self) -> GeneratorSet:
        return self.result.chain.gs

    @property
    def alphabet(self) -> tuple:
        return self.result.base_alphabet

    @cached_property
    def showing(self) -> dict[object, tuple[str, ...]]:
        """Each base symbol's block names: the blocks showing it at the identity."""
        showing: dict[object, list[str]] = {}
        for name, block in zip(self.result.chain.alphabet, self.result.blocks.blocks):
            showing.setdefault(block[EPSILON], []).append(name)
        return {c: tuple(names) for c, names in showing.items()}

    def eval(self, pattern: Pattern) -> Fraction:
        """The pattern's mass; a base symbol no charged block shows gets 0."""
        require_pattern(pattern, self.gs, self.alphabet)
        showing = self.showing
        return eval_constrained(
            self.result.chain, {w: showing.get(c, ()) for w, c in pattern.items()}
        )


def consistency_masses(
    measure: CylinderMeasure,
    order: int,
    pattern: Pattern,
    result: MarkovizationResult | None = None,
) -> tuple[Fraction, Fraction]:
    """The pattern's mass under the recoded chain and under the measure.

    Pattern sites must lie inside the order-m ball; they are checked
    before any block is built.  Pass a precomputed markovization to
    avoid rebuilding the block chain per pattern.
    """
    for w in pattern.domain():
        if len(w) > order or not in_semigroup(w, measure.gs):
            raise MembershipError(
                f"site {w or 'the empty word'} is outside the order-{order} ball"
            )
    if result is None:
        result = markovize(measure, order)
    return MarkovizedMeasure(result).eval(pattern), measure.eval(pattern)


def markovization_consistency(
    measure: CylinderMeasure,
    order: int,
    pattern: Pattern,
    result: MarkovizationResult | None = None,
) -> bool:
    """Does the recoded chain reproduce the measure on a ball pattern?"""
    chain_mass, oracle_mass = consistency_masses(measure, order, pattern, result)
    return chain_mass == oracle_mass
