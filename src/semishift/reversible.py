"""Extending invariant measures on the nonnegative orthant to the lattice.

A measure on configurations over N^d determines, for each finite window
F in Z^d, the mass obtained by sliding F back into the orthant: subtract
the componentwise minimum and evaluate.  For translation-invariant
sources this is independent of the chosen lower bound and defines a
consistent family over all of Z^d.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from operator import sub
from typing import ClassVar, Collection, Protocol

from .algebra import Record
from .errors import (MAX_PATTERNS, MAX_WINDOW_BITS, MembershipError, ValidationError,
                     too_many_patterns)
from .measure import (
    ONE,
    ZERO,
    Alphabetic,
    CheckResult,
    Matrix,
    PatternRecord,
    Product,
    require_distribution,
    require_symbols,
)

# Vectors in Z^d; membership in N^d means every coordinate is nonnegative.
LatticeVector = tuple[int, ...]


class LatticePattern(PatternRecord):
    """Finitely many lattice sites, tuples of one dimension, with symbols."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple((tuple(v), c) for v, c in self.entries))
        super().__post_init__()
        if len({len(v) for v, _ in self.entries}) > 1:
            raise ValueError("pattern sites have mixed dimensions")

    def translated(self, g: LatticeVector) -> "LatticePattern":
        return LatticePattern(
            tuple((tuple(a + b for a, b in zip(v, g, strict=True)), c) for v, c in self.entries)
        )

    def render(self) -> str:
        return "{" + ", ".join(f"{v}={c!r}" for v, c in self.entries) + "}"


class LatticeMeasure(Protocol):
    """Evaluates cylinder patterns whose sites lie in the orthant."""

    d: int
    alphabet: tuple

    def eval(self, pattern: LatticePattern) -> Fraction: ...


def _check_sites(pattern: LatticePattern, d: int) -> None:
    """Refuse a site off the d-dimensional orthant; a measure checks the symbols next."""
    for v, _ in pattern.items():
        if len(v) != d:
            raise ValidationError(f"site {v} does not have dimension {d}")
        if any(x < 0 for x in v):
            raise MembershipError(f"site {v} is outside the nonnegative orthant")


class LatticeBernoulli(Product, Record):
    """Product measure on the orthant."""

    d: int
    alphabet: tuple
    probs: tuple[Fraction, ...]

    def eval(self, pattern: LatticePattern) -> Fraction:
        _check_sites(pattern, self.d)
        return self.product(pattern)


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    size = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(size)), ZERO) for j in range(size))
        for i in range(size)
    )


def _matrix_power(rows: Matrix, n: int) -> Matrix:
    """rows**n by repeated squaring: O(log n) products, no recursion."""
    size = len(rows)
    out = tuple(tuple(ONE if i == j else ZERO for j in range(size)) for i in range(size))
    while n:
        if n & 1:
            out = _matmul(out, rows)
        n >>= 1
        if n:
            rows = _matmul(rows, rows)
    return out


class LatticeMarkov(Alphabetic, Record):
    """Stationary one-dimensional chain: p positive with p P = p."""

    alphabet: tuple
    p: tuple[Fraction, ...]
    P: tuple[tuple[Fraction, ...], ...]

    d: ClassVar[int] = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        n = len(self.alphabet)
        if len(self.p) != n or len(self.P) != n or any(len(r) != n for r in self.P):
            raise ValidationError("p and P must match the alphabet size")
        require_distribution(self.p, "p", positive=True)
        for k, row in enumerate(self.P):
            require_distribution(row, f"P row {k}")
        for l in range(n):
            if sum((self.p[k] * self.P[k][l] for k in range(n)), ZERO) != self.p[l]:
                raise ValidationError("p is not a fixed vector of P")

    @cached_property
    def _step_bits(self) -> int:
        """Bits one step may add to a mass's denominator: log2 of the lcm of P's, rounded up."""
        return (math.lcm(*(x.denominator for row in self.P for x in row)) - 1).bit_length()

    def eval(self, pattern: LatticePattern) -> Fraction:
        """ValidationError refuses a window whose span x step bits passes MAX_WINDOW_BITS
        before any power of P is formed; a 0/1 matrix has 0 step bits."""
        _check_sites(pattern, self.d)
        ks = require_symbols(pattern, self.symbol_index)
        if len(pattern) == 0:
            return ONE
        # (coordinate, symbol position) of each site; the entries are sorted by site
        sites = [(v[0], k) for (v, _), k in zip(pattern.items(), ks)]
        span = sites[-1][0] - sites[0][0]
        if span * self._step_bits > MAX_WINDOW_BITS:
            raise ValidationError(
                f"a window spanning {span} steps is refused: at {self._step_bits} bits a step its "
                f"mass may need {span * self._step_bits} bits, more than {MAX_WINDOW_BITS}"
            )
        pairs = list(zip(sites, sites[1:]))
        powers = {gap: _matrix_power(self.P, gap) for gap in {t - s for (s, _), (t, _) in pairs}}
        first = ONE * self.p[sites[0][1]]
        return math.prod((powers[t - s][k][l] for (s, k), (t, l) in pairs), start=first)


class LatticeTable(Alphabetic, Record):
    """User-supplied masses for the full patterns on a declared box."""

    d: int
    alphabet: tuple
    box: tuple[int, ...]
    table: tuple[tuple[LatticePattern, Fraction], ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.box) != self.d or any(b < 1 for b in self.box):
            raise ValidationError("box must list one positive extent per dimension")
        require_distribution([mass for _, mass in self.table], "table masses")
        size = math.prod(self.box)
        for pat, _ in self.table:
            # the size first, so a huge declared box is never enumerated
            if len(pat) != size or pat.domain() != self._box_sites:
                raise ValidationError(f"table pattern {pat.render()} must fill the box")

    @cached_property
    def _box_sites(self) -> tuple[LatticeVector, ...]:
        return tuple(itertools.product(*map(range, self.box)))

    def eval(self, pattern: LatticePattern) -> Fraction:
        _check_sites(pattern, self.d)
        require_symbols(pattern, self.symbol_index)
        for v, _ in pattern.items():
            if any(x >= b for x, b in zip(v, self.box)):
                raise ValidationError(f"site {v} is outside the declared box {self.box}")
        wanted = pattern.items()
        return sum((mass for pat, mass in self.table if all(pat[v] == c for v, c in wanted)), ZERO)


def lower_bound(window: Collection[LatticeVector]) -> LatticeVector:
    """Componentwise minimum of a nonempty window."""
    if not window:
        raise ValidationError("window must be nonempty")
    return tuple(min(col) for col in zip(*window, strict=True))


def window_measure(measure: LatticeMeasure, pattern: LatticePattern) -> Fraction:
    """Slide the pattern into the orthant and evaluate the source measure.

    The anchor is the componentwise minimum clamped at zero, so a window
    already inside the orthant is evaluated in place.  Every anchor gives
    the same value when the source is invariant; fixing orthant windows
    lets the translation and consistency checks expose sources that are
    not.
    """
    if len(pattern) == 0:
        return ONE
    base = tuple(min(x, 0) for x in lower_bound(pattern.domain()))
    moved = LatticePattern(tuple((tuple(map(sub, v, base)), c) for v, c in pattern.items()))
    return measure.eval(moved)


def window_consistency(measure: LatticeMeasure, window: Collection[LatticeVector],
                       cover: Collection[LatticeVector]) -> CheckResult:
    """Marginalizing the cover back down must reproduce the window mass.

    Every full pattern on the window is checked against its completions on the
    cover, |A|^|cover| patterns in all; ValidationError refuses more than
    MAX_PATTERNS of them before the first evaluation.
    """
    window = tuple(sorted(tuple(v) for v in window))
    cover = tuple(sorted(tuple(v) for v in cover))
    if not set(window) <= set(cover):
        raise ValidationError("the cover must contain the window")
    extra = tuple(v for v in cover if v not in set(window))
    if too_many_patterns(n := len(measure.alphabet), sites := len(window) + len(extra)):
        raise ValidationError(f"a consistency check on {sites} sites is refused: they give "
                              f"{n}^{sites} full patterns, more than {MAX_PATTERNS}")
    for combo in itertools.product(tuple(measure.alphabet), repeat=len(window)):
        pattern = LatticePattern(tuple(zip(window, combo)))
        lhs = window_measure(measure, pattern)
        rhs = ZERO
        for completion in itertools.product(tuple(measure.alphabet), repeat=len(extra)):
            rhs += window_measure(
                measure, LatticePattern(pattern.items() + tuple(zip(extra, completion)))
            )
        if lhs != rhs:
            return CheckResult(
                False,
                f"pattern {pattern.render()} has mass {lhs} but its completions "
                f"over {extra} sum to {rhs}",
            )
    return CheckResult(True)


def window_translation_invariance(
    measure: LatticeMeasure, pattern: LatticePattern, g: LatticeVector
) -> CheckResult:
    """Compare a window pattern with its g-translate."""
    lhs = window_measure(measure, pattern)
    rhs = window_measure(measure, pattern.translated(g))
    if lhs != rhs:
        return CheckResult(False, f"{pattern.render()} has mass {lhs}, its {g}-translate {rhs}")
    return CheckResult(True)
