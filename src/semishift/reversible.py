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
from typing import ClassVar, Collection, Iterable, Mapping, Protocol

from .algebra import Record
from .errors import MembershipError, ValidationError, shown
from .measure import (
    ONE,
    ZERO,
    CheckResult,
    Matrix,
    require_distinct_sites,
    require_distinct_symbols,
    require_distribution,
)

# Vectors in Z^d; membership in N^d means every coordinate is nonnegative.
LatticeVector = tuple[int, ...]


def vec_add(u: LatticeVector, v: LatticeVector) -> LatticeVector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: LatticeVector, v: LatticeVector) -> LatticeVector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


class LatticePattern(Record):
    """Finitely many lattice sites with symbols."""

    entries: tuple[tuple[LatticeVector, object], ...]

    def __post_init__(self) -> None:
        keys = [v for v, _ in self.entries]
        require_distinct_sites(keys)
        dims = {len(v) for v in keys}
        if len(dims) > 1:
            raise ValueError("pattern sites have mixed dimensions")
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @classmethod
    def of(
        cls, assignment: Mapping[LatticeVector, object] | Iterable[tuple[LatticeVector, object]]
    ) -> "LatticePattern":
        items = assignment.items() if isinstance(assignment, Mapping) else assignment
        return cls(tuple((tuple(v), c) for v, c in items))

    def domain(self) -> tuple[LatticeVector, ...]:
        return tuple(v for v, _ in self.entries)

    def items(self) -> tuple[tuple[LatticeVector, object], ...]:
        return self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def translated(self, g: LatticeVector) -> "LatticePattern":
        return LatticePattern(tuple((vec_add(v, g), c) for v, c in self.entries))

    def render(self) -> str:
        return "{" + ", ".join(f"{v}={c!r}" for v, c in self.entries) + "}"


class LatticeMeasure(Protocol):
    """Evaluates cylinder patterns whose sites lie in the orthant."""

    d: int
    alphabet: tuple

    def eval(self, pattern: LatticePattern) -> Fraction: ...


def _check_pattern(pattern: LatticePattern, d: int, alphabet: tuple) -> None:
    """Refuse a site off the d-dimensional orthant, then a symbol off the alphabet."""
    for v, _ in pattern.items():
        if len(v) != d:
            raise ValidationError(f"site {v} does not have dimension {d}")
        if any(x < 0 for x in v):
            raise MembershipError(f"site {v} is outside the nonnegative orthant")
    for _, c in pattern.items():
        if c not in alphabet:
            raise ValidationError(f"symbol {shown(c)} is not in the alphabet")


class LatticeBernoulli(Record):
    """Product measure on the orthant."""

    d: int
    alphabet: tuple
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        require_distinct_symbols(self.alphabet)
        if len(self.probs) != len(self.alphabet):
            raise ValidationError("one probability per alphabet symbol required")
        require_distribution(self.probs, "probabilities")

    def eval(self, pattern: LatticePattern) -> Fraction:
        _check_pattern(pattern, self.d, self.alphabet)
        out = ONE
        for _, c in pattern.items():
            out *= self.probs[self.alphabet.index(c)]
        return out


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


class LatticeMarkov(Record):
    """Stationary one-dimensional chain: p positive with p P = p."""

    alphabet: tuple
    p: tuple[Fraction, ...]
    P: tuple[tuple[Fraction, ...], ...]

    d: ClassVar[int] = 1

    def __post_init__(self) -> None:
        require_distinct_symbols(self.alphabet)
        n = len(self.alphabet)
        if len(self.p) != n or len(self.P) != n or any(len(r) != n for r in self.P):
            raise ValidationError("p and P must match the alphabet size")
        require_distribution(self.p, "p", positive=True)
        for k, row in enumerate(self.P):
            require_distribution(row, f"P row {k}")
        for l in range(n):
            if sum((self.p[k] * self.P[k][l] for k in range(n)), ZERO) != self.p[l]:
                raise ValidationError("p is not a fixed vector of P")

    def eval(self, pattern: LatticePattern) -> Fraction:
        _check_pattern(pattern, self.d, self.alphabet)
        if len(pattern) == 0:
            return ONE
        sites = sorted((v[0], self.alphabet.index(c)) for v, c in pattern.items())
        out = ONE * self.p[sites[0][1]]
        for (s, k), (t, l) in zip(sites, sites[1:]):
            out *= _matrix_power(self.P, t - s)[k][l]
        return out


class LatticeTable(Record):
    """User-supplied masses for the full patterns on a declared box."""

    d: int
    alphabet: tuple
    box: tuple[int, ...]
    table: tuple[tuple[LatticePattern, Fraction], ...]

    def __post_init__(self) -> None:
        require_distinct_symbols(self.alphabet)
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
        _check_pattern(pattern, self.d, self.alphabet)
        for v, _ in pattern.items():
            if any(x >= b for x, b in zip(v, self.box)):
                raise ValidationError(f"site {v} is outside the declared box {self.box}")
        wanted = dict(pattern.items())
        total = ZERO
        for pat, mass in self.table:
            full = dict(pat.items())
            if all(full[v] == c for v, c in wanted.items()):
                total += mass
        return total


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
    moved = LatticePattern(tuple((vec_sub(v, base), c) for v, c in pattern.items()))
    return measure.eval(moved)


def window_consistency(
    measure: LatticeMeasure,
    window: Collection[LatticeVector],
    cover: Collection[LatticeVector],
    trials: int,
) -> CheckResult:
    """Marginalizing the cover back down must reproduce the window mass.

    Every full pattern on the window is checked; a window with more than
    ``trials`` patterns is refused with ValidationError.
    """
    window = tuple(sorted(tuple(v) for v in window))
    cover = tuple(sorted(tuple(v) for v in cover))
    if not set(window) <= set(cover):
        raise ValidationError("the cover must contain the window")
    count = len(measure.alphabet) ** len(window)
    if count > trials:
        raise ValidationError(f"the window has {count} patterns, more than trials = {trials}")
    extra = tuple(v for v in cover if v not in set(window))
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
        return CheckResult(
            False, f"{pattern.render()} has mass {lhs}, its {g}-translate {rhs}"
        )
    return CheckResult(True)
