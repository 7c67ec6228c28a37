"""Markov chains indexed by Cayley trees and exact cylinder measures.

A chain is a positive probability vector p over a finite alphabet plus
one stochastic matrix per generator.  The measure of a fully labelled
tree rooted at the identity is p at the root times one transition factor
per edge; partial patterns are evaluated by marginalizing the
unconstrained hull sites, by dynamic programming from the leaves to the
root.  The dynamic program runs in integers: every entry of p and of the
matrices is scaled by D, the lcm of their denominators, and the result
is divided by D to the number of hull vertices once at the end, so it
stays exact.

The invariance conditions are algebraic: p must be a left fixed vector
of every transition matrix, and whenever Sigma contains a generator
together with its inverse, the two matrices must be in detailed balance
through p.  These two conditions are a finite certificate for shift
invariance of the whole measure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Collection, Iterable, Iterator, Mapping, Protocol, Sequence

from .algebra import (
    GeneratorSet,
    Symbol,
    Word,
    _ancestor_closure,
    ball,
    require_in_semigroup,
    sorted_words,
    word_mul,
)
from .errors import (
    DeltaOutOfRange,
    EmptyWord,
    InvalidChain,
    NonInvertibleModP,
    NotInvariant,
    NoWitness,
    SigmaIncomplete,
    ValidationError,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Pattern:
    """A finite partial configuration: finitely many sites with symbols."""

    entries: tuple[tuple[Word, object], ...]

    def __post_init__(self) -> None:
        keys = [w for w, _ in self.entries]
        if len(set(keys)) != len(keys):
            raise ValueError("pattern has a repeated site")
        canonical = tuple(sorted(self.entries, key=lambda e: e[0].key()))
        object.__setattr__(self, "entries", canonical)

    @classmethod
    def of(cls, assignment: Mapping[Word, object] | Iterable[tuple[Word, object]]) -> "Pattern":
        items = assignment.items() if isinstance(assignment, Mapping) else assignment
        return cls(tuple(items))

    def domain(self) -> tuple[Word, ...]:
        return tuple(w for w, _ in self.entries)

    def items(self) -> tuple[tuple[Word, object], ...]:
        return self.entries

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def _lookup(self) -> dict[Word, object]:
        return dict(self.entries)

    def __contains__(self, w: Word) -> bool:
        return w in self._lookup

    def __getitem__(self, w: Word) -> object:
        return self._lookup[w]

    def with_entry(self, w: Word, symbol: object) -> "Pattern":
        return Pattern(self.entries + ((w, symbol),))

    def translated(self, a: Symbol) -> "Pattern":
        """Keys move to t*a: the pattern seen by the a-shifted configuration."""
        shift = Word((a,))
        return Pattern(tuple((word_mul(w, shift), c) for w, c in self.entries))

    def union(self, other: "Pattern") -> "Pattern | None":
        """Combined pattern, or None if the overlap disagrees."""
        merged = dict(self.entries)
        for w, c in other.entries:
            if w in merged and merged[w] != c:
                return None
            merged[w] = c
        return Pattern(tuple(merged.items()))

    def render(self) -> str:
        return "{" + ", ".join(f"{w or 'e'}={c!r}" for w, c in self.entries) + "}"


def require_distinct_symbols(symbols: Sequence, what: str = "alphabet") -> None:
    """Refuse an empty list, an unhashable symbol or a repeated one."""
    try:
        distinct = len(set(symbols)) == len(symbols)
    except TypeError as exc:
        raise ValidationError(f"{what} symbols must be hashable: {exc}") from None
    if not (symbols and distinct):
        raise ValidationError(f"{what} must be nonempty without repeats")


def require_distribution(values: Sequence, what: str, positive: bool = False) -> None:
    """Refuse an inexact entry (anything but an int or a Fraction), a negative
    entry (a zero one too if ``positive``) and a sum other than 1."""
    for x in values:
        if type(x) is not int and not isinstance(x, Fraction):
            raise ValidationError(f"{what} must be ints or Fractions, got {x!r}")
    sign = "positive" if positive else "nonnegative"
    if any(x <= 0 if positive else x < 0 for x in values) or sum(values, ZERO) != 1:
        raise ValidationError(f"{what} must be {sign} and sum to 1")


class CylinderMeasure(Protocol):
    """Anything that evaluates cylinder patterns over a fixed S exactly."""

    gs: GeneratorSet
    alphabet: tuple

    def eval(self, pattern: Pattern) -> Fraction: ...


@dataclass(frozen=True)
class CheckResult:
    """Boolean outcome with a witness description on failure."""

    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ChainDiagnostics:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


Matrix = tuple[tuple[Fraction, ...], ...]
IntRows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MarkovTreeChain:
    """Alphabet, initial vector p, and one transition matrix per generator."""

    gs: GeneratorSet
    alphabet: tuple
    p: tuple[Fraction, ...]
    transitions: tuple[tuple[Symbol, Matrix], ...]

    def __post_init__(self) -> None:
        require_distinct_symbols(self.alphabet)
        n = len(self.alphabet)
        if len(self.p) != n:
            raise ValueError(f"p has length {len(self.p)}, alphabet has {n} symbols")
        keys = [s for s, _ in self.transitions]
        if set(keys) != set(self.gs.sigma) or len(keys) != len(self.gs.sigma):
            raise ValueError("transitions must cover Sigma exactly")
        for s, rows in self.transitions:
            if len(rows) != n or any(len(row) != n for row in rows):
                raise ValueError(f"P[{s}] is not {n}x{n}")

    @classmethod
    def make(
        cls,
        gs: GeneratorSet,
        alphabet: Sequence,
        p: Sequence,
        matrices: Mapping,
    ) -> "MarkovTreeChain":
        """Build a chain, coercing entries to Fraction and canonicalizing keys."""
        trans = []
        for key, rows in matrices.items():
            sym = key if isinstance(key, Symbol) else Symbol.from_signed(int(key))
            trans.append((sym, tuple(tuple(Fraction(x) for x in row) for row in rows)))
        trans.sort(key=lambda item: item[0].key())
        return cls(
            gs=gs,
            alphabet=tuple(alphabet),
            p=tuple(Fraction(x) for x in p),
            transitions=tuple(trans),
        )

    @cached_property
    def matrix(self) -> dict[Symbol, Matrix]:
        return dict(self.transitions)

    @cached_property
    def symbol_index(self) -> dict[object, int]:
        return {c: i for i, c in enumerate(self.alphabet)}

    @cached_property
    def integer_form(self) -> tuple[int, tuple[int, ...], dict[Symbol, IntRows]]:
        """(D, D*p, D*P[g] per generator), D the lcm of every denominator."""
        entries = [*self.p, *(x for _, rows in self.transitions for row in rows for x in row)]
        scale = math.lcm(*(Fraction(x).denominator for x in entries))

        def scaled(xs) -> tuple[int, ...]:
            return tuple(int(x * scale) for x in xs)

        return (
            scale,
            scaled(self.p),
            {s: tuple(scaled(row) for row in rows) for s, rows in self.transitions},
        )

    @cached_property
    def diagnostics(self) -> ChainDiagnostics:
        return validate_chain(self)

    def eval(self, pattern: Pattern) -> Fraction:
        return eval_cylinder(self, pattern)

    def masses(self, sites: Sequence[Word]) -> list[Fraction]:
        """Every full pattern's mass on the sites, in ``itertools.product`` order.

        One root-first expansion over the hull labels each vertex in
        turn: prefixes share their products, zero entries end a branch,
        and hull vertices that are not sites are summed out by adding
        every completion into the same entry.
        """
        _require_valid(self)
        hull = sorted(_ancestor_closure(sites, self.gs), key=len)
        scale, p, matrices = self.integer_form
        n = len(p)
        position = {t: i for i, t in enumerate(hull)}
        stride = [0] * len(hull)
        for j, w in enumerate(reversed(sites)):
            stride[position[w.letters]] = n**j
        up = [position[t[1:]] for t in hull[1:]]
        steps = [matrices[t[0]] for t in hull[1:]]
        labels = [0] * len(hull)
        out = [0] * n ** len(sites)

        def expand(i: int, row: Sequence[int], weight: int, index: int) -> None:
            for x, f in enumerate(row):
                if f:
                    if i == len(up):
                        out[index + x * stride[i]] += weight * f
                    else:
                        labels[i] = x
                        expand(i + 1, steps[i][labels[up[i]]], weight * f, index + x * stride[i])

        expand(0, p, 1, 0)
        denominator = scale ** len(hull)
        return [Fraction(x, denominator) for x in out]


def validate_chain(chain: MarkovTreeChain) -> ChainDiagnostics:
    """Report every violated structural invariant, with indices."""
    problems: list[str] = []
    for k, x in enumerate(chain.p):
        if x <= 0:
            problems.append(f"p[{k}] = {x} is not positive")
    total = sum(chain.p, ZERO)
    if total != 1:
        problems.append(f"sum(p) = {total} != 1")
    for sym, rows in chain.transitions:
        for k, row in enumerate(rows):
            for l, x in enumerate(row):
                if x < 0:
                    problems.append(f"P[{sym}][{k}][{l}] = {x} is negative")
            s = sum(row, ZERO)
            if s != 1:
                problems.append(f"P[{sym}] row {k} sums to {s} != 1")
    return ChainDiagnostics(tuple(problems))


def _require_valid(chain: MarkovTreeChain) -> None:
    if not chain.diagnostics:
        raise InvalidChain("; ".join(chain.diagnostics.problems))


def is_invariant_chain(chain: MarkovTreeChain) -> CheckResult:
    """Finite certificate for shift invariance of the chain's measure.

    Requires p P^a = p for every a in Sigma and, for every inverse pair
    inside Sigma, detailed balance p_k P^{a^-1}[k][l] = p_l P^a[l][k].
    """
    _require_valid(chain)
    syms = chain.gs.symbols()
    for sym in syms:
        rows = chain.matrix[sym]
        for l in range(len(chain.alphabet)):
            lhs = sum((chain.p[k] * rows[k][l] for k in range(len(chain.p))), ZERO)
            if lhs != chain.p[l]:
                return CheckResult(
                    False, f"(p P^{sym})[{l}] = {lhs} != p[{l}] = {chain.p[l]}"
                )
    for sym in syms:
        inv = sym.inverse()
        if sym.sign > 0 and inv in chain.gs.sigma:
            fwd, bwd = chain.matrix[sym], chain.matrix[inv]
            for k in range(len(chain.p)):
                for l in range(len(chain.p)):
                    lhs = chain.p[k] * bwd[k][l]
                    rhs = chain.p[l] * fwd[l][k]
                    if lhs != rhs:
                        return CheckResult(
                            False,
                            f"balance fails: p[{k}] P^{inv}[{k}][{l}] = {lhs} "
                            f"!= p[{l}] P^{sym}[{l}][{k}] = {rhs}",
                        )
    return CheckResult(True)


def _constraint_indices(
    chain: MarkovTreeChain, constraints: Mapping[Word, Collection]
) -> dict[Word, frozenset[int]]:
    index = chain.symbol_index
    out: dict[Word, frozenset[int]] = {}
    for w, allowed in constraints.items():
        idxs = []
        for c in allowed:
            if c not in index:
                raise ValidationError(f"symbol {c!r} is not in the chain alphabet")
            idxs.append(index[c])
        out[w] = frozenset(idxs)
    return out


def eval_constrained(
    chain: MarkovTreeChain, constraints: Mapping[Word, Collection]
) -> Fraction:
    """Measure of the event that each site's symbol lies in its allowed set.

    Generalizes cylinder evaluation; unordered sites not mentioned are
    unconstrained hull vertices and get marginalized.
    """
    _require_valid(chain)
    allowed = _constraint_indices(chain, constraints)
    hull = _ancestor_closure(allowed, chain.gs)
    scale, p, matrices = chain.integer_form
    n = len(p)
    # Each row is D^(size of its subtree - 1) times the exact row.
    rows = {w.letters: [1 if k in ok else 0 for k in range(n)] for w, ok in allowed.items()}
    # Leaves first, each vertex folding its finished row into its parent's;
    # the identity sorts last and has no parent.
    for t in sorted(hull, key=len, reverse=True)[:-1]:
        sub = rows[t]
        parent = rows.get(t[1:])
        if parent is None:
            parent = rows[t[1:]] = [1] * n
        weights = matrices[t[0]]
        for k, x in enumerate(parent):
            if x:
                parent[k] = x * sum(map(mul, weights[k], sub))
    root = rows.get((), [1] * n)
    return Fraction(sum(map(mul, p, root)), scale ** len(hull))


def eval_cylinder(chain: MarkovTreeChain, pattern: Pattern) -> Fraction:
    """Exact measure of the cylinder fixing the pattern's sites."""
    return eval_constrained(chain, {w: (c,) for w, c in pattern.items()})


def all_patterns(sites: Iterable[Word], alphabet: Sequence) -> Iterator[Pattern]:
    """Every full pattern on the given sites, in deterministic order."""
    ordered = sorted_words(sites)
    for combo in itertools.product(tuple(alphabet), repeat=len(ordered)):
        yield Pattern(tuple(zip(ordered, combo)))


def pattern_masses(measure: CylinderMeasure, sites: Sequence[Word]) -> Iterable[Fraction]:
    """The mass of every full pattern on the ordered sites.

    Patterns run in ``itertools.product(measure.alphabet, repeat=len(sites))``
    order, the first site varying slowest.  A measure with a ``masses``
    method computes the whole list in one pass; any other measure is
    evaluated pattern by pattern, lazily, so a scan that stops at its
    first witness evaluates nothing after it.
    """
    sites = tuple(sites)
    if len(set(sites)) != len(sites):
        raise ValueError("pattern has a repeated site")
    batched = getattr(measure, "masses", None)
    if batched is not None:
        return batched(sites)
    return _eval_each(measure, sites, measure.alphabet)


def _eval_each(
    measure: CylinderMeasure, sites: Sequence[Word], alphabet: Sequence
) -> Iterator[Fraction]:
    for combo in itertools.product(tuple(alphabet), repeat=len(sites)):
        yield measure.eval(Pattern(tuple(zip(sites, combo))))


def _pattern_at(sites: Sequence[Word], alphabet: Sequence, i: int) -> Pattern:
    """The i-th full pattern on the sites in ``itertools.product`` order."""
    combo = []
    for _ in sites:
        i, x = divmod(i, len(alphabet))
        combo.append(alphabet[x])
    return Pattern(tuple(zip(sites, reversed(combo))))


def _first_difference(lhs: Iterable[Fraction], rhs: Iterable[Fraction]):
    """(index, lhs, rhs) of the first entry where the two differ, or None."""
    for i, (x, y) in enumerate(zip(lhs, rhs)):
        if x != y:
            return i, x, y
    return None


def shift_invariance_check(
    measure: CylinderMeasure, a: Symbol, r: int
) -> CheckResult:
    """Compare every pattern on B_r with its a-translate, radius by radius."""
    shift = Word((a,))
    for rr in range(r + 1):
        sites = sorted_words(ball(measure.gs, rr))
        moved = [word_mul(w, shift) for w in sites]
        diff = _first_difference(pattern_masses(measure, sites), pattern_masses(measure, moved))
        if diff is not None:
            i, lhs, rhs = diff
            pattern = _pattern_at(sites, measure.alphabet, i)
            return CheckResult(
                False,
                f"pattern {pattern.render()} has measure {lhs}, "
                f"its {a}-translate {rhs}",
            )
    return CheckResult(True)


def extend_chain(chain: MarkovTreeChain) -> MarkovTreeChain:
    """Extend an invariant chain over Sigma to all signed generators.

    Requires every positive generator to be present.  Matrices for the
    missing inverses are the time reversals (p_l / p_k) P^{a^-1}[l][k];
    the result is invariant over the full signed generator set and its
    cylinder measure restricts back to the original on S.
    """
    inv = is_invariant_chain(chain)
    if not inv:
        raise NotInvariant(inv.witness or "chain is not invariant")
    if not chain.gs.covers_positive():
        missing = [
            str(Symbol(i, 1))
            for i in range(1, chain.gs.d + 1)
            if Symbol(i, 1) not in chain.gs.sigma
        ]
        raise SigmaIncomplete(f"Sigma lacks positive generators: {', '.join(missing)}")
    full = chain.gs.extended()
    n = len(chain.alphabet)
    matrices: dict[Symbol, Matrix] = dict(chain.transitions)
    for sym in full.sigma - chain.gs.sigma:
        source = chain.matrix[sym.inverse()]
        matrices[sym] = tuple(
            tuple(chain.p[l] / chain.p[k] * source[l][k] for l in range(n))
            for k in range(n)
        )
    return MarkovTreeChain.make(full, chain.alphabet, chain.p, matrices)


def pushforward_check(
    extended: MarkovTreeChain, original: MarkovTreeChain, r: int
) -> CheckResult:
    """Do the two chains agree on every full pattern over the original B_r?"""
    sites = sorted_words(ball(original.gs, r))
    if tuple(extended.alphabet) == tuple(original.alphabet):
        lhs, rhs = pattern_masses(extended, sites), pattern_masses(original, sites)
    else:
        # Symbols are matched by name, pattern by pattern, as eval matches them.
        lhs, rhs = (_eval_each(m, sites, original.alphabet) for m in (extended, original))
    diff = _first_difference(lhs, rhs)
    if diff is None:
        return CheckResult(True)
    i, x, y = diff
    pattern = _pattern_at(sites, original.alphabet, i)
    return CheckResult(
        False, f"pattern {pattern.render()}: extended gives {x}, original {y}"
    )


def weak_star_distance(
    m1: CylinderMeasure, m2: CylinderMeasure, order: int
) -> Fraction:
    """Total variation over full patterns on the order-ball of S."""
    if m1.gs != m2.gs:
        raise ValidationError("measures live over different generator sets")
    if tuple(m1.alphabet) != tuple(m2.alphabet):
        raise ValidationError("measures have different alphabets")
    sites = sorted_words(ball(m1.gs, order))
    return sum(
        (abs(x - y) for x, y in zip(pattern_masses(m1, sites), pattern_masses(m2, sites))),
        ZERO,
    )


@dataclass(frozen=True)
class BernoulliMeasure:
    """Product measure: independent sites, identical marginals."""

    gs: GeneratorSet
    alphabet: tuple
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        require_distinct_symbols(self.alphabet)
        if len(self.probs) != len(self.alphabet):
            raise ValidationError("one probability per alphabet symbol required")
        require_distribution(self.probs, "probabilities")

    @cached_property
    def _index(self) -> dict[object, int]:
        return {c: i for i, c in enumerate(self.alphabet)}

    def eval(self, pattern: Pattern) -> Fraction:
        out = ONE
        for w, c in pattern.items():
            require_in_semigroup(w, self.gs)
            if c not in self._index:
                raise ValidationError(f"symbol {c!r} is not in the alphabet")
            out *= self.probs[self._index[c]]
        return out

    def masses(self, sites: Sequence[Word]) -> list[Fraction]:
        """Every full pattern's mass on the sites, as iterated outer products."""
        for w in sites:
            require_in_semigroup(w, self.gs)
        out = [ONE]
        for _ in sites:
            out = [x * q for x in out for q in self.probs]
        return out


@dataclass(frozen=True)
class MixtureMeasure:
    """Finite convex combination of measures over the same S and alphabet."""

    components: tuple
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights) or not self.components:
            raise ValidationError("need matching, nonempty components and weights")
        require_distribution(self.weights, "weights", positive=True)
        first = self.components[0]
        for m in self.components[1:]:
            if m.gs != first.gs or tuple(m.alphabet) != tuple(first.alphabet):
                raise ValidationError("mixture components must share S and alphabet")

    @property
    def gs(self) -> GeneratorSet:
        return self.components[0].gs

    @property
    def alphabet(self) -> tuple:
        return tuple(self.components[0].alphabet)

    def eval(self, pattern: Pattern) -> Fraction:
        return sum(
            (w * m.eval(pattern) for w, m in zip(self.weights, self.components)),
            ZERO,
        )

    def masses(self, sites: Sequence[Word]) -> list[Fraction]:
        """Every full pattern's mass on the sites: the weighted sum of the components' lists."""
        columns = [pattern_masses(m, sites) for m in self.components]
        return [sum(map(mul, self.weights, column), ZERO) for column in zip(*columns)]


# -- Theorem-E style family: a chain that is invariant over the free
# -- semigroup but provably inconsistent with any extension to the group.

IntMatrix = tuple[tuple[int, int], tuple[int, int]]


def _mat_mod(m: Sequence[Sequence[int]], p: int) -> IntMatrix:
    return tuple(tuple(int(x) % p for x in row) for row in m)  # type: ignore[return-value]


def _mat_mul_mod(x: IntMatrix, y: IntMatrix, p: int) -> IntMatrix:
    return (
        (
            (x[0][0] * y[0][0] + x[0][1] * y[1][0]) % p,
            (x[0][0] * y[0][1] + x[0][1] * y[1][1]) % p,
        ),
        (
            (x[1][0] * y[0][0] + x[1][1] * y[1][0]) % p,
            (x[1][0] * y[0][1] + x[1][1] * y[1][1]) % p,
        ),
    )


def _mat_inv_mod(x: IntMatrix, p: int) -> IntMatrix:
    det = (x[0][0] * x[1][1] - x[0][1] * x[1][0]) % p
    if det == 0:
        raise NonInvertibleModP(f"matrix {x} is singular mod {p}")
    dinv = pow(det, -1, p)
    return (
        ((x[1][1] * dinv) % p, (-x[0][1] * dinv) % p),
        ((-x[1][0] * dinv) % p, (x[0][0] * dinv) % p),
    )


def _invertible_mod(matrices: Sequence[Sequence[Sequence[int]]], p: int) -> list[IntMatrix]:
    """Each matrix reduced mod p; raises NonInvertibleModP at the first singular one."""
    mods = []
    for m in matrices:
        mods.append(_mat_mod(m, p))
        _mat_inv_mod(mods[-1], p)
    return mods


def _apply_mod(m: IntMatrix, v: tuple[int, int], p: int) -> tuple[int, int]:
    return ((m[0][0] * v[0] + m[0][1] * v[1]) % p, (m[1][0] * v[0] + m[1][1] * v[1]) % p)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def counterexample_chain(
    matrices: Sequence[Sequence[Sequence[int]]], prime: int, delta: Fraction
) -> MarkovTreeChain:
    """Invariant chain on pairs mod p driven by linear maps.

    The alphabet is (Z_p)^2; generator a_i sends symbol u to A_i u mod p
    with probability 1 - (p^2 - 1) delta and to each other symbol with
    probability delta.  Each matrix must be invertible mod p, and delta
    must lie strictly between 0 and 1/(p^2 - 1).
    """
    if not _is_prime(prime):
        raise ValidationError(f"{prime} is not prime")
    if not matrices:
        raise ValidationError("need at least one matrix")
    delta = Fraction(delta)
    hi = Fraction(1, prime * prime - 1)
    if not (0 < delta < hi):
        raise DeltaOutOfRange(f"delta must satisfy 0 < delta < {hi}, got {delta}")
    mods = _invertible_mod(matrices, prime)
    alphabet = tuple((i, j) for i in range(prime) for j in range(prime))
    n = len(alphabet)
    stay = 1 - (n - 1) * delta
    p_vec = [Fraction(1, n)] * n
    mats: dict[Symbol, Matrix] = {}
    for gen_index, m in enumerate(mods, start=1):
        rows = []
        for u in alphabet:
            image = _apply_mod(m, u, prime)
            rows.append(tuple(stay if v == image else delta for v in alphabet))
        mats[Symbol(gen_index, 1)] = tuple(rows)
    gs = GeneratorSet(len(mods), frozenset(Symbol(i, 1) for i in range(1, len(mods) + 1)))
    return MarkovTreeChain.make(gs, alphabet, p_vec, mats)


@dataclass(frozen=True)
class CounterexampleReport:
    """Obstruction data for extending the chain along a kernel word.

    Any group extension would force single_site_mass <= bound_coefficient
    times delta; every delta below threshold violates that inequality, so
    no extension exists for such delta.
    """

    word: Word
    prime: int
    matrix_mod_p: IntMatrix
    witness: tuple[int, int]
    witness_image: tuple[int, int]
    cycle_length: int
    threshold: Fraction
    single_site_mass: Fraction
    bound_coefficient: Fraction

    def violated_by(self, delta: Fraction) -> bool:
        return self.single_site_mass > self.bound_coefficient * Fraction(delta)


def counterexample_analyze(
    matrices: Sequence[Sequence[Sequence[int]]], kernel_word: Word, prime: int
) -> CounterexampleReport:
    """Evaluate the kernel word mod p and brute-force a moved vector.

    The word indexes into the matrix list; negative letters use inverses
    mod p.  A vector moved by the product certifies that the deterministic
    part of the chain is inconsistent along the word's cycle, with the
    quantitative threshold 1 / p^(2n - 2) on delta.
    """
    if not _is_prime(prime):
        raise ValidationError(f"{prime} is not prime")
    if len(kernel_word) == 0:
        raise EmptyWord("kernel word must be nonempty")
    mods = _invertible_mod(matrices, prime)
    for s in kernel_word.letters:
        if s.index > len(mods):
            raise ValidationError(f"letter {s} has no matrix (got {len(mods)})")
    product: IntMatrix = ((1, 0), (0, 1))
    for s in kernel_word.letters:
        m = mods[s.index - 1]
        if s.sign < 0:
            m = _mat_inv_mod(m, prime)
        product = _mat_mul_mod(product, m, prime)
    witness = None
    for y in range(prime):
        for x in range(prime):
            v = (x, y)
            if _apply_mod(product, v, prime) != v:
                witness = v
                break
        if witness is not None:
            break
    if witness is None:
        raise NoWitness(
            f"the word acts as the identity mod {prime}; choose a larger prime"
        )
    n = len(kernel_word)
    return CounterexampleReport(
        word=kernel_word,
        prime=prime,
        matrix_mod_p=product,
        witness=witness,
        witness_image=_apply_mod(product, witness, prime),
        cycle_length=n,
        threshold=Fraction(1, prime ** (2 * n - 2)),
        single_site_mass=Fraction(1, prime * prime),
        bound_coefficient=Fraction(prime) ** (2 * n - 4),
    )
