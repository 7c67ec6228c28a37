"""Markov chains indexed by Cayley trees, cylinder measures and ball scans.

A chain is a positive probability vector p over a finite alphabet plus
one stochastic matrix per generator.  The measure of a fully labelled
tree rooted at the identity is p at the root times one transition factor
per edge; ``fold`` computes the chain's cylinder and ball masses exactly,
in integers.

The invariance conditions are algebraic: p must be a left fixed vector
of every transition matrix, and whenever Sigma contains a generator
together with its inverse, the two matrices must be in detailed balance
through p.  These two conditions are a finite certificate for shift
invariance of the whole measure.  Every ball scan reads a measure through
``pattern_masses``, and every measure record reads a symbol's position
from its ``symbol_index``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from operator import add, itemgetter, mul, sub
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

from .algebra import (
    GeneratorSet,
    Record,
    Sites,
    Symbol,
    Word,
    require_in_semigroup,
    scan_layout,
    sorted_words,
    word_mul,
)
from .errors import (
    MAX_PATTERNS,
    NotInvariant,
    SigmaIncomplete,
    ValidationError,
    shown,
    too_many_patterns,
)
from .fold import (
    ChainDiagnostics,
    _Constraints,
    _require_valid,
    chain_masses,
    eval_constrained,
    validate_chain,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class PatternRecord(Record):
    """Finitely many distinct sites with symbols, sorted by site.  A subclass says
    what a site is: ``_site_order`` may sort its ``(site, symbol)`` entries another
    way, and its ``__post_init__`` may check the sites further once none is repeated."""

    entries: tuple
    _site_order = itemgetter(0)

    def __post_init__(self) -> None:
        if len({v for v, _ in self.entries}) != len(self.entries):
            raise ValueError("pattern has a repeated site")
        object.__setattr__(self, "entries", tuple(sorted(self.entries, key=self._site_order)))

    @classmethod
    def of(cls, assignment: Mapping | Iterable[tuple]):
        items = assignment.items() if isinstance(assignment, Mapping) else assignment
        return cls(tuple(items))

    def domain(self) -> tuple:
        return tuple(v for v, _ in self.entries)

    def items(self) -> tuple:
        return self.entries

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def _lookup(self) -> dict:
        return dict(self.entries)

    def __contains__(self, v: object) -> bool:
        return v in self._lookup

    def __getitem__(self, v: object) -> object:
        return self._lookup[v]


class Pattern(PatternRecord):
    """A finite partial configuration: finitely many words with symbols, in ``Word.key`` order."""

    _site_order = staticmethod(lambda e: e[0].key())

    @property
    def sites(self) -> Sites:
        """The domain with its hull, built once; set like a field, cheaper than a cached_property."""
        if (kept := getattr(self, "_sites", None)) is None:
            object.__setattr__(self, "_sites", kept := Sites(map(itemgetter(0), self.entries)))
        return kept

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


def symbol_index(symbols: Sequence, what: str = "alphabet") -> dict[object, int]:
    """Each symbol's position in the list, once ValidationError has refused an
    empty list, an unhashable symbol or a repeated one: the one table from
    which every measure reads a symbol's position."""
    try:
        index = {c: i for i, c in enumerate(symbols)}
    except TypeError as exc:
        raise ValidationError(f"{what} symbols must be hashable: {exc}") from None
    if not (symbols and len(index) == len(symbols)):
        raise ValidationError(f"{what} must be nonempty without repeats")
    return index


class Alphabetic:
    """A record over one alphabet: its ``__post_init__``, which a subclass calls
    before its own checks, keeps the alphabet's ``symbol_index``."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbol_index", symbol_index(self.alphabet))


def position(index: Mapping, c: object) -> int | None:
    """c's position in a symbol table, or None when c is not in it, an unhashable c too."""
    try:
        return index.get(c)
    except TypeError:
        return None


def require_exact(values: Sequence, what: str) -> None:
    """Refuse an inexact entry: anything but an int or a Fraction."""
    for x in values:
        if type(x) is not int and not isinstance(x, Fraction):
            raise ValidationError(f"{what} must be ints or Fractions, got {x!r}")


def require_distribution(values: Sequence, what: str, positive: bool = False) -> None:
    """Refuse an inexact entry, a negative entry (a zero one too if
    ``positive``) and a sum other than 1."""
    require_exact(values, what)
    sign = "positive" if positive else "nonnegative"
    if any(x <= 0 if positive else x < 0 for x in values) or sum(values, ZERO) != 1:
        raise ValidationError(f"{what} must be {sign} and sum to 1")


def require_symbols(pattern: PatternRecord, index: Mapping) -> list[int]:
    """Each pattern symbol's position, once ValidationError has refused one outside the alphabet."""
    out = []
    for _, c in pattern.items():
        if (k := position(index, c)) is None:
            raise ValidationError(f"symbol {shown(c)} is not in the alphabet")
        out.append(k)
    return out


def require_pattern(pattern: Pattern, gs: GeneratorSet, index: Mapping) -> list[int]:
    """Each pattern symbol's position, once MembershipError has refused a site outside S
    and then ValidationError a symbol outside the alphabet."""
    for w in pattern.domain():
        require_in_semigroup(w, gs)
    return require_symbols(pattern, index)


class Product(Alphabetic):
    """A product measure over an ``alphabet`` with one of its ``probs`` per symbol."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.probs) != len(self.alphabet):
            raise ValidationError("one probability per alphabet symbol required")
        require_distribution(self.probs, "probabilities")

    def product(self, pattern: PatternRecord) -> Fraction:
        """The product of the pattern's symbol probabilities, once ValidationError has refused
        a symbol outside the alphabet; an unhashable one raises TypeError, as in the chain folds."""
        try:
            ks = [self.symbol_index[c] for _, c in pattern.items()]
        except KeyError as missing:
            raise ValidationError(f"symbol {shown(*missing.args)} is not in the alphabet") from None
        return math.prod(map(self.probs.__getitem__, ks), start=ONE)


class CylinderMeasure(Protocol):
    """Anything that evaluates cylinder patterns over a fixed S exactly.

    A measure may add ``masses(sites) -> (numerators, denominator)``, the
    sites given as an ``algebra.Sites`` (a tuple of words): every
    full pattern's mass on the sites as a list of ints over one positive
    int, in ``itertools.product`` order.  The masses are a consistent
    family: summing out the trailing sites, which vary fastest, sums
    blocks of consecutive entries, and the block sums over the same
    denominator are the masses on the leading sites.  The ball scans list
    any other measure's masses through ``eval``, every pattern over the
    denominator 1.
    """

    gs: GeneratorSet
    alphabet: tuple

    def eval(self, pattern: Pattern) -> Fraction: ...


class CheckResult(Record):
    """Boolean outcome with a witness description on failure."""

    ok: bool
    witness: str | None = None

    # Every scan returns one, so the constructor is written out.
    def __init__(self, ok: bool, witness: str | None = None) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.ok


Matrix = tuple[tuple[Fraction, ...], ...]
IntRows = tuple[tuple[int, ...], ...]


class MarkovTreeChain(Alphabetic, Record):
    """Alphabet, initial vector p, and one transition matrix per generator."""

    gs: GeneratorSet
    alphabet: tuple
    p: tuple[Fraction, ...]
    transitions: tuple[tuple[Symbol, Matrix], ...]

    def __post_init__(self) -> None:
        super().__post_init__()
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
    def make(cls, gs: GeneratorSet, alphabet: Sequence, p: Sequence,
             matrices: Mapping) -> "MarkovTreeChain":
        """Build a chain from int or Fraction entries (``validate_chain`` judges sums and signs)."""
        require_exact(p, "p")
        trans = []
        for key, rows in matrices.items():
            sym = key if isinstance(key, Symbol) else Symbol.from_signed(key)
            for k, row in enumerate(rows):
                require_exact(row, f"P[{sym}] row {k}")
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
    def integer_form(self) -> tuple[int, tuple[int, ...], dict[Symbol, IntRows]]:
        """(D, D*p, D*P[g] per generator), D the lcm of every denominator."""
        entries = [*self.p, *(x for _, rows in self.transitions for row in rows for x in row)]
        scale = math.lcm(*(x.denominator for x in entries))

        def scaled(xs) -> tuple[int, ...]:
            return tuple(x.numerator * (scale // x.denominator) for x in xs)

        return (
            scale,
            scaled(self.p),
            {s: tuple(scaled(row) for row in rows) for s, rows in self.transitions},
        )

    @cached_property
    def integer_columns(self) -> dict[Symbol, IntRows]:
        """D*P[g] per generator by columns: ``[g][c][k]`` is ``(D*P[g])[k][c]``."""
        return {s: tuple(zip(*rows)) for s, rows in self.integer_form[2].items()}

    @cached_property
    def diagnostics(self) -> ChainDiagnostics:
        return validate_chain(self)

    def eval(self, pattern: Pattern) -> Fraction:
        return eval_cylinder(self, pattern)

    def masses(self, sites: Sequence[Word]) -> tuple[list[int], int]:
        """Every full pattern's mass on the sites in product order, over D^|hull|."""
        return chain_masses(self, sites)


def is_invariant_chain(chain: MarkovTreeChain) -> CheckResult:
    """Finite certificate for shift invariance of the chain's measure.

    Requires p P^a = p for every a in Sigma and, for every inverse pair
    inside Sigma, detailed balance p_k P^{a^-1}[k][l] = p_l P^a[l][k].
    Both are decided on the integer form, with D^2 times each side.
    """
    _require_valid(chain)
    scale, p, matrices = chain.integer_form
    square = scale * scale
    for sym in chain.gs.symbols():
        for l, column in enumerate(chain.integer_columns[sym]):
            lhs = sum(map(mul, p, column))
            if lhs != scale * p[l]:
                return CheckResult(
                    False, f"(p P^{sym})[{l}] = {Fraction(lhs, square)} != p[{l}] = {chain.p[l]}"
                )
    for sym, inv in chain.gs.inverse_pairs():
        fwd, bwd = matrices[sym], matrices[inv]
        for k, x in enumerate(p):
            for l, y in enumerate(p):
                lhs = x * bwd[k][l]
                rhs = y * fwd[l][k]
                if lhs != rhs:
                    return CheckResult(
                        False,
                        f"balance fails: p[{k}] P^{inv}[{k}][{l}] = {Fraction(lhs, square)} "
                        f"!= p[{l}] P^{sym}[{l}][{k}] = {Fraction(rhs, square)}",
                    )
    return CheckResult(True)


def eval_cylinder(chain: MarkovTreeChain, pattern: Pattern) -> Fraction:
    """Exact measure of the cylinder fixing the pattern's sites."""
    return eval_constrained(chain, _Constraints(pattern))


def _patterns(sites: Sequence[Word], alphabet: Sequence) -> Iterator[Pattern]:
    """Every full pattern on the ordered sites, in ``itertools.product`` order."""
    for combo in itertools.product(tuple(alphabet), repeat=len(sites)):
        yield Pattern(tuple(zip(sites, combo)))


def all_patterns(sites: Iterable[Word], alphabet: Sequence) -> Iterator[Pattern]:
    """Every full pattern on the sites, sorted by ``Word.key``, in product order."""
    yield from _patterns(sorted_words(sites), alphabet)


def pattern_masses(measure: CylinderMeasure, sites: Sequence[Word]) -> tuple[list, int]:
    """The mass of every full pattern on the ordered sites, as ``(numerators, denominator)``.

    Patterns run in ``itertools.product(measure.alphabet, repeat=len(sites))``
    order, the first site varying slowest.  A measure's ``masses`` gives the
    whole list of ints over one denominator; any other measure is evaluated
    on every pattern, a list of exact masses over 1.  A scan passes the ``Sites``
    its layout keeps; a word list gets a Sites that no one keeps.  Past
    MAX_PATTERNS full patterns, ValidationError refuses the sites before any
    fold; then every built-in ``masses``, and the pattern-by-pattern path,
    refuses a site outside its own S (MembershipError) before a repeated site (ValueError).
    """
    sites = Sites(sites)
    if too_many_patterns(n := len(measure.alphabet), len(sites)):
        raise ValidationError(f"the masses on {len(sites)} sites are refused: they give "
                              f"{n}^{len(sites)} full patterns, more than {MAX_PATTERNS}")
    batched = getattr(measure, "masses", None)
    if batched is not None:
        return batched(sites)
    return list(map(measure.eval, _patterns(sites.within(measure.gs), measure.alphabet))), 1


def _pattern_at(sites: Sequence[Word], alphabet: Sequence, i: int) -> Pattern:
    """The i-th full pattern on the sites in ``itertools.product`` order."""
    combo = []
    for _ in sites:
        i, x = divmod(i, len(alphabet))
        combo.append(alphabet[x])
    return Pattern(tuple(zip(sites, reversed(combo))))


def _over_one_denominator(lhs: tuple, rhs: tuple) -> tuple[list, list, int]:
    """Two ``(numerators, denominator)`` lists as ``(xs, ys, d)``, both over their lcm d."""
    (xs, dx), (ys, dy) = lhs, rhs
    d = math.lcm(dx, dy)
    if d != dx:
        xs = list(map(mul, xs, itertools.repeat(d // dx)))
    if d != dy:
        ys = list(map(mul, ys, itertools.repeat(d // dy)))
    return xs, ys, d


def _first_difference(xs: Iterable, ys: Iterable):
    """(index, x, y) of the first entry where the two lists differ, or None."""
    return next(((i, x, y) for i, (x, y) in enumerate(zip(xs, ys)) if x != y), None)


def _witness(lhs: tuple, rhs: tuple, sites: Sequence[Word], alphabet: Sequence, sizes: list):
    """(pattern, x, y) of the first full pattern on the sites whose two
    ``(numerators, denominator)`` masses differ, or None.  The lists are
    brought over one denominator and compared in C first.  The witness is
    then looked for on the prefixes of the sites of the given sizes, smallest
    first: the masses on k sites are sums of blocks of n^(len(sites) - k)
    consecutive entries.
    """
    xs, ys, d = _over_one_denominator(lhs, rhs)
    if xs == ys:
        return None
    for size in sizes:
        block = len(alphabet) ** (len(sites) - size)
        xsums, ysums = (map(sum, zip(*[iter(zs)] * block)) for zs in (xs, ys))
        diff = _first_difference(xsums, ysums)
        if diff is not None:
            i, x, y = diff
            return _pattern_at(sites[:size], alphabet, i), Fraction(x, d), Fraction(y, d)
    return None


def shift_invariance_check(measure: CylinderMeasure, a: Symbol, r: int) -> CheckResult:
    """Compare every pattern on B_r with its a-translate, from radius 0 up.

    The sorted B_rr is the sorted B_(rr-1) followed by the sorted sphere
    of radius rr, so B_rr and its translate are prefixes of the site
    lists of B_r and its translate (``scan_layout``).  Each side's masses
    are listed once, on B_r: the masses on B_rr are block sums of those
    on B_r, so agreement on B_r settles every radius, and ``_witness``
    reads the smaller radii only when the sides differ, from radius 0
    up.  The witness is the one a radius by radius scan reports.
    """
    sites, sizes, moved = scan_layout(measure.gs, r, len(measure.alphabet), a)
    found = _witness(
        pattern_masses(measure, sites), pattern_masses(measure, moved), sites, measure.alphabet, sizes
    )
    if found is None:
        return CheckResult(True)
    pattern, lhs, rhs = found
    return CheckResult(
        False, f"pattern {pattern.render()} has measure {lhs}, its {a}-translate {rhs}"
    )


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
    count, lacking = chain.gs.missing_positive()
    if count:
        shown = ", ".join(map(str, itertools.islice(lacking, 10)))
        more = f", ... ({count} in all)" if count > 10 else ""
        raise SigmaIncomplete(f"Sigma lacks positive generators: {shown}{more}")
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


def pushforward_check(extended: MarkovTreeChain, original: MarkovTreeChain, r: int) -> CheckResult:
    """Do the two chains agree on every full pattern over the original B_r?  Each
    is listed on B_r over its own alphabet; unless the two are equal, one gather
    matches the extended side's symbols by name, as ``eval`` does."""
    alphabet = original.alphabet
    sites = scan_layout(original.gs, r, len(alphabet))[0]
    xs, dx = pattern_masses(extended, sites)
    if extended.alphabet != alphabet:
        try:
            digits = [extended.symbol_index[c] for c in alphabet]
        except KeyError as missing:
            raise ValidationError(f"symbol {shown(*missing.args)} is not in the chain alphabet") from None
        at, width = [0], len(extended.alphabet)
        for _ in sites:
            at = [i * width + k for i in at for k in digits]
        xs = list(map(xs.__getitem__, at))
    found = _witness((xs, dx), pattern_masses(original, sites), sites, alphabet, [len(sites)])
    if found is None:
        return CheckResult(True)
    pattern, x, y = found
    return CheckResult(False, f"pattern {pattern.render()}: extended gives {x}, original {y}")


def weak_star_distance(m1: CylinderMeasure, m2: CylinderMeasure, order: int) -> Fraction:
    """Total variation over full patterns on the order-ball of S."""
    if m1.gs != m2.gs:
        raise ValidationError("measures live over different generator sets")
    if tuple(m1.alphabet) != tuple(m2.alphabet):
        raise ValidationError("measures have different alphabets")
    sites = scan_layout(m1.gs, order, len(m1.alphabet))[0]
    xs, ys, d = _over_one_denominator(pattern_masses(m1, sites), pattern_masses(m2, sites))
    return Fraction(sum(map(abs, map(sub, xs, ys))), d)


class BernoulliMeasure(Product, Record):
    """Product measure: independent sites, identical marginals."""

    gs: GeneratorSet
    alphabet: tuple
    probs: tuple[Fraction, ...]

    def eval(self, pattern: Pattern) -> Fraction:
        for w in pattern.domain():
            require_in_semigroup(w, self.gs)
        return self.product(pattern)

    def masses(self, sites: Sequence[Word]) -> tuple[list[int], int]:
        """Every full pattern's mass on the sites: outer products of the
        probabilities times L, the lcm of their denominators, over L^len(sites)."""
        sites = Sites(sites).within(self.gs)
        scale = math.lcm(*(q.denominator for q in self.probs))
        weights = [q.numerator * (scale // q.denominator) for q in self.probs]
        out = [1]
        for _ in sites:
            out = [x * q for x in out for q in weights]
        return out, scale ** len(sites)


class MixtureMeasure(Record):
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
        return sum((w * m.eval(pattern) for w, m in zip(self.weights, self.components)), ZERO)

    def masses(self, sites: Sequence[Word]) -> tuple[list, int]:
        """Every full pattern's mass: the components' numerators over one common
        denominator, weighted and added one component at a time (an eval-only
        component's are Fractions).  The components share one hull and check
        the sites each on its own."""
        sites = Sites(sites)
        parts = [pattern_masses(m, sites) for m in self.components]
        scales = [w.denominator * d for w, (_, d) in zip(self.weights, parts)]
        common = math.lcm(*scales)
        total = None
        for w, s, (xs, _) in zip(self.weights, scales, parts):
            scaled = map(mul, xs, itertools.repeat(w.numerator * (common // s)))
            total = list(scaled if total is None else map(add, total, scaled))
        return total, common

