"""Markov chains indexed by Cayley trees and exact cylinder measures.

A chain is a positive probability vector p over a finite alphabet plus
one stochastic matrix per generator.  The measure of a fully labelled
tree rooted at the identity is p at the root times one transition factor
per edge; partial patterns are evaluated by marginalizing the
unconstrained hull sites, by dynamic programming from the leaves to the
root.  The dynamic program runs in integers: every entry of p and of the
matrices is scaled by D, the lcm of their denominators, and the result
is divided by D to the number of hull vertices once at the end, so it
stays exact.  A vertex fixed to one symbol carries no row: the entries
its edges pick out of the scaled matrices are multiplied into one
integer ``factor``, or into its parent's row when the parent is free.

The invariance conditions are algebraic: p must be a left fixed vector
of every transition matrix, and whenever Sigma contains a generator
together with its inverse, the two matrices must be in detailed balance
through p.  These two conditions are a finite certificate for shift
invariance of the whole measure.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from operator import add, itemgetter, mul, sub
from typing import Callable, Collection, Iterable, Iterator, Mapping, Protocol, Sequence

from .algebra import (
    GeneratorSet,
    Record,
    Sites,
    Symbol,
    Word,
    require_distinct_sites,
    require_in_semigroup,
    scan_layout,
    sorted_words,
    word_mul,
)
from .errors import (
    MAX_PATTERNS,
    DeltaOutOfRange,
    EmptyWord,
    InvalidChain,
    NonInvertibleModP,
    NotInvariant,
    NoWitness,
    SigmaIncomplete,
    ValidationError,
    shown,
    too_many_patterns,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class Pattern(Record):
    """A finite partial configuration: finitely many sites with symbols."""

    entries: tuple[tuple[Word, object], ...]

    def __post_init__(self) -> None:
        require_distinct_sites([w for w, _ in self.entries])
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

    @property
    def sites(self) -> Sites:
        """The domain with its hull, built once; set like a field, cheaper than a cached_property."""
        if (kept := getattr(self, "_sites", None)) is None:
            object.__setattr__(self, "_sites", kept := Sites(map(itemgetter(0), self.entries)))
        return kept

    def __contains__(self, w: Word) -> bool:
        return w in self._lookup

    def __getitem__(self, w: Word) -> object:
        return self._lookup[w]

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


def require_pattern(pattern: Pattern, gs: GeneratorSet, alphabet: Collection) -> None:
    """Refuse a site outside S (MembershipError), then an unknown symbol (ValidationError)."""
    for w in pattern.domain():
        require_in_semigroup(w, gs)
    for _, c in pattern.items():
        if c not in alphabet:
            raise ValidationError(f"symbol {shown(c)} is not in the alphabet")


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


class ChainDiagnostics(Record):
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


Matrix = tuple[tuple[Fraction, ...], ...]
IntRows = tuple[tuple[int, ...], ...]


class MarkovTreeChain(Record):
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
    def integer_columns(self) -> dict[Symbol, IntRows]:
        """D*P[g] per generator by columns: ``[g][c][k]`` is ``(D*P[g])[k][c]``."""
        return {s: tuple(zip(*rows)) for s, rows in self.integer_form[2].items()}

    @cached_property
    def diagnostics(self) -> ChainDiagnostics:
        return validate_chain(self)

    def eval(self, pattern: Pattern) -> Fraction:
        return eval_cylinder(self, pattern)

    def masses(self, sites: Sequence[Word]) -> tuple[list[int], int]:
        """Every full pattern's mass on the sites in product order, over D^|hull|.

        Runs the hull's fold plan (``_fold_plan``, kept in ``sites.plans``
        by n unless it has more than _MEMO_OFFSETS reorder offsets) on the
        integer rows: ``cur`` holds one weight per labelling of the live
        vertices, and each step makes vertex i the fastest digit, each
        weight times the row of D*P[letter[i]] picked by the parent's label,
        then sums out the hidden vertex that step closes.  The site digits
        are gathered into the sites' order at the end.
        """
        _require_valid(self)
        sites = Sites(sites).within(self.gs)
        scale, p, matrices = self.integer_form
        n, denominator = len(p), scale ** len(sites.parent)
        if not sites:
            return [sum(p)], denominator
        plan = sites.plans.get(n)
        if plan is None:
            plan = _fold_plan(sites.parent, sites.site, n)
            if len(plan[2]) <= _MEMO_OFFSETS:
                sites.plans[n] = plan
        steps, block, offsets = plan
        cur = list(p)
        for i, repeat, stride in steps:
            rows = matrices[sites.letter[i]]
            if repeat > 1:
                rows = [row for row in rows for _ in range(repeat)]
            cur = [c * f for c, row in zip(cur, itertools.cycle(rows)) for f in row]
            if stride:
                cur = _sum_out(cur, n, stride)
        if block == 1:
            return list(map(cur.__getitem__, offsets)), denominator
        out: list[int] = []
        for o in offsets:
            out += cur[o : o + block]
        return out, denominator


def _sum_out(cur: list[int], n: int, below: int) -> list[int]:
    """Sum out the digit with ``below`` weights per step of it."""
    out: list[int] = []
    for b in range(0, len(cur), n * below):
        out += map(sum, zip(*(cur[b + x * below : b + (x + 1) * below] for x in range(n))))
    return out


def _fold_plan(parent: tuple, site: tuple, n: int) -> tuple[tuple, int, tuple]:
    """The chain fold over a hull of n-symbol labels, as ``(steps, block, offsets)``.

    The fold keeps ``live`` vertices, the first of them varying slowest.
    Step ``(i, repeat, stride)`` places vertex i after its parent, whose
    digit has ``repeat`` = n^below weights per step of it; a vertex that is
    no site is summed out, with ``stride`` weights per step of it, once its
    last child is placed (stride 0: none is).  That leaves the site digits
    in index order; the pattern at ``offsets[k] + j`` (j < ``block``) is the
    k * block + j-th in the sites' order.
    """
    # Each hidden vertex, keyed by its last child.
    last_child = {u: i for i, u in enumerate(parent)}
    drop = {last_child[u]: u for u in set(range(len(parent))).difference(site)}
    steps, live = [], [0]
    for i in range(1, len(parent)):
        repeat = n ** (len(live) - 1 - live.index(parent[i]))
        live.append(i)
        stride = 0
        if i in drop:
            u = drop[i]
            stride = n ** (len(live) - 1 - live.index(u))
            live.remove(u)
        steps.append((i, repeat, stride))
    # Reorder the site digits, now in index order, into ``site``: the
    # trailing run already in place moves as whole slices.
    m, position = len(site), {v: k for k, v in enumerate(live)}
    moved = m
    while moved and position[site[moved - 1]] == moved - 1:
        moved -= 1
    offsets = [0]
    for v in site[:moved]:
        stride = n ** (m - 1 - position[v])
        offsets = [o + x for o in offsets for x in range(0, n * stride, stride)]
    return tuple(steps), n ** (m - moved), tuple(offsets)


# A plan is kept only with at most _MEMO_OFFSETS reorder offsets: sites listed
# far out of hull order would keep up to n^22 of them.
_MEMO_OFFSETS = 2**12


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
    for sym in chain.gs.symbols():
        rows = chain.matrix[sym]
        for l in range(len(chain.alphabet)):
            lhs = sum((chain.p[k] * rows[k][l] for k in range(len(chain.p))), ZERO)
            if lhs != chain.p[l]:
                return CheckResult(
                    False, f"(p P^{sym})[{l}] = {lhs} != p[{l}] = {chain.p[l]}"
                )
    for sym, inv in chain.gs.inverse_pairs():
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


class _Constraints(Mapping):
    """A pattern's sites, each allowed ``allow(c)`` for its symbol c, or c alone."""

    def __init__(self, pattern: Pattern, allow: Callable[[object], Collection] | None = None):
        self.pattern, self.allow = pattern, allow

    def __getitem__(self, w: Word) -> Collection:
        return (self.pattern[w],) if self.allow is None else self.allow(self.pattern[w])

    def __iter__(self) -> Iterator[Word]:
        return iter(self.pattern.sites)

    def __len__(self) -> int:
        return len(self.pattern)


def eval_constrained(
    chain: MarkovTreeChain, constraints: Mapping[Word, Collection]
) -> Fraction:
    """Measure of the event that each site's symbol lies in its allowed set.

    Generalizes cylinder evaluation; unordered sites not mentioned are
    unconstrained hull vertices and get marginalized.  A ``_Constraints``
    brings its pattern's kept ``Sites``.  Every symbol and site is checked
    before the fold.  A site with one allowed symbol is a fixed vertex, held
    as its index: an edge between two fixed vertices multiplies the integer
    ``factor`` by one entry of D*P[g], and one into a fixed parent by one dot
    product.  Every other vertex keeps a row, all ones until a child touches
    it; a fixed child multiplies its parent's row by one column of D*P[g].
    """
    _require_valid(chain)
    if type(constraints) is _Constraints:
        symbols = map(itemgetter(1), constraints.pattern.entries)
        allowed = zip(symbols) if constraints.allow is None else map(constraints.allow, symbols)
        sites = constraints.pattern.sites.within(chain.gs)
    else:
        sites, allowed = Sites(constraints).within(chain.gs), constraints.values()
    parent, letter, site = sites.parent, sites.letter, sites.site
    scale, p, matrices = chain.integer_form
    n, index = len(p), chain.symbol_index
    fixed = [-1] * len(parent)
    # Each row is D^(size of its subtree - 1) times the exact row; None is all ones.
    rows: list[list[int] | None] = [None] * len(parent)
    for v, ok in zip(site, allowed):
        try:
            if len(ok) == 1:
                (c,) = ok
                fixed[v] = index[c]
                continue
            ks = set(map(index.__getitem__, ok))
        except KeyError:
            c = next(c for c in ok if c not in index)
            raise ValidationError(f"symbol {shown(c)} is not in the chain alphabet") from None
        if len(ks) == 1:
            fixed[v] = ks.pop()
        else:
            rows[v] = [int(k in ks) for k in range(n)]
    columns = chain.integer_columns
    factor = 1
    # Leaves first: a child's index exceeds its parent's.
    for i in range(len(parent) - 1, 0, -1):
        if not factor:
            break
        u, weights = parent[i], matrices[letter[i]]
        c, b, up = fixed[i], fixed[u], rows[u]
        if b >= 0:
            factor *= weights[b][c] if c >= 0 else sum(map(mul, weights[b], rows[i]))
        elif c >= 0:
            column = columns[letter[i]][c]
            rows[u] = list(column) if up is None else list(map(mul, up, column))
        elif up is None:
            rows[u] = [sum(map(mul, row, rows[i])) for row in weights]
        else:
            sub = rows[i]
            for k, x in enumerate(up):
                if x:
                    up[k] = x * sum(map(mul, weights[k], sub))
    root = fixed[0]
    if root >= 0:
        factor *= p[root]
    else:
        factor *= sum(p) if rows[0] is None else sum(map(mul, p, rows[0]))
    return Fraction(factor, scale ** len(parent))


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


def _first_difference(xs: Iterable, dx: int, ys: Iterable, dy: int):
    """(index, x/dx, y/dy) of the first entry where the two masses differ, or None."""
    for i, (x, y) in enumerate(zip(xs, ys)):
        if x * dy != y * dx:
            return i, Fraction(x, dx), Fraction(y, dy)
    return None


def _agree(xs: list, dx: int, ys: list, dy: int) -> bool:
    """Is x/dx == y/dy for every pair of entries?  The lists are brought
    over one denominator and compared in C."""
    g = math.gcd(dx, dy)
    if dy != g:
        xs = list(map(mul, xs, itertools.repeat(dy // g)))
    if dx != g:
        ys = list(map(mul, ys, itertools.repeat(dx // g)))
    return xs == ys


def _witness(lhs: tuple, rhs: tuple, sites: Sequence[Word], alphabet: Sequence, sizes: list):
    """(pattern, x, y) of the first full pattern on the sites whose two
    ``(numerators, denominator)`` masses differ, or None.  Two lists are
    compared in C first.  The witness is then looked for on the prefixes of
    the sites of the given sizes, smallest first: the masses on k sites are
    sums of blocks of n^(len(sites) - k) consecutive entries.  Only the
    name-matched path of ``pushforward_check`` passes lazy sides, which are
    walked once, so they come with the one size ``len(sites)``.
    """
    (xs, dx), (ys, dy) = lhs, rhs
    if isinstance(xs, list) and isinstance(ys, list) and _agree(xs, dx, ys, dy):
        return None
    for size in sizes:
        block = len(alphabet) ** (len(sites) - size)
        xsums, ysums = (map(sum, zip(*[iter(zs)] * block)) for zs in (xs, ys))
        diff = _first_difference(xsums, dx, ysums, dy)
        if diff is not None:
            i, x, y = diff
            return _pattern_at(sites[:size], alphabet, i), x, y
    return None


def shift_invariance_check(
    measure: CylinderMeasure, a: Symbol, r: int
) -> CheckResult:
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


def pushforward_check(
    extended: MarkovTreeChain, original: MarkovTreeChain, r: int
) -> CheckResult:
    """Do the two chains agree on every full pattern over the original B_r?"""
    sites = scan_layout(original.gs, r, len(original.alphabet))[0]
    if tuple(extended.alphabet) == tuple(original.alphabet):
        sides = [pattern_masses(m, sites) for m in (extended, original)]
    else:
        # Symbols are matched by name, pattern by pattern, as eval matches them.
        sides = [(map(m.eval, _patterns(sites, original.alphabet)), 1) for m in (extended, original)]
    found = _witness(*sides, sites, original.alphabet, [len(sites)])
    if found is None:
        return CheckResult(True)
    pattern, x, y = found
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
    sites = scan_layout(m1.gs, order, len(m1.alphabet))[0]
    (xs, d1), (ys, d2) = pattern_masses(m1, sites), pattern_masses(m2, sites)
    gaps = map(sub, map(mul, xs, itertools.repeat(d2)), map(mul, ys, itertools.repeat(d1)))
    return Fraction(sum(map(abs, gaps)), d1 * d2)


class BernoulliMeasure(Record):
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
        require_pattern(pattern, self.gs, self._index)
        out = ONE
        for _, c in pattern.items():
            out *= self.probs[self._index[c]]
        return out

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
        return sum(
            (w * m.eval(pattern) for w, m in zip(self.weights, self.components)),
            ZERO,
        )

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


# -- Theorem-E style family: a chain that is invariant over the free
# -- semigroup but provably inconsistent with any extension to the group.

IntMatrix = tuple[tuple[int, int], tuple[int, int]]


def check_int_matrix(m: Sequence[Sequence[int]]) -> None:
    """Raise ValidationError unless ``m`` is a 2x2 matrix of Python ints (a bool is not one)."""
    if not (
        isinstance(m, (list, tuple))
        and len(m) == 2
        and all(isinstance(row, (list, tuple)) and len(row) == 2 for row in m)
    ):
        raise ValidationError(f"{m!r} is not a 2x2 matrix")
    bad = [x for row in m for x in row if type(x) is not int]
    if bad:
        raise ValidationError(f"entry {bad[0]!r} is not an integer")


def _mat_mod(m: Sequence[Sequence[int]], p: int) -> IntMatrix:
    return tuple(tuple(x % p for x in row) for row in m)  # type: ignore[return-value]


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
        check_int_matrix(m)
        mods.append(_mat_mod(m, p))
        _mat_inv_mod(mods[-1], p)
    return mods


def _apply_mod(m: IntMatrix, v: tuple[int, int], p: int) -> tuple[int, int]:
    return ((m[0][0] * v[0] + m[0][1] * v[1]) % p, (m[1][0] * v[0] + m[1][1] * v[1]) % p)


# Miller-Rabin over these bases decides primality exactly below the bound
# (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a number at or above the bound is refused."""
    if n >= _PRIME_BOUND:
        raise ValidationError(f"{n} is too large: primality is decided only below {_PRIME_BOUND}")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def counterexample_chain(
    matrices: Sequence[Sequence[Sequence[int]]], prime: int, delta: Fraction
) -> MarkovTreeChain:
    """Invariant chain on pairs mod p driven by linear maps.

    The alphabet is (Z_p)^2; generator a_i sends symbol u to A_i u mod p
    with probability 1 - (p^2 - 1) delta and to each other symbol with
    probability delta.  Each matrix must be invertible mod p, and delta
    must lie strictly between 0 and 1/(p^2 - 1).  A chain of more than
    MAX_PATTERNS matrix entries per generator, p^4, is refused.
    """
    if not _is_prime(prime):
        raise ValidationError(f"{prime} is not prime")
    if prime**4 > MAX_PATTERNS:
        raise ValidationError(
            f"p = {prime} gives p^4 = {prime**4} matrix entries per generator, "
            f"more than {MAX_PATTERNS}"
        )
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


class CounterexampleReport(Record):
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
    """Evaluate the kernel word mod p and find a vector it moves.

    The word indexes into the matrix list; negative letters use inverses
    mod p.  A vector moved by the product certifies that the deterministic
    part of the chain is inconsistent along the word's cycle, with the
    quantitative threshold 1 / p^(2n - 2) on delta.  The witness is (1, 0)
    if the product moves it, else (0, 1): the first moved vector of a scan
    over (x, y), y outer, since a linear map fixing both is the identity.
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
    witness = next((v for v in ((1, 0), (0, 1)) if _apply_mod(product, v, prime) != v), None)
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
