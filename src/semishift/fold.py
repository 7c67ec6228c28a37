"""The integer folds of a Markov tree chain: cylinder and ball masses.

The measure of a fully labelled tree rooted at the identity is p at the
root times one transition factor per edge of the chain
(``measure.MarkovTreeChain``).  Partial patterns are evaluated by
marginalizing the unconstrained hull sites, by dynamic programming from
the leaves to the root.  The dynamic program runs in integers: every
entry of p and of the matrices is scaled by D, the lcm of their
denominators (the chain's ``integer_form``), and the result is divided
by D to the number of hull vertices once at the end, so it stays exact.
A vertex fixed to one symbol carries no row: the entries its edges pick
out of the scaled matrices are multiplied into one integer ``factor``,
or into its parent's row when the parent is free.  A row may be one of
the chain's own column tuples; no step writes a row in place.

The ball fold lists every full pattern's mass on a list of sites at once,
one weight per labelling of the live hull vertices.  Both folds refuse a
chain that fails ``validate_chain``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter, mul
from typing import Callable, Collection, Iterator, Mapping, Sequence

from .algebra import Record, Sites, Word
from .errors import InvalidChain, ValidationError, shown


class ChainDiagnostics(Record):
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


def validate_chain(chain) -> ChainDiagnostics:
    """Report every violated structural invariant, with indices.

    Decided on the integer form: D*p must be positive, D*P[g] nonnegative,
    and each of them must sum to D row by row.
    """
    scale, p, matrices = chain.integer_form
    problems: list[str] = []
    for k, x in enumerate(p):
        if x <= 0:
            problems.append(f"p[{k}] = {chain.p[k]} is not positive")
    if (total := sum(p)) != scale:
        problems.append(f"sum(p) = {Fraction(total, scale)} != 1")
    for sym, rows in chain.transitions:
        for k, row in enumerate(matrices[sym]):
            for l, x in enumerate(row):
                if x < 0:
                    problems.append(f"P[{sym}][{k}][{l}] = {rows[k][l]} is negative")
            if (total := sum(row)) != scale:
                problems.append(f"P[{sym}] row {k} sums to {Fraction(total, scale)} != 1")
    return ChainDiagnostics(tuple(problems))


def _require_valid(chain) -> None:
    if problems := chain.diagnostics.problems:
        raise InvalidChain("; ".join(problems))


def chain_masses(chain, sites: Sequence[Word]) -> tuple[list[int], int]:
    """Every full pattern's mass on the sites in product order, over D^|hull|.

    Runs the hull's fold plan (``_fold_plan``, kept in ``sites.plans``
    by n unless it has more than _MEMO_OFFSETS reorder offsets) on the
    integer rows: ``cur`` holds one weight per labelling of the live
    vertices, and each step makes vertex i the fastest digit, each
    weight times the row of D*P[letter[i]] picked by the parent's label,
    then sums out the hidden vertex that step closes.  The site digits
    are gathered into the sites' order at the end.
    """
    _require_valid(chain)
    sites = Sites(sites).within(chain.gs)
    scale, p, matrices = chain.integer_form
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


class _Constraints(Mapping):
    """A pattern's sites, each allowed ``allow(c)`` for its symbol c, or c alone."""

    def __init__(self, pattern, allow: Callable[[object], Collection] | None = None):
        self.pattern, self.allow = pattern, allow

    def __getitem__(self, w: Word) -> Collection:
        return (self.pattern[w],) if self.allow is None else self.allow(self.pattern[w])

    def __iter__(self) -> Iterator[Word]:
        return iter(self.pattern.sites)

    def __len__(self) -> int:
        return len(self.pattern)


def eval_constrained(chain, constraints: Mapping[Word, Collection]) -> Fraction:
    """Measure of the event that each site's symbol lies in its allowed set.

    Generalizes cylinder evaluation; unordered sites not mentioned are
    unconstrained hull vertices and get marginalized.  A ``_Constraints``
    brings its pattern's kept ``Sites``.  Every symbol and site is checked
    before the fold.  A site with one allowed symbol is a fixed vertex, held
    as its index: an edge between two fixed vertices multiplies the integer
    ``factor`` by one entry of D*P[g], and one into a fixed parent by one dot
    product.  Every other vertex keeps a row, all ones until a child touches
    it.  A fixed child gives an untouched parent's row as the chain's own
    column of D*P[g] (``integer_columns``), and multiplies a touched one by
    it.  Every step builds a new list, so no row is written in place.
    """
    _require_valid(chain)
    if type(constraints) is _Constraints:
        entries, allow = constraints.pattern.entries, constraints.allow
        allowed = None if allow is None else map(allow, map(itemgetter(1), entries))
        sites = constraints.pattern.sites.within(chain.gs)
    else:
        sites, allowed = Sites(constraints).within(chain.gs), constraints.values()
    parent, letter, site = sites.parent, sites.letter, sites.site
    scale, p, matrices = chain.integer_form
    n, index = len(p), chain.symbol_index
    fixed = [-1] * len(parent)
    # Each row is D^(size of its subtree - 1) times the exact row; None is all ones.
    rows: list[Sequence[int] | None] = [None] * len(parent)
    try:
        if allowed is None:
            for v, (_, c) in zip(site, entries):
                fixed[v] = index[c]
        else:
            for v, ok in zip(site, allowed):
                ks = set(map(index.__getitem__, ok))
                if len(ks) == 1:
                    fixed[v] = ks.pop()
                else:
                    rows[v] = [int(k in ks) for k in range(n)]
    except KeyError as missing:
        raise ValidationError(f"symbol {shown(missing.args[0])} is not in the chain alphabet") from None
    columns, factor = chain.integer_columns, 1
    # Leaves first: a child's index exceeds its parent's.
    for i in range(len(parent) - 1, 0, -1):
        u, c = parent[i], fixed[i]
        if (b := fixed[u]) >= 0:
            row = matrices[letter[i]][b]
            factor *= row[c] if c >= 0 else sum(map(mul, row, rows[i]))
            if not factor:
                break
        elif c >= 0:
            column, up = columns[letter[i]][c], rows[u]
            rows[u] = column if up is None else list(map(mul, up, column))
        elif (up := rows[u]) is None:
            sub = rows[i]
            rows[u] = [sum(map(mul, row, sub)) for row in matrices[letter[i]]]
        else:
            sub = rows[i]
            rows[u] = [x and x * sum(map(mul, row, sub)) for x, row in zip(up, matrices[letter[i]])]
    if (root := fixed[0]) >= 0:
        factor *= p[root]
    else:
        factor *= sum(p) if rows[0] is None else sum(map(mul, p, rows[0]))
    return Fraction(factor, scale ** len(parent))
