"""Builders and independent oracles shared across the test suite.

The evaluation oracles here deliberately repeat no library code: hulls
are recomputed from scratch and masses obtained by enumerating every
completion, so an agreement with the package is meaningful.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

from semishift import (
    EPSILON,
    GeneratorSet,
    InvalidChain,
    MarkovTreeChain,
    OrbitAutomaton,
    Symbol,
    ValidationError,
    Word,
)

ZERO = Fraction(0)


def positive_distribution(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """Random strictly positive rational vector summing to 1."""
    weights = [rng.randint(1, 6) for _ in range(n)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def stochastic_row(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return positive_distribution(rng, n)


def random_stochastic(rng: random.Random, n: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(stochastic_row(rng, n) for _ in range(n))


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n))
        for i in range(n)
    )


def metropolis(p, rng: random.Random):
    """Stochastic matrix in detailed balance with p, hence p-invariant.

    Accept moves i -> j of a random symmetric proposal with probability
    min(1, p_j/p_i); rejected mass stays on the diagonal.
    """
    n = len(p)
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c[i][j] = c[j][i] = rng.randint(0, 4)
    cap = max(1, max(sum(row) for row in c))
    rows = []
    for i in range(n):
        row = [ZERO] * n
        off = ZERO
        for j in range(n):
            if j != i:
                accept = min(Fraction(1), Fraction(p[j], p[i]))
                row[j] = Fraction(c[i][j], cap) * accept
                off += row[j]
        row[i] = 1 - off
        rows.append(tuple(row))
    return tuple(rows)


def invariant_matrix(p, rng: random.Random):
    """p-invariant stochastic matrix, generally without detailed balance."""
    return matmul(metropolis(p, rng), metropolis(p, rng))


def balance_transform(p, m):
    """The time reversal (p_l / p_k) m[l][k]; pairs with m under p."""
    n = len(p)
    return tuple(
        tuple(p[l] / p[k] * m[l][k] for l in range(n)) for k in range(n)
    )


def random_invariant_chain(
    rng: random.Random, signed=(1, 2), n: int = 2
) -> MarkovTreeChain:
    """Chain passing is_invariant_chain: eigenvector plus detailed balance."""
    gs = GeneratorSet.from_signed(signed)
    p = positive_distribution(rng, n)
    matrices = {}
    for sym in gs.symbols():
        if sym.sign > 0 or sym.inverse() not in gs.sigma:
            matrices[sym] = invariant_matrix(p, rng)
    for sym in gs.symbols():
        if sym.sign < 0 and sym.inverse() in gs.sigma:
            matrices[sym] = balance_transform(p, matrices[sym.inverse()])
    return MarkovTreeChain.make(gs, tuple(range(n)), p, matrices)


def random_eigenvector_violation(
    rng: random.Random, signed=(1, 2), n: int = 2
) -> MarkovTreeChain:
    """Valid chain whose p is not a left eigenvector of some P^a."""
    gs = GeneratorSet.from_signed(signed)
    while True:
        p = positive_distribution(rng, n)
        matrices = {sym: random_stochastic(rng, n) for sym in gs.symbols()}
        bad = any(
            tuple(
                sum((p[k] * m[k][l] for k in range(n)), ZERO) for l in range(n)
            )
            != p
            for m in matrices.values()
        )
        if bad:
            return MarkovTreeChain.make(gs, tuple(range(n)), p, matrices)


def random_balance_violation(rng: random.Random, n: int = 2) -> MarkovTreeChain:
    """pP^a = p for both signs of a, but detailed balance fails."""
    gs = GeneratorSet.from_signed((1, -1))
    while True:
        p = positive_distribution(rng, n)
        fwd = invariant_matrix(p, rng)
        bwd = invariant_matrix(p, rng)
        if bwd != balance_transform(p, fwd):
            return MarkovTreeChain.make(
                gs, tuple(range(n)), p, {Symbol(1, 1): fwd, Symbol(1, -1): bwd}
            )


def oracle_hull(sites):
    """Ancestor closure under leading-letter removal, recomputed here."""
    hull = {EPSILON}
    for w in sites:
        while len(w) > 0:
            hull.add(w)
            w = Word(w.letters[1:])
    return sorted(hull, key=Word.key)


def oracle_word_mul(u: Word, v: Word) -> tuple[int, ...]:
    """The reduced product of two words as signed generator indices, by a
    stack that cancels each index against its negative."""
    stack: list[int] = []
    for x in [s.signed for s in u.letters + v.letters]:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def trial_division_is_prime(n: int) -> bool:
    """Primality by trial division up to the square root of n."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def traced_peak(compute):
    """``compute()`` and the peak number of bytes Python allocated while it ran."""
    tracemalloc.start()
    try:
        return compute(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def oracle_eval(chain: MarkovTreeChain, pattern) -> Fraction:
    """Mass by enumerating every completion of the hull, no DP."""
    return oracle_eval_constrained(chain, {w: (c,) for w, c in pattern.items()})


def oracle_eval_constrained(chain: MarkovTreeChain, constraints) -> Fraction:
    """Mass of 'each site's symbol lies in its allowed set', by enumeration.

    Every labelling of the hull that respects the constraints contributes
    p at the root times one transition factor per edge; no DP.
    """
    idx = {c: i for i, c in enumerate(chain.alphabet)}
    allowed = {w: sorted({idx[c] for c in cs}) for w, cs in constraints.items()}
    hull = oracle_hull(allowed)
    choices = [allowed.get(w, range(len(chain.alphabet))) for w in hull]
    total = ZERO
    for combo in itertools.product(*choices):
        x = dict(zip(hull, combo))
        weight = chain.p[x[EPSILON]]
        for w in hull:
            if len(w) > 0:
                parent = Word(w.letters[1:])
                weight *= chain.matrix[w.letters[0]][x[parent]][x[w]]
        total += weight
    return total


def eval_cylinder_bruteforce(chain: MarkovTreeChain, pattern) -> Fraction:
    """Mass by enumerating every completion of the hull, one edge per site.

    Unlike oracle_eval it refuses an invalid chain and an unknown symbol
    with the errors ``eval_cylinder`` raises.
    """
    if not chain.diagnostics:
        raise InvalidChain("; ".join(chain.diagnostics.problems))
    index = chain.symbol_index
    for w, c in pattern.items():
        if c not in index:
            raise ValidationError(f"symbol {c!r} is not in the chain alphabet")
    hull = oracle_hull(pattern.domain())
    fixed = {w: index[c] for w, c in pattern.items()}
    free = [w for w in hull if w not in fixed]
    edges = [(Word(w.letters[1:]), w, w.letters[0]) for w in hull if len(w) > 0]
    n = len(chain.alphabet)
    total = ZERO
    for combo in itertools.product(range(n), repeat=len(free)):
        site = dict(fixed)
        site.update(zip(free, combo))
        term = chain.p[site[EPSILON]]
        for parent, child, g in edges:
            term *= chain.matrix[g][site[parent]][site[child]]
        total += term
    return total


def rerooted_eval(chain: MarkovTreeChain, pattern, new_root: Word) -> Fraction:
    """Mass with the hull re-rooted: edges toward the root use P^{a^-1}.

    Only meaningful when Sigma carries both signs of every letter on the
    hull; for invariant chains the value must not depend on the root.
    """
    idx = {c: i for i, c in enumerate(chain.alphabet)}
    fixed = {w: idx[c] for w, c in pattern.items()}
    hull = oracle_hull(fixed)
    assert new_root in hull
    neighbours = {w: [] for w in hull}
    for w in hull:
        if len(w) > 0:
            parent = Word(w.letters[1:])
            neighbours[parent].append((w, w.letters[0], False))
            neighbours[w].append((parent, w.letters[0], True))
    order = [(new_root, None, None, None)]
    seen = {new_root}
    queue = [new_root]
    while queue:
        v = queue.pop()
        for u, sym, reversed_ in neighbours[v]:
            if u not in seen:
                seen.add(u)
                order.append((u, v, sym, reversed_))
                queue.append(u)
    free = [w for w in hull if w not in fixed]
    total = ZERO
    for combo in itertools.product(range(len(chain.alphabet)), repeat=len(free)):
        x = dict(fixed)
        x.update(zip(free, combo))
        weight = chain.p[x[new_root]]
        for v, parent, sym, reversed_ in order[1:]:
            if reversed_:
                weight *= chain.matrix[sym.inverse()][x[parent]][x[v]]
            else:
                weight *= chain.matrix[sym][x[parent]][x[v]]
        total += weight
    return total


def lattice_interval_eval(p, P, pattern) -> Fraction:
    """Stationary 1D chain mass by full-interval enumeration."""
    sites = {v[0]: c for v, c in pattern.items()}
    lo, hi = min(sites), max(sites)
    total = ZERO
    n = len(p)
    for combo in itertools.product(range(n), repeat=hi - lo + 1):
        if any(combo[t - lo] != sites[t] for t in sites):
            continue
        weight = p[combo[0]]
        for i in range(len(combo) - 1):
            weight *= P[combo[i]][combo[i + 1]]
        total += weight
    return total


def random_automaton(
    rng: random.Random, n: int, permutations: bool
) -> OrbitAutomaton:
    """Reachable two-generator automaton with binary labels."""
    gs = GeneratorSet.from_signed((1, 2))
    rows = {}
    for sym in gs.symbols():
        if permutations:
            row = list(range(n))
            rng.shuffle(row)
        else:
            row = [rng.randrange(n) for _ in range(n)]
        rows[sym] = row
    labels = [rng.randrange(2) for _ in range(n)]
    reachable = {0}
    queue = [0]
    while queue:
        q = queue.pop()
        for row in rows.values():
            if row[q] not in reachable:
                reachable.add(row[q])
                queue.append(row[q])
    kept = sorted(reachable)
    index = {q: i for i, q in enumerate(kept)}
    return OrbitAutomaton(
        gs=gs,
        alphabet=(0, 1),
        labels=tuple(labels[q] for q in kept),
        delta={s: tuple(index[rows[s][q]] for q in kept) for s in rows},
        base=index[0],
    )


def oracle_monoid(o: OrbitAutomaton) -> tuple[int, bool]:
    """Transformation monoid size and group flag, recomputed without minimized.

    Two states are one configuration iff their labels agree after every
    sequence of moves shorter than the number of states (Moore's bound).
    The monoid is the closure of the generator maps on those classes,
    and it is a group iff every one of its elements is a bijection.
    """
    n = o.n_states()
    rows = list(o.delta.values())

    def signature(q):
        out = []
        for length in range(n):
            for moves in itertools.product(rows, repeat=length):
                r = q
                for row in moves:
                    r = row[r]
                out.append(o.labels[r])
        return tuple(out)

    signatures = [signature(q) for q in range(n)]
    classes = {sig: i for i, sig in enumerate(dict.fromkeys(signatures))}
    reps = {classes[sig]: q for q, sig in reversed(list(enumerate(signatures)))}
    k = len(classes)
    maps = [
        tuple(classes[signatures[row[reps[c]]]] for c in range(k)) for row in rows
    ]
    identity = tuple(range(k))
    monoid = {identity}
    queue = [identity]
    while queue:
        f = queue.pop()
        for g in maps:
            h = tuple(g[f[c]] for c in range(k))
            if h not in monoid:
                monoid.add(h)
                queue.append(h)
    return len(monoid), all(sorted(f) == list(identity) for f in monoid)


def swap_orbit() -> OrbitAutomaton:
    """Two states with alternating labels; every generator swaps them."""
    gs = GeneratorSet.from_signed((1, 2))
    return OrbitAutomaton(
        gs=gs,
        alphabet=(0, 1),
        labels=(0, 1),
        delta={Symbol(1, 1): (1, 0), Symbol(2, 1): (1, 0)},
        base=0,
    )


def two_point_orbit() -> OrbitAutomaton:
    """Base x with a sending x to y (both absorbing-ish): a is constant y,
    b is constant x.  Pre-periodic but not periodic."""
    gs = GeneratorSet.from_signed((1, 2))
    return OrbitAutomaton(
        gs=gs,
        alphabet=(0, 1),
        labels=(0, 1),
        delta={Symbol(1, 1): (1, 1), Symbol(2, 1): (0, 0)},
        base=0,
    )


def worked_chain(d: int = 1) -> MarkovTreeChain:
    """The (1/3, 2/3) chain with P = [[1/2,1/2],[1/4,3/4]] per generator."""
    gs = GeneratorSet.from_signed(tuple(range(1, d + 1)))
    P = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4)))
    return MarkovTreeChain.make(
        gs,
        (0, 1),
        (Fraction(1, 3), Fraction(2, 3)),
        {sym: P for sym in gs.symbols()},
    )
