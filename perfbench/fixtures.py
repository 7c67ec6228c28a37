"""Seeded inputs for the benchmark workloads.

Two random streams are kept apart.  The *structure* stream has a fixed
seed and picks everything that sets the amount of work: pattern sites,
the base morphisms behind periodic orbits, and which symbols a periodic
pattern repeats.  The *value* stream is seeded from ``--seed`` and draws
only numbers: probabilities, matrix entries, pattern symbols, a
renaming of the alphabet and a conjugation of each morphism.  Every seed
therefore asks the program for the same amount of work.

Chains are built from raw data (a probability vector and one row list
per signed generator) so that the brute-force oracle in ``oracle.py``
can evaluate them without going through the library.
"""

from __future__ import annotations

import random
from fractions import Fraction

STRUCTURE_SEED = "perfbench-structure-v1"


def structure_rng(tag: str) -> random.Random:
    return random.Random(f"{STRUCTURE_SEED}:{tag}")


def value_rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


# -- probabilities and stochastic matrices, all entries strictly positive


def positive_distribution(rng: random.Random, n: int, total: int = 13) -> list[Fraction]:
    """Strictly positive, summing to 1, every entry a multiple of 1/total.

    With a prime total every entry has exactly that denominator, which
    keeps the size of the exact arithmetic, and so the cost of an op, the
    same from seed to seed.
    """
    cuts = sorted(rng.sample(range(1, total), n - 1))
    return [Fraction(b - a, total) for a, b in zip([0] + cuts, cuts + [total])]


def stochastic(rng: random.Random, n: int) -> list[list[Fraction]]:
    return [positive_distribution(rng, n) for _ in range(n)]


def _lazy_resampling(rng: random.Random, p) -> list[list[Fraction]]:
    """(1 - t) I + t Q, where every row of Q is p: p-invariant and in balance.

    t is a multiple of 1/13 like p, so every entry has denominator 169
    and op costs stay alike across seeds.
    """
    t = Fraction(rng.randint(1, 12), 13)
    n = len(p)
    return [[t * p[l] + (1 - t if k == l else 0) for l in range(n)] for k in range(n)]


def reversal(p, m):
    """Time reversal (p_l / p_k) m[l][k]: the matrix in balance with m."""
    n = len(p)
    return [[p[l] / p[k] * m[l][k] for l in range(n)] for k in range(n)]


def invariant_chain(rng: random.Random, signed: tuple[int, ...], n: int) -> dict:
    """Raw chain data passing the invariance certificate."""
    p = positive_distribution(rng, n)
    P = {}
    for s in signed:
        if not (s < 0 and -s in signed):
            P[s] = _lazy_resampling(rng, p)
    for s in signed:
        if s < 0 and -s in signed:
            P[s] = reversal(p, P[-s])
    return {"signed": signed, "alphabet": tuple(range(n)), "p": p, "P": P}


def iid_chain(signed: tuple[int, ...], probs) -> dict:
    """A chain whose every row is the marginal: the Bernoulli measure."""
    n = len(probs)
    rows = [list(probs) for _ in range(n)]
    return {"signed": signed, "alphabet": tuple(range(n)), "p": list(probs),
            "P": {s: rows for s in signed}}


def random_chain(rng: random.Random, signed: tuple[int, ...], n: int) -> dict:
    """Valid chain with positive entries, generally not invariant."""
    return {"signed": signed, "alphabet": tuple(range(n)),
            "p": positive_distribution(rng, n),
            "P": {s: stochastic(rng, n) for s in signed}}


def eigen_violation(rng: random.Random, signed: tuple[int, ...], n: int) -> dict:
    """Invariant chain with mass moved out of column 0 of P[signed[0]].

    (p P)[0] drops below p[0], so a scan along signed[0] finds its
    witness on the first radius-0 pattern, whatever the seed.
    """
    raw = invariant_chain(rng, signed, n)
    rows = [list(r) for r in raw["P"][signed[0]]]
    eps = rows[0][0] / 2
    rows[0][0] -= eps
    rows[0][1] += eps
    raw["P"][signed[0]] = rows
    return raw


def balance_violation(rng: random.Random, n: int) -> dict:
    """Sigma (1, -1): p is fixed by both matrices but balance fails.

    P[-1] is a lazy version of the reversal of P[1], so its diagonal
    differs from P[1]'s; radius 0 passes and the scan along a1 stops at
    the first radius-1 pattern, whatever the seed.
    """
    raw = invariant_chain(rng, (1, -1), n)
    t = Fraction(rng.randint(1, 4), 5)
    rev = raw["P"][-1]
    raw["P"][-1] = [
        [(1 - t) * rev[k][l] + (t if k == l else 0) for l in range(n)] for k in range(n)
    ]
    return raw


# -- words and sites


def random_word(rng: random.Random, signed: tuple[int, ...], depth: int) -> tuple[int, ...]:
    """Reduced word of the given length over the letters in Sigma."""
    letters: list[int] = []
    while len(letters) < depth:
        s = rng.choice(signed)
        if letters and letters[-1] == -s:
            continue
        letters.append(s)
    return tuple(letters)


def ball_words(signed: tuple[int, ...], r: int) -> list[tuple[int, ...]]:
    """Every reduced word of length <= r over Sigma, in the library's order."""
    words = [()]
    frontier = [()]
    for _ in range(r):
        frontier = [(s,) + w for w in frontier for s in signed if not (w and w[0] == -s)]
        words.extend(frontier)
    return sorted(set(words), key=lambda w: (len(w), [(abs(s), 0 if s > 0 else 1) for s in w]))


# -- permutations for periodic orbits


def base_generators(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A transposition and a k-cycle: they generate the symmetric group S_k."""
    swap = (1, 0) + tuple(range(2, k))
    cycle = tuple((i + 1) % k for i in range(k))
    return swap, cycle


def conjugate(perm: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for i, x in enumerate(sigma):
        inv[x] = i
    return tuple(sigma[perm[inv[i]]] for i in range(len(perm)))


def random_perm(rng: random.Random, k: int) -> tuple[int, ...]:
    p = list(range(k))
    rng.shuffle(p)
    return tuple(p)


# -- exact values in files and reports


def fraction_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def value_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return fraction_text(v)
    return str(v)
