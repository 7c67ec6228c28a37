"""Theorem-E family: a chain on pairs mod p that is invariant over the free
semigroup but provably inconsistent with any extension to the group.

Two-by-two integer matrices act on (Z_p)^2; ``counterexample_chain``
builds the invariant chain they drive, and ``counterexample_analyze``
evaluates a kernel word mod p and finds a vector it moves, which bounds
the off-map probability any group extension would need.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebra import GeneratorSet, Record, Symbol, Word
from .errors import (
    MAX_PATTERNS,
    DeltaOutOfRange,
    EmptyWord,
    NonInvertibleModP,
    NoWitness,
    ValidationError,
)
from .measure import Matrix, MarkovTreeChain

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
