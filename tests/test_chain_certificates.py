"""``validate_chain`` and ``is_invariant_chain`` decide on the chain's
integer form; here they are held to the plain-``Fraction`` checks they
replace: the same ``ok``, the same problems in the same order, and the same
witness text.  Chains are drawn invariant, with corrupted entries (negative,
zero, rows that do not sum to 1), and valid but not invariant (p off an
eigenvector, or detailed balance broken), over Sigma with and without
inverse pairs.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_balance_violation, random_eigenvector_violation, random_invariant_chain
from semishift import InvalidChain, MarkovTreeChain, is_invariant_chain, validate_chain

ZERO = Fraction(0)
SIGMAS = ((1,), (1, 2), (1, -1), (1, -1, 2), (2, -2, 1, -1))
ENTRIES = st.fractions(min_value=-1, max_value=2, max_denominator=12)


def oracle_problems(chain: MarkovTreeChain) -> list[str]:
    problems = []
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
    return problems


def oracle_invariance(chain: MarkovTreeChain) -> tuple[bool, str | None]:
    p, n = chain.p, len(chain.p)
    matrix = dict(chain.transitions)
    for sym in chain.gs.symbols():
        rows = matrix[sym]
        for l in range(n):
            lhs = sum((p[k] * rows[k][l] for k in range(n)), ZERO)
            if lhs != p[l]:
                return False, f"(p P^{sym})[{l}] = {lhs} != p[{l}] = {p[l]}"
    for sym, inv in chain.gs.inverse_pairs():
        for k in range(n):
            for l in range(n):
                lhs, rhs = p[k] * matrix[inv][k][l], p[l] * matrix[sym][l][k]
                if lhs != rhs:
                    return False, (f"balance fails: p[{k}] P^{inv}[{k}][{l}] = {lhs} "
                                   f"!= p[{l}] P^{sym}[{l}][{k}] = {rhs}")
    return True, None


@st.composite
def chains(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("invariant", "corrupted", "skewed", "unbalanced")))
    if kind == "unbalanced":
        return random_balance_violation(rng, max(n, 2))
    signed = draw(st.sampled_from(SIGMAS))
    if kind == "skewed":
        return random_eigenvector_violation(rng, signed, max(n, 2))
    chain = random_invariant_chain(rng, signed, n)
    if kind == "invariant":
        return chain
    # Overwrite a few entries of p or of one row with arbitrary rationals.
    p = list(chain.p)
    matrices = {sym: [list(row) for row in rows] for sym, rows in chain.transitions}
    for _ in range(draw(st.integers(1, 4))):
        sym = draw(st.sampled_from([None, *matrices]))
        target = p if sym is None else matrices[sym][draw(st.integers(0, n - 1))]
        target[draw(st.integers(0, n - 1))] = draw(ENTRIES)
    return MarkovTreeChain.make(chain.gs, chain.alphabet, p, matrices)


@given(chains())
def test_integer_certificates_match_the_fraction_checks(chain):
    problems = oracle_problems(chain)
    diag = validate_chain(chain)
    assert list(diag.problems) == problems
    assert diag.ok == (not problems)
    if problems:
        with pytest.raises(InvalidChain):
            is_invariant_chain(chain)
        return
    result = is_invariant_chain(chain)
    assert (result.ok, result.witness) == oracle_invariance(chain)

