"""The counterexample witness against an independent brute-force search.

The search multiplies the kernel word's matrices mod p by hand and scans
every vector (x, y), y outer and x inner, for the first one the product
moves.  ``counterexample_analyze`` tries only (1, 0) and (0, 1); both must
report the same witness, or both find none.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from semishift import NoWitness, Symbol, Word, counterexample_analyze


def brute_force_witness(matrices, letters, p):
    """(witness, image) of the first vector the word's product moves mod p, or None."""

    def times(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(2)) % p for j in range(2)] for i in range(2)]

    def inverse(m):
        det = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p
        dinv = next(d for d in range(1, p) if d * det % p == 1)
        return [[m[1][1] * dinv % p, -m[0][1] * dinv % p],
                [-m[1][0] * dinv % p, m[0][0] * dinv % p]]

    product = [[1, 0], [0, 1]]
    for index, sign in letters:
        m = [[x % p for x in row] for row in matrices[index - 1]]
        product = times(product, m if sign > 0 else inverse(m))
    for y in range(p):
        for x in range(p):
            image = tuple((row[0] * x + row[1] * y) % p for row in product)
            if image != (x, y):
                return (x, y), image
    return None


def invertible(p):
    entries = st.integers(-6, 6)
    matrix = st.lists(st.lists(entries, min_size=2, max_size=2), min_size=2, max_size=2)
    return matrix.filter(lambda m: (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p)


@st.composite
def cases(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    matrices = draw(st.lists(invertible(p), min_size=1, max_size=3))
    letter = st.tuples(st.integers(1, len(matrices)), st.sampled_from((1, -1)))
    letters = draw(
        st.lists(letter, min_size=1, max_size=3).filter(
            # a reduced word: no letter next to its inverse
            lambda ls: all(a != (b[0], -b[1]) for a, b in zip(ls, ls[1:]))
        )
    )
    return p, matrices, letters


@given(cases())
def test_two_probe_witness_matches_brute_force(case):
    p, matrices, letters = case
    word = Word(tuple(Symbol(i, s) for i, s in letters))
    expected = brute_force_witness(matrices, letters, p)
    if expected is None:
        with pytest.raises(NoWitness):
            counterexample_analyze(matrices, word, p)
    else:
        report = counterexample_analyze(matrices, word, p)
        assert (report.witness, report.witness_image) == expected
