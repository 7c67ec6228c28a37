"""Differential property tests of the cylinder kernel against enumeration.

Chains are drawn with zero transition entries, unrelated denominators in
p and in each row of each generator's matrix, and Sigma with or without
inverse pairs.  Constraints put allowed-symbol sets on up to four sites of depth
up to four: single symbols, several, none (as ``MarkovizedMeasure.eval`` passes
for a symbol no block shows), and tuples that repeat a symbol.
Every value is compared with ``oracle_eval_constrained``, which sums over
every admissible labelling of a hull it computes itself.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from helpers import oracle_eval_constrained, oracle_hull
from semishift import (
    GeneratorSet,
    InvalidChain,
    MarkovTreeChain,
    MembershipError,
    Pattern,
    Symbol,
    ValidationError,
    Word,
    eval_constrained,
    eval_cylinder,
)

SIGNED = (1, -1, 2, -2)
ALPHABET = ("x", "y", "z")
# Largest number of labellings the oracle enumerates for one example.
MAX_TERMS = 2048


@st.composite
def chains(draw):
    signed = draw(st.lists(st.sampled_from(SIGNED), min_size=1, max_size=4, unique=True))
    gs = GeneratorSet.from_signed(signed)
    n = draw(st.sampled_from((2, 3, 1)))
    weights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    p = [Fraction(w, sum(weights)) for w in weights]
    row = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
    matrices = {}
    for sym in gs.symbols():
        rows = draw(st.lists(row, min_size=n, max_size=n))
        matrices[sym] = [[Fraction(x, sum(r)) for x in r] for r in rows]
    return MarkovTreeChain.make(gs, ALPHABET[:n], p, matrices)


@st.composite
def words(draw, letters, max_len=4):
    """A reduced word of length <= max_len over the given letters."""
    out = []
    for _ in range(draw(st.integers(0, max_len))):
        options = [s for s in letters if not out or s != out[-1].inverse()]
        out.append(draw(st.sampled_from(options)))
    return Word(tuple(out))


def terms(chain, constraints) -> int:
    n = len(chain.alphabet)
    count = 1
    for w in oracle_hull(constraints):
        count *= len(constraints[w]) if w in constraints else n
    return count


@st.composite
def constrained(draw, singletons=False):
    """A chain and up to four constrained sites in S of depth <= 4."""
    chain = draw(chains())
    symbols = st.sampled_from(chain.alphabet)
    sets = (
        st.tuples(symbols)
        if singletons
        else st.one_of(st.frozensets(symbols), st.lists(symbols, min_size=2, max_size=3).map(tuple))
    )
    constraints = {}
    for _ in range(draw(st.integers(1, 4))):
        w = draw(words(chain.gs.symbols()))
        trial = {**constraints, w: draw(sets)}
        if terms(chain, trial) <= MAX_TERMS:
            constraints = trial
    return chain, constraints


@given(constrained())
def test_eval_constrained_matches_enumeration(case):
    chain, constraints = case
    value = eval_constrained(chain, constraints)
    assert type(value) is Fraction
    assert value == oracle_eval_constrained(chain, constraints)


@given(constrained(singletons=True))
def test_eval_cylinder_matches_enumeration(case):
    chain, constraints = case
    pattern = Pattern.of({w: c for w, (c,) in constraints.items()})
    value = eval_cylinder(chain, pattern)
    assert type(value) is Fraction
    assert value == oracle_eval_constrained(chain, constraints)
    assert value == eval_constrained(chain, constraints)


@given(constrained(), st.data())
def test_unknown_symbol_raises_validation_error(case, data):
    chain, constraints = case
    w = data.draw(st.sampled_from(sorted(constraints, key=Word.key)))
    bad = {**constraints, w: (*constraints[w], "unknown")}
    with pytest.raises(ValidationError, match="'unknown' is not in the chain alphabet"):
        eval_constrained(chain, bad)


@given(constrained(), st.data())
def test_site_outside_semigroup_raises_membership_error(case, data):
    chain, constraints = case
    outside = [s for s in map(Symbol.from_signed, (1, -1, 2, -2, 3)) if s not in chain.gs.sigma]
    head = data.draw(st.sampled_from(outside))
    tail = data.draw(words(chain.gs.symbols(), max_len=3))
    if tail.letters and tail.letters[0] == head.inverse():
        tail = Word()
    site = Word((head, *tail.letters))
    with pytest.raises(MembershipError, match=f"site {site} is not in"):
        eval_constrained(chain, {**constraints, site: chain.alphabet[:1]})
    with pytest.raises(MembershipError):
        eval_cylinder(chain, Pattern.of({site: chain.alphabet[0]}))


# Sigma = {a1}; P[a1] never leads from x to y, so the edge from a fixed x
# to a fixed y has weight 0 and the fold may stop there.
A1 = Symbol.from_signed(1)
ZERO_EDGE = MarkovTreeChain.make(
    GeneratorSet.from_signed((1,)),
    ("x", "y"),
    (Fraction(1, 2), Fraction(1, 2)),
    {1: [[1, 0], [Fraction(1, 2), Fraction(1, 2)]]},
)
# a1a1 -> a1a1a1 is the highest vertex pair, so the leaves-first fold meets it first.
ZERO_TAIL = {Word((A1, A1)): ("x",), Word((A1, A1, A1)): ("y",)}


def test_a_zero_edge_gives_zero():
    value = eval_constrained(ZERO_EDGE, {Word((A1,)): ("x", "y"), **ZERO_TAIL})
    assert type(value) is Fraction and value == 0
    assert value == oracle_eval_constrained(ZERO_EDGE, {Word((A1,)): ("x", "y"), **ZERO_TAIL})


@pytest.mark.parametrize("first", (True, False))
def test_bad_input_is_refused_even_after_a_zero_edge(first):
    def around(bad):
        return {**bad, **ZERO_TAIL} if first else {**ZERO_TAIL, **bad}

    with pytest.raises(ValidationError, match="'unknown' is not in the chain alphabet"):
        eval_constrained(ZERO_EDGE, around({Word((A1,)): ("x", "unknown")}))
    with pytest.raises(ValidationError, match="'unknown' is not in the chain alphabet"):
        eval_cylinder(ZERO_EDGE, Pattern.of(around({Word((A1,)): "unknown"})))
    outside = Word((Symbol.from_signed(2),))
    with pytest.raises(MembershipError, match=f"site {outside} is not in"):
        eval_constrained(ZERO_EDGE, around({outside: ("x",)}))
    with pytest.raises(MembershipError, match=f"site {outside} is not in"):
        eval_cylinder(ZERO_EDGE, Pattern.of(around({outside: "x"})))


@given(constrained(singletons=True), st.sampled_from(("p", "row", "negative")))
def test_invalid_chain_raises_invalid_chain(case, defect):
    chain, constraints = case
    p = list(chain.p)
    matrices = {sym: [list(r) for r in rows] for sym, rows in chain.transitions}
    first = matrices[chain.gs.symbols()[0]]
    if defect == "p":
        p[0] *= 2
    elif defect == "row":
        first[0][0] += 1
    else:
        first[0][0] -= 2
        if len(first[0]) > 1:  # keep the row sum at 1: only the sign is wrong
            first[0][1] += 2
    bad = MarkovTreeChain.make(chain.gs, chain.alphabet, p, matrices)
    with pytest.raises(InvalidChain):
        eval_constrained(bad, constraints)
    with pytest.raises(InvalidChain):
        eval_cylinder(bad, Pattern.of({w: c for w, (c,) in constraints.items()}))
