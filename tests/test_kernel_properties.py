"""Differential property tests of the cylinder kernel against enumeration.

Chains are drawn with zero transition entries, unrelated denominators in
p and in each row of each generator's matrix, and Sigma with or without
inverse pairs.  Constraints put allowed-symbol sets on up to four sites of depth
up to four: single symbols, several, none (as ``MarkovizedMeasure.eval`` passes
for a symbol no block shows), and tuples that repeat a symbol.
Every value is compared with ``oracle_eval_constrained``, which sums over
every admissible labelling of a hull it computes itself.  A pattern keeps
its hull once evaluated, so warm patterns are compared with fresh ones,
across chains over different Sigma and alphabets.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
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
from semishift.measure import _Constraints

SIGNED = (1, -1, 2, -2)
ALPHABET = ("x", "y", "z")
# Largest number of labellings the oracle enumerates for one example.
MAX_TERMS = 2048


@st.composite
def chains(draw, signed=None):
    if signed is None:
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


@settings(max_examples=200, derandomize=True)
@given(constrained())
def test_eval_constrained_matches_enumeration(case):
    chain, constraints = case
    value = eval_constrained(chain, constraints)
    assert type(value) is Fraction
    assert value == oracle_eval_constrained(chain, constraints)


@settings(max_examples=200, derandomize=True)
@given(constrained(singletons=True))
def test_eval_cylinder_matches_enumeration(case):
    chain, constraints = case
    pattern = Pattern.of({w: c for w, (c,) in constraints.items()})
    value = eval_cylinder(chain, pattern)
    assert type(value) is Fraction
    assert value == oracle_eval_constrained(chain, constraints)
    assert value == eval_constrained(chain, constraints)


@st.composite
def shared_parents(draw):
    """A chain and constraints on two or more children of one hidden vertex w.

    The last child listed is fixed: its vertex is the hull's newest, so the
    leaves-first fold meets it first and w's row starts as the chain's own
    column tuple.  Each other child is fixed too, allowed a set of symbols,
    or left free with a fixed child of its own.
    """
    chain = draw(chains(signed=draw(st.sampled_from(((1, 2), (1, -1, 2), (1, 2, -2))))))
    w = draw(words(chain.gs.symbols(), max_len=2)).letters
    letters = [s for s in chain.gs.symbols() if not w or s != w[0].inverse()]
    kids = draw(st.lists(st.sampled_from(letters), min_size=2, max_size=3, unique=True))
    symbols = st.sampled_from(chain.alphabet)
    constraints = {}
    for g in kids[:-1]:
        kind = draw(st.sampled_from(("fixed", "set", "grandchild")))
        if kind == "fixed":
            constraints[Word((g, *w))] = (draw(symbols),)
        elif kind == "set":
            constraints[Word((g, *w))] = draw(st.frozensets(symbols, min_size=1))
        else:
            h = draw(st.sampled_from([s for s in chain.gs.symbols() if s != g.inverse()]))
            constraints[Word((h, g, *w))] = (draw(symbols),)
    constraints[Word((kids[-1], *w))] = (draw(symbols),)
    return chain, constraints


@given(shared_parents())
def test_a_row_taken_from_the_chain_is_never_written(case):
    """A fixed child's column becomes its parent's row as it stands; later
    children leave the chain's integer form and columns as a fresh equal
    chain builds them, and every evaluation after them still agrees."""
    chain, constraints = case
    fresh = MarkovTreeChain(chain.gs, chain.alphabet, chain.p, chain.transitions)
    cylinder = {w: (min(ok),) for w, ok in constraints.items()}
    pattern = Pattern.of({w: c for w, (c,) in cylinder.items()})
    values = eval_constrained(chain, constraints), eval_cylinder(chain, pattern)
    assert chain.integer_form == fresh.integer_form
    assert chain.integer_columns == fresh.integer_columns
    assert values == (eval_constrained(chain, constraints), eval_cylinder(chain, pattern))
    assert values == (
        oracle_eval_constrained(chain, constraints),
        oracle_eval_constrained(chain, cylinder),
    )


@given(constrained())
def test_a_pattern_view_folds_as_its_plain_mapping(case):
    """``_Constraints(pattern, allow)`` stands for ``{w: allow(c)}``: it equals
    that dict, lists the sites in the pattern's entry order, and folds to the
    same mass on a cold pattern and on a warm one."""
    chain, constraints = case
    tags = {w: i for i, w in enumerate(constraints)}
    allow = {i: constraints[w] for w, i in tags.items()}.__getitem__
    pattern = Pattern.of(tags)
    view = _Constraints(pattern, allow)
    assert view == constraints and list(view) == list(pattern.domain())
    value = oracle_eval_constrained(chain, constraints)
    assert eval_constrained(chain, view) == value
    assert eval_constrained(chain, _Constraints(pattern, allow)) == value


@given(constrained(), st.data())
def test_unknown_symbol_raises_validation_error(case, data):
    chain, constraints = case
    w = data.draw(st.sampled_from(sorted(constraints, key=Word.key)))
    bad = {**constraints, w: (*constraints[w], "unknown")}
    with pytest.raises(ValidationError, match="'unknown' is not in the chain alphabet"):
        eval_constrained(chain, bad)


def outside_site(data, gs):
    """A reduced word of up to four letters whose first letter is outside gs."""
    outside = [s for s in map(Symbol.from_signed, (*SIGNED, 3)) if s not in gs.sigma]
    head = data.draw(st.sampled_from(outside))
    tail = data.draw(words(gs.symbols(), max_len=3))
    if tail.letters and tail.letters[0] == head.inverse():
        tail = Word()
    return Word((head, *tail.letters))


@given(constrained(), st.data())
def test_site_outside_semigroup_raises_membership_error(case, data):
    chain, constraints = case
    site = outside_site(data, chain.gs)
    with pytest.raises(MembershipError, match=f"site {site} is not in"):
        eval_constrained(chain, {**constraints, site: chain.alphabet[:1]})
    with pytest.raises(MembershipError):
        eval_cylinder(chain, Pattern.of({site: chain.alphabet[0]}))


def outcome(chain, pattern):
    """The pattern's mass, or the type and text of the error that refuses it."""
    try:
        return eval_cylinder(chain, pattern)
    except ValidationError as error:
        return type(error), str(error)


@given(constrained(singletons=True), chains())
def test_a_warm_pattern_evaluates_as_a_cold_one(case, other):
    """A pattern keeps its hull from its first evaluation on:
    every later one, by this chain or by a chain over another Sigma and
    alphabet, gives what a fresh pattern gives."""
    chain, constraints = case
    entries = {w: c for w, (c,) in constraints.items()}
    pattern = Pattern.of(entries)
    value = eval_cylinder(chain, pattern)
    assert value == oracle_eval_constrained(chain, constraints)
    assert value == eval_constrained(chain, dict(constraints))
    assert eval_cylinder(chain, pattern) == value
    assert outcome(other, pattern) == outcome(other, Pattern.of(entries))
    assert eval_cylinder(chain, pattern) == value


@given(chains(signed=(1, 2)), chains(signed=(1,)), st.data())
def test_a_pattern_read_under_a_larger_sigma_is_still_refused_under_a_smaller(wide, narrow, data):
    a2 = Symbol.from_signed(2)
    tail = data.draw(words(wide.gs.symbols(), max_len=3))
    sites = {Word((a2, *tail.letters))}
    sites.update(data.draw(st.lists(words(wide.gs.symbols(), max_len=3), max_size=3)))
    pattern = Pattern.of({w: data.draw(st.sampled_from(wide.alphabet)) for w in sites})
    value = eval_cylinder(wide, pattern)
    first = next(w for w in pattern.domain() if a2 in w.letters)
    for _ in range(2):
        with pytest.raises(MembershipError, match=f"site {first} is not in"):
            eval_cylinder(narrow, pattern)
        assert eval_cylinder(wide, pattern) == value


# Uniform over every letter that SIGNED and outside_site draw, and over ALPHABET and "unknown".
EVERYTHING = MarkovTreeChain.make(
    GeneratorSet.from_signed((*SIGNED, 3)),
    (*ALPHABET, "unknown"),
    (Fraction(1, 4),) * 4,
    {s: [[Fraction(1, 4)] * 4] * 4 for s in (*SIGNED, 3)},
)


@given(constrained(singletons=True), st.booleans(), st.data())
def test_a_site_outside_s_comes_before_an_unknown_symbol_warm_or_cold(case, warm, data):
    chain, constraints = case
    entries = {w: c for w, (c,) in constraints.items()}
    entries[data.draw(st.sampled_from(sorted(entries, key=Word.key)))] = "unknown"
    site = outside_site(data, chain.gs)
    pattern = Pattern.of({**entries, site: chain.alphabet[0]})
    if warm:
        assert eval_cylinder(EVERYTHING, pattern) > 0
    with pytest.raises(MembershipError, match=f"site {site} is not in"):
        eval_cylinder(chain, pattern)


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
