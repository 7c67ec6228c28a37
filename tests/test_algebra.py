import copy
import itertools
import pickle
import random
import re
import sys
import threading

import pytest

from helpers import oracle_hull, oracle_word_mul
from semishift import (
    EPSILON,
    GeneratorSet,
    MembershipError,
    ParseError,
    Symbol,
    ValidationError,
    Word,
    ball,
    in_semigroup,
    parse_word,
    sorted_ball,
    sorted_words,
    tree_hull,
    word_mul,
    word_to_string,
)
from semishift.algebra import _hull, spheres


def w(text):
    return parse_word(text)


def test_word_mul_examples():
    assert word_mul(w("a1a2"), w("A2a1")) == w("a1a1")
    assert word_mul(w("a1"), w("A1")) == EPSILON
    assert word_mul(w("a1A2"), w("a2A1")) == EPSILON


def test_word_mul_identity_and_reduction():
    assert word_mul(EPSILON, w("a1a2")) == w("a1a2")
    assert word_mul(w("a1a2"), EPSILON) == w("a1a2")
    # products of reduced words stay reduced
    u = word_mul(w("a1a2a1"), w("A1A2"))
    assert u == w("a1")


def test_word_mul_associative_and_inverse_random():
    rng = random.Random(101)
    letters = [Symbol(1, 1), Symbol(1, -1), Symbol(2, 1), Symbol(2, -1)]
    def rand_word():
        word = EPSILON
        for _ in range(rng.randrange(6)):
            word = word_mul(word, Word((rng.choice(letters),)))
        return word
    for _ in range(200):
        u, v, t = rand_word(), rand_word(), rand_word()
        assert word_mul(word_mul(u, v), t) == word_mul(u, word_mul(v, t))
        inverse = Word(tuple(s.inverse() for s in reversed(u.letters)))
        assert word_mul(u, inverse) == EPSILON


def test_parse_round_trip():
    for text in ["", "a1", "A1", "a1a2", "a1a1a2A1", "a2A1a2"]:
        assert word_to_string(parse_word(text), 2) == text


def test_parse_large_rank_uses_separators():
    word = parse_word("a10.A11.a2")
    assert word.letters == (Symbol(10, 1), Symbol(11, -1), Symbol(2, 1))
    assert word_to_string(word, 11) == "a10.A11.a2"
    # small-rank words render without separators
    assert word_to_string(parse_word("a1a2"), 2) == "a1a2"


def test_parse_rejects_garbage():
    for text in ["b1", "a", "a0", "1a", "a1 a2", "a1A1", "a-1", "a1..a2"]:
        with pytest.raises(ParseError):
            parse_word(text)


def test_parse_rejects_unreduced():
    # a1A1 cancels; the string form must already be reduced
    with pytest.raises(ParseError):
        parse_word("a2a1A1")


def test_parse_errors_quote_a_long_word_in_part():
    cases = [
        ("a1" * 40_000 + "b", "cannot tokenize word {}"),
        ("a2." * 40_000 + "b1", "bad letter 'b1' in word {}"),
        ("a2." * 40_000 + "a1.A1", "word {} is not reduced"),
    ]
    for text, message in cases:
        shown = f"{text[:64]!r}... ({len(text)} characters)"
        with pytest.raises(ParseError) as info:
            parse_word(text)
        assert str(info.value) == message.format(shown)
    with pytest.raises(ParseError) as info:
        parse_word("a2a1A1")
    assert str(info.value) == "word 'a2a1A1' is not reduced"


def test_in_semigroup_examples():
    gs = GeneratorSet.from_signed((1, 2))
    assert in_semigroup(w("a1a2"), gs)
    assert not in_semigroup(w("A1"), gs)
    mixed = GeneratorSet.from_signed((1, -1, 2))
    assert in_semigroup(w("a1a2A1"), mixed)
    assert in_semigroup(EPSILON, gs)


def test_in_semigroup_closed_under_products():
    rng = random.Random(55)
    gs = GeneratorSet.from_signed((1, -1, 2))
    symbols = gs.symbols()
    for _ in range(100):
        word = EPSILON
        for _ in range(rng.randrange(9)):
            word = word_mul(word, Word((rng.choice(symbols),)))
        assert in_semigroup(word, gs)


def test_ball_examples():
    gs2 = GeneratorSet.from_signed((1, 2))
    b2 = ball(gs2, 2)
    assert len(b2) == 7
    assert b2 == {w(t) for t in ["", "a1", "a2", "a1a1", "a1a2", "a2a1", "a2a2"]}
    mixed = GeneratorSet.from_signed((1, -1, 2))
    assert ball(mixed, 1) == {w(t) for t in ["", "a1", "A1", "a2"]}
    assert ball(gs2, 0) == {EPSILON}


def test_ball_free_monoid_size_formula():
    for d in (2, 3):
        gs = GeneratorSet.from_signed(tuple(range(1, d + 1)))
        for r in range(7):
            assert len(ball(gs, r)) == (d ** (r + 1) - 1) // (d - 1)


def test_ball_monotone():
    gs = GeneratorSet.from_signed((1, -1, 2))
    for r in range(4):
        assert ball(gs, r) <= ball(gs, r + 1)


def test_spheres_are_the_sigma_words_of_each_length():
    for signed in ((1,), (1, -1, 2), (2, -2, 1, -3)):
        gs = GeneratorSet.from_signed(signed)
        for k, sphere in enumerate(spheres(gs, 3)):
            expected = set()
            for letters in itertools.product(gs.symbols(), repeat=k):
                try:
                    expected.add(Word(letters))
                except ValueError:
                    pass
            assert len(sphere) == len(expected) and set(sphere) == expected
    with pytest.raises(ValueError):
        next(spheres(gs, -1))


def test_spheres_come_sorted_and_word_mul_reduces():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        """Signed or unsigned Sigma over d <= 3, r <= 3, and products of words
        from the ball of Sigma's closure under inverses."""
        d = draw(st.integers(1, 3))
        signed = [x for x in range(-d, d + 1) if x]
        gs = GeneratorSet.from_signed(
            draw(st.lists(st.sampled_from(signed), min_size=1, unique=True)), d
        )
        r = draw(st.integers(0, 3))
        words = sorted_ball(gs.extended(), min(r, 2))
        pairs = draw(st.lists(st.tuples(st.sampled_from(words), st.sampled_from(words)), max_size=20))
        return gs, r, pairs

    @hypothesis.given(cases())
    def check(case):
        gs, r, pairs = case
        layers = list(spheres(gs, r))
        assert len(layers) == r + 1
        for k, layer in enumerate(layers):
            assert tuple(layer) == sorted_words(layer)
            assert all(len(w) == k for w in layer)
        assert sorted_ball(gs, r) == sorted_words(ball(gs, r))
        assert sorted_ball(gs, r) == tuple(itertools.chain.from_iterable(layers))
        for u, v in pairs:
            product = word_mul(u, v)
            assert tuple(s.signed for s in product.letters) == oracle_word_mul(u, v)
            assert Word(product.letters) == product

    check()


def test_a_ball_too_large_to_scan_is_refused_before_its_sphere_is_built():
    line = GeneratorSet.from_signed((1,))
    # B_r of Sigma = {a1} has r + 1 sites: 2^22 patterns fit, 2^23 do not; 3^13 fit, 3^14 do not.
    assert len(sorted_ball(line, 21, 2)) == 22
    assert len(sorted_ball(line, 12, 3)) == 13
    for r, symbols, message in ((22, 2, "23 sites give 2^23 full"), (13, 3, "14 sites give 3^14 full")):
        with pytest.raises(ValidationError, match=re.escape(message)):
            sorted_ball(line, r, symbols)
    # Sigma = {a1, a2}: the refusal comes before B_4's 16 words exist.
    layers = spheres(GeneratorSet.from_signed((1, 2)), 6, 2)
    assert [len(next(layers)) for _ in range(4)] == [1, 2, 4, 8]
    with pytest.raises(ValidationError, match="radius-6 ball is refused: its first 31 sites"):
        next(layers)
    # One symbol lists one pattern; its scan is held to the letters of its sites:
    # B_16 of Sigma = {a1, a2} has 1966082 of them, B_17 4194306.
    tree = GeneratorSet.from_signed((1, 2))
    assert len(sorted_ball(tree, 16, 1)) == 2**17 - 1
    with pytest.raises(ValidationError, match="first 262143 sites give 4194306 letters"):
        sorted_ball(tree, 40, 1)


def test_tree_hull_examples():
    gs = GeneratorSet.from_signed((1, 2))
    # leading letter a1 strips off a1a2, leaving a2 as its shorter neighbour
    hull = tree_hull([w("a1a2"), w("a2")], gs)
    assert set(hull.vertices) == {EPSILON, w("a2"), w("a1a2")}
    assert hull.root == EPSILON
    assert len(hull.edges) == 2
    assert set(hull.edges) == {
        (EPSILON, w("a2"), Symbol(2, 1)),
        (w("a2"), w("a1a2"), Symbol(1, 1)),
    }

    assert set(tree_hull([EPSILON], gs).vertices) == {EPSILON}
    assert not tree_hull([EPSILON], gs).edges

    hull2 = tree_hull([w("a1a1")], gs)
    assert set(hull2.vertices) == {EPSILON, w("a1"), w("a1a1")}


def test_tree_hull_idempotent():
    gs = GeneratorSet.from_signed((1, 2))
    hull = tree_hull([w("a1a2a1"), w("a2a2")], gs)
    again = tree_hull(hull.vertices, gs)
    assert set(again.vertices) == set(hull.vertices)
    assert set(again.edges) == set(hull.edges)


def test_tree_hull_membership_error():
    gs = GeneratorSet.from_signed((1, 2))
    with pytest.raises(MembershipError):
        tree_hull([w("A1")], gs)


def test_tree_hull_contains_input_and_validates():
    rng = random.Random(7)
    gs = GeneratorSet.from_signed((1, 2))
    words = sorted(ball(gs, 3), key=Word.key)
    for _ in range(50):
        picks = rng.sample(words, rng.randrange(1, 5))
        hull = tree_hull(picks, gs)
        assert set(picks) <= set(hull.vertices)
        assert EPSILON in hull.vertices
        assert len(hull.edges) == len(hull.vertices) - 1
        assert all(Word(v.letters[1:]) in hull.vertices for v in hull.vertices if v)


def test_hull_parent_array_matches_the_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        """Sigma over d <= 3 and sites of up to 6 letters grown on shared tails."""
        d = draw(st.integers(1, 3))
        signed = range(-d, d + 1)
        gs = GeneratorSet.from_signed(
            draw(st.lists(st.sampled_from([x for x in signed if x]), min_size=1, unique=True)), d
        )
        letters = gs.symbols()
        sites = []
        for _ in range(draw(st.integers(0, 6))):
            tail = draw(st.sampled_from([()] + [v.letters for v in sites]))
            grown = list(tail)
            for _ in range(draw(st.integers(0, 6 - len(tail)))):
                options = [g for g in letters if not grown or g is not grown[0].inverse()]
                grown.insert(0, draw(st.sampled_from(options)))
            sites.append(Word(tuple(grown)))
        outside = [Symbol.from_signed(x) for x in range(-d - 1, d + 2) if x]
        stranger = draw(st.sampled_from([g for g in outside if g not in gs.sigma]))
        return gs, sites, stranger, draw(st.integers(0, len(sites)))

    @hypothesis.given(cases())
    def check(case):
        gs, sites, stranger, at = case
        parent, letter, site = _hull(sites, gs)
        assert len(parent) == len(letter) and len(site) == len(sites)
        vertices = [EPSILON]
        for i in range(1, len(parent)):
            assert 0 <= parent[i] < i
            vertices.append(Word((letter[i],) + vertices[parent[i]].letters))
        assert len(set(vertices)) == len(vertices)
        assert sorted(vertices, key=Word.key) == oracle_hull(sites)
        assert [vertices[v] for v in site] == sites
        bad = Word((stranger,))
        with pytest.raises(MembershipError):
            _hull([*sites[:at], bad, *sites[at:]], gs)

    check()


def test_symbol_refuses_a_bool_or_non_int_index():
    for index in (True, 1.0, 1.5, "1"):
        with pytest.raises(ValueError, match="must be an int"):
            Symbol(index, 1)
    for value in (True, -1.0, 1.7, "2"):
        with pytest.raises(ValueError, match="must be an int"):
            Symbol.from_signed(value)
    for sign in (True, False, 1.0, -1.0, "1"):
        with pytest.raises(ValueError, match=r"sign must be \+1 or -1"):
            Symbol(1, sign)


def test_symbol_hash_and_eq_are_object_identity():
    # A Python-level __hash__ or __eq__ would put one call per letter back
    # into every dict, set and tuple hash of symbols.
    assert Symbol.__hash__ is object.__hash__
    assert Symbol.__eq__ is object.__eq__


def test_symbols_are_interned():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(st.integers(-(2**70), 2**70).filter(bool))
    def check(value):
        s = Symbol.from_signed(value)
        assert s is Symbol(abs(value), 1 if value > 0 else -1)
        assert s.inverse() is not s and s.inverse().inverse() is s
        assert (s.signed, s.inverse().signed) == (value, -value)
        assert all(t is s for t in parse_word(f"{s}.{s}").letters)
        word = Word((s, s))
        for copied in (pickle.loads(pickle.dumps(word)), copy.copy(word), copy.deepcopy(word)):
            assert all(t is s for t in copied.letters)
        for copied in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
            assert copied is s
        with pytest.raises(AttributeError):
            s.index = s.index + 1
        for index, sign in ((True, s.sign), (float(s.index), s.sign), (s.index, True),
                            (s.index, float(s.sign)), (s.index, 0), (-s.index, s.sign)):
            with pytest.raises(ValueError):
                Symbol(index, sign)
        assert Symbol(s.index, s.sign) is s
        assert (type(s.index), type(s.sign)) == (int, int)
        assert (s.index, s.sign) == (abs(value), 1 if value > 0 else -1)

    check()


def test_racing_threads_intern_one_pair_per_index():
    indices = range(10**9, 10**9 + 3000)
    built = [[] for _ in range(4)]
    start = threading.Barrier(len(built))

    def build(out):
        start.wait(timeout=30)
        out.extend(Symbol(i, s) for i in indices for s in (-1, 1))

    threads = [threading.Thread(target=build, args=(out,)) for out in built]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in built:
        assert len(out) == 6000 and all(s is Symbol(s.index, s.sign) for s in out)
        assert all(s.inverse() is Symbol(s.index, -s.sign) for s in out)


def test_generator_set_sign_structure():
    signed = GeneratorSet.from_signed((2, -3, 1, -1, 3), d=4)
    a1, a3 = Symbol(1, 1), Symbol(3, 1)
    assert signed.inverse_pairs() == ((a1, a1.inverse()), (a3, a3.inverse()))
    assert not signed.symmetric
    assert GeneratorSet.from_signed((1, -1, 2, -2)).symmetric
    assert GeneratorSet.from_signed((-1,)).symmetric is False
    assert GeneratorSet.from_signed((1, 2)).inverse_pairs() == ()
    count, lacking = signed.missing_positive()
    assert (count, list(lacking)) == (1, [Symbol(4, 1)])
    count, lacking = GeneratorSet.from_signed((1, -2)).missing_positive()
    assert (count, list(lacking)) == (1, [Symbol(2, 1)])
    assert GeneratorSet.from_signed((1, 2)).missing_positive()[0] == 0


def test_missing_positive_never_scans_up_to_d():
    huge = GeneratorSet.from_signed((1, 3, -5), d=10**18)
    count, lacking = huge.missing_positive()
    assert count == 10**18 - 2
    assert [s.index for s in itertools.islice(lacking, 4)] == [2, 4, 5, 6]
