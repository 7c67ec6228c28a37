import random

import pytest

from semishift import (
    EPSILON,
    GeneratorSet,
    MembershipError,
    ParseError,
    Symbol,
    Word,
    ball,
    in_semigroup,
    parse_word,
    tree_hull,
    word_mul,
    word_to_string,
)


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
    symbols = list(gs.sigma)
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
