"""Differential tests of the batched ball-mass engine ``pattern_masses``.

Each built-in measure kind computes the masses of every full pattern on
a site list in one pass.  Every list is compared with an independent
reference computed pattern by pattern: ``oracle_eval`` (enumeration over
a hull it builds itself) for chains, a product of probabilities for
Bernoulli measures, a count of raw automaton states whose readout shows
the pattern for periodic measures, and the weighted sum of those for
mixtures.  Site lists are sorted balls, their translates by every
generator and their spheres, over Sigma with and without inverse pairs;
a translate is not in root-first order, and the hull of a translate or
a sphere has vertices that are no sites.  The chain's root-first fold is
also checked against ``oracle_eval`` on site lists whose hull order
differs from product order, for chains with and without a zero entry.
The memoized scan layouts, and the hulls and chain fold plans their
``Sites`` keep, give the results and errors of an empty memo, keep only
tuples, and stay within their bounds.
"""

import copy
import importlib
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    oracle_eval,
    oracle_hull,
    positive_distribution,
    random_automaton,
    random_balance_violation,
    random_eigenvector_violation,
    random_invariant_chain,
)
from semishift import (
    EPSILON,
    BernoulliMeasure,
    GeneratorSet,
    InvalidChain,
    MarkovTreeChain,
    MarkovizedMeasure,
    MembershipError,
    MixtureMeasure,
    OrbitAutomaton,
    Pattern,
    PeriodicMeasure,
    Symbol,
    ValidationError,
    Word,
    ball,
    extend_chain,
    markovize,
    pushforward_check,
    shift_invariance_check,
    sorted_ball,
    sorted_words,
    support_alphabet,
    weak_star_distance,
    word_mul,
)
from semishift import algebra
from semishift.algebra import Sites
from semishift.measure import pattern_masses

F = Fraction
SIGMAS = ((1,), (1, 2), (1, -1), (1, -1, 2), (-1, 2))
# Largest number of full patterns one example enumerates.
MAX_PATTERNS = 512


def site_lists(gs: GeneratorSet, n: int):
    """Sorted balls, their translates by each generator and their spheres,
    while small enough.  A sphere's shorter hull vertices are no sites."""
    for r in range(3):
        sites = sorted_words(ball(gs, r))
        if n ** len(sites) > MAX_PATTERNS:
            break
        yield sites
        for g in gs.symbols():
            yield [word_mul(w, Word((g,))) for w in sites]
        yield [w for w in sites if len(w) == r]


def fractions(masses):
    """The engine's ``(numerators, denominator)`` as a list of Fractions."""
    numerators, denominator = masses
    return [F(x, denominator) for x in numerators]


def patterns(sites, alphabet):
    for combo in itertools.product(alphabet, repeat=len(sites)):
        yield Pattern(tuple(zip(sites, combo)))


def chain_reference(chain):
    return lambda pattern: oracle_eval(chain, pattern)


def bernoulli_reference(measure):
    index = {c: i for i, c in enumerate(measure.alphabet)}
    return lambda pattern: math.prod(
        (measure.probs[index[c]] for _, c in pattern.items()), start=F(1)
    )


def readout(o: OrbitAutomaton, q: int, w: Word):
    for s in reversed(w.letters):
        q = o.delta[s][q]
    return o.labels[q]


def raw_share(o: OrbitAutomaton, pattern) -> Fraction:
    """Share of the raw states whose configuration shows the pattern.

    For a permutation automaton every configuration has the same number
    of raw states, so no minimization is needed.
    """
    n = o.n_states()
    return F(sum(all(readout(o, q, w) == c for w, c in pattern.items()) for q in range(n)), n)


def periodic_reference(measure):
    """Weighted raw-state shares of the orbits, which are permutation automata."""
    return lambda pattern: sum(
        (weight * raw_share(o, pattern) for o, weight in zip(measure.orbits, measure.weights)),
        F(0),
    )


def mixture_reference(weights, references):
    return lambda pattern: sum((w * ref(pattern) for w, ref in zip(weights, references)), F(0))


def permutation_orbit(rng: random.Random, gs: GeneratorSet, alphabet, n: int) -> OrbitAutomaton:
    """Reachable automaton whose moves are random permutations (inverse rows paired)."""
    perms = {}
    for i in sorted({s.index for s in gs.sigma}):
        row = list(range(n))
        rng.shuffle(row)
        perms[i] = row
    delta = {}
    for s in gs.symbols():
        row = perms[s.index]
        delta[s] = row if s.sign > 0 else [row.index(q) for q in range(n)]
    reachable = {0}
    frontier = [0]
    while frontier:
        q = frontier.pop()
        for row in delta.values():
            if row[q] not in reachable:
                reachable.add(row[q])
                frontier.append(row[q])
    kept = sorted(reachable)
    index = {q: i for i, q in enumerate(kept)}
    return OrbitAutomaton(
        gs=gs,
        alphabet=alphabet,
        labels=tuple(rng.choice(alphabet) for _ in kept),
        delta={s: tuple(index[row[q]] for q in kept) for s, row in delta.items()},
        base=0,
    )


def build(kind: str, rng: random.Random, signed, n: int):
    """A measure of the given kind and its independent pattern-by-pattern reference."""
    gs = GeneratorSet.from_signed(signed)
    alphabet = tuple(range(n))
    if kind == "chain":
        chain = random_invariant_chain(rng, signed, n)
        return chain, chain_reference(chain)
    if kind == "bernoulli":
        weights = [rng.randint(0, 3) for _ in range(n)]
        weights[rng.randrange(n)] += 1
        probs = tuple(F(x, sum(weights)) for x in weights)
        measure = BernoulliMeasure(gs, alphabet, probs)
        return measure, bernoulli_reference(measure)
    if kind == "periodic":
        orbits = tuple(permutation_orbit(rng, gs, alphabet, rng.randint(1, 6)) for _ in range(2))
        measure = PeriodicMeasure(orbits, positive_distribution(rng, 2))
        return measure, periodic_reference(measure)
    parts = [build(k, rng, signed, n) for k in ("chain", "bernoulli", "periodic")]
    weights = positive_distribution(rng, len(parts))
    measure = MixtureMeasure(tuple(m for m, _ in parts), weights)
    return measure, mixture_reference(weights, [ref for _, ref in parts])


KINDS = ("chain", "bernoulli", "periodic", "mixture")


@given(
    st.sampled_from(KINDS),
    st.sampled_from(SIGMAS),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
def test_masses_match_references(kind, signed, n, seed):
    measure, reference = build(kind, random.Random(seed), signed, n)
    for sites in site_lists(measure.gs, n):
        masses = fractions(pattern_masses(measure, sites))
        assert masses == [reference(p) for p in patterns(sites, measure.alphabet)]


@given(st.sampled_from(SIGMAS), st.integers(1, 3), st.integers(0, 2**32))
def test_orbit_and_periodic_eval_match_raw_state_counts(signed, n, seed):
    rng = random.Random(seed)
    measure, reference = build("periodic", rng, signed, n)
    words = sorted_words(ball(measure.gs, 2))
    for _ in range(8):
        sites = rng.sample(words, rng.randint(0, min(4, len(words))))
        if rng.random() < 0.5:
            g = rng.choice(measure.gs.symbols())
            sites = [word_mul(w, Word((g,))) for w in sites]
        pattern = Pattern.of({w: rng.choice(measure.alphabet) for w in sites})
        assert measure.eval(pattern) == reference(pattern)
        for o in measure.orbits:
            assert o.eval(pattern) == raw_share(o, pattern)


class OracleMeasure:
    """A measure known only through eval: the engine's fallback path."""

    def __init__(self, chain):
        self.gs, self.alphabet, self.chain = chain.gs, chain.alphabet, chain
        self.calls = 0

    def eval(self, pattern):
        self.calls += 1
        return oracle_eval(self.chain, pattern)


def measure_of(kind: str, rng: random.Random, signed, n: int):
    """A built-in measure of the kind, or an eval-only chain for ``oracle``."""
    if kind == "oracle":
        return OracleMeasure(random_invariant_chain(rng, signed, n))
    return build(kind, rng, signed, n)[0]


@given(st.sampled_from(SIGMAS), st.integers(1, 2), st.integers(0, 2**32))
def test_fallback_matches_batched_chain(signed, n, seed):
    chain = random_invariant_chain(random.Random(seed), signed, n)
    oracle = OracleMeasure(chain)
    for sites in site_lists(chain.gs, n):
        assert fractions(pattern_masses(oracle, sites)) == fractions(pattern_masses(chain, sites))


def test_fallback_lists_the_masses_evaluating_each_pattern_once():
    oracle = OracleMeasure(random_invariant_chain(random.Random(5), (1, 2), 2))
    sites = sorted_words(ball(oracle.gs, 1))
    evaluated = []
    oracle.eval = lambda pattern, eval=oracle.eval: evaluated.append(pattern) or eval(pattern)
    masses, denominator = pattern_masses(oracle, sites)
    assert type(masses) is list and denominator == 1
    assert oracle.calls == len(masses) == 2 ** len(sites)
    assert evaluated == list(patterns(sites, oracle.alphabet))


@settings(max_examples=15)  # the reference evaluates every component pattern by pattern
@given(st.sampled_from(SIGMAS), st.integers(1, 2), st.integers(0, 2**32))
def test_mixture_with_an_oracle_component_matches_eval(signed, n, seed):
    rng = random.Random(seed)
    parts = [measure_of(kind, rng, signed, n) for kind in KINDS + ("oracle",)]
    mixture = MixtureMeasure(tuple(parts), positive_distribution(rng, len(parts)))
    for sites in site_lists(mixture.gs, n):
        expected = [mixture.eval(p) for p in patterns(sites, mixture.alphabet)]
        assert fractions(pattern_masses(mixture, sites)) == expected


@given(st.sampled_from(KINDS), st.sampled_from(SIGMAS), st.integers(1, 3), st.integers(0, 2**32))
def test_masses_are_integer_numerators_over_one_denominator(kind, signed, n, seed):
    measure, _ = build(kind, random.Random(seed), signed, n)
    # A periodic measure's components are orbit automata; a mixture's are the other kinds.
    for m in (measure, *getattr(measure, "components", ())):
        for sites in site_lists(measure.gs, n):
            numerators, denominator = m.masses(sites)
            assert type(denominator) is int and denominator > 0
            assert all(type(x) is int for x in numerators)
            assert pattern_masses(m, sites) == (numerators, denominator)


def random_chain(rng: random.Random, signed, n: int, zeros: bool) -> MarkovTreeChain:
    """A valid chain, not necessarily invariant.  With ``zeros`` and n > 1 the
    first row of the first matrix has a zero entry, and any row may have more."""
    gs = GeneratorSet.from_signed(signed)
    matrices = {}
    for s in gs.symbols():
        rows = []
        for _ in range(n):
            weights = [rng.randint(1, 6) for _ in range(n)]
            if zeros and n > 1:
                least = 0 if matrices or rows else 1
                for k in rng.sample(range(n), rng.randint(least, n - 1)):
                    weights[k] = 0
            rows.append(tuple(F(x, sum(weights)) for x in weights))
        matrices[s] = tuple(rows)
    return MarkovTreeChain.make(gs, tuple(range(n)), positive_distribution(rng, n), matrices)


# Largest number of hull labellings the oracle enumerates for one site list.
MAX_LABELLINGS = 729
SHAPES = ("empty", "identity", "ball", "translate", "punctured", "sphere", "shuffled", "deep")


def shaped_sites(shape: str, rng: random.Random, gs: GeneratorSet, n: int) -> list:
    """A site list of the shape, cut short until its hull is small enough.

    ``translate`` moves a ball by a generator g: without g^-1 in Sigma no
    site is the identity, and the hidden root has the one child g.
    ``punctured`` drops the identity from such a translate: with g^-1 in
    Sigma the hidden root then has several children.  ``shuffled`` and
    ``deep`` list sites out of hull order; ``deep`` draws words of length
    up to 4.
    """
    g = Word((rng.choice(gs.symbols()),))
    r = rng.randint(1, 2)
    if shape == "empty":
        sites = []
    elif shape == "identity":
        sites = [EPSILON]
    elif shape == "ball":
        sites = list(sorted_words(ball(gs, r)))
    elif shape in ("translate", "punctured"):
        sites = [word_mul(w, g) for w in sorted_words(ball(gs, r))]
        if shape == "punctured":
            sites = [w for w in sites if w != EPSILON]
    elif shape == "sphere":
        sites = [w for w in sorted_words(ball(gs, r + 1)) if len(w) == r + 1]
    else:
        words = sorted_words(ball(gs, 2 if shape == "shuffled" else 4))
        sites = rng.sample(words, min(len(words), 6))
    while n ** len(oracle_hull(sites)) > MAX_LABELLINGS:
        sites.pop()
    return sites


@given(
    st.sampled_from(SHAPES),
    st.sampled_from(SIGMAS),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_chain_masses_match_the_oracle(shape, signed, n, zeros, seed):
    rng = random.Random(seed)
    chain = random_chain(rng, signed, n, zeros)
    sites = shaped_sites(shape, rng, chain.gs, n)
    numerators, denominator = chain.masses(sites)
    assert denominator == chain.integer_form[0] ** len(oracle_hull(sites))
    assert numerators == [oracle_eval(chain, q) * denominator for q in patterns(sites, chain.alphabet)]


@given(st.sampled_from(SHAPES), st.sampled_from(SIGMAS), st.integers(0, 2**32))
def test_one_site_list_folds_right_for_chains_on_two_and_three_symbols(shape, signed, seed):
    """A fold plan is kept on its Sites by n: a plan made for two symbols is
    not run for three."""
    rng = random.Random(seed)
    sites = Sites(shaped_sites(shape, rng, GeneratorSet.from_signed(signed), 3))
    for n in (2, 3):
        chain = random_chain(rng, signed, n, False)
        for _ in range(2):
            numerators, denominator = chain.masses(sites)
            expected = [oracle_eval(chain, q) * denominator for q in patterns(sites, chain.alphabet)]
            assert numerators == expected
    # The empty list is folded without a plan.
    assert sorted(sites.plans) == ([2, 3] if sites else [])


def test_a_plan_past_its_reorder_bound_is_used_once_and_not_kept():
    """Reversed, the 15 sites of B_3 over Sigma(1, 2) are out of hull order:
    their plan reorders 2^15 offsets, more than a kept plan may hold."""
    chain = random_chain(random.Random(5), (1, 2), 2, False)
    sites = Sites(sorted_ball(chain.gs, 3))
    reversed_sites = Sites(sites[::-1])
    m = len(sites)
    numerators, denominator = chain.masses(sites)
    assert list(sites.plans) == [2]
    for _ in range(2):
        assert chain.masses(reversed_sites) == (
            [numerators[int(f"{i:0{m}b}"[::-1], 2)] for i in range(2**m)],
            denominator,
        )
        assert reversed_sites.plans == {}


def naive_invariance(measure, a, r):
    """The per-pattern scan: every pattern on B_r against its a-translate."""
    for rr in range(r + 1):
        for pattern in patterns(sorted_words(ball(measure.gs, rr)), measure.alphabet):
            lhs, rhs = measure.eval(pattern), measure.eval(pattern.translated(a))
            if lhs != rhs:
                return f"pattern {pattern.render()} has measure {lhs}, its {a}-translate {rhs}"
    return None


def naive_pushforward(extended, original, r):
    for pattern in patterns(sorted_words(ball(original.gs, r)), original.alphabet):
        lhs, rhs = extended.eval(pattern), original.eval(pattern)
        if lhs != rhs:
            return f"pattern {pattern.render()}: extended gives {lhs}, original {rhs}"
    return None


@given(st.integers(0, 2**32))
def test_oracle_scan_evaluates_every_pattern_of_each_side_once(seed):
    rng = random.Random(seed)
    oracle = OracleMeasure(random_eigenvector_violation(rng, rng.choice(((1,), (1, 2))), 2))
    size = len(sorted_ball(oracle.gs, 2))
    for a in oracle.gs.symbols():
        witness = naive_invariance(oracle, a, 2)
        oracle.calls = 0
        result = shift_invariance_check(oracle, a, 2)
        assert (result.ok, result.witness) == (witness is None, witness)
        assert oracle.calls == 2 * 2**size


@settings(max_examples=30)  # every scan evaluates its patterns one by one
@given(st.booleans(), st.sampled_from(SIGMAS), st.integers(0, 2**32))
def test_an_eval_only_measure_scans_as_its_one_component_mixture(invariant, signed, seed):
    """Alone or wrapped, an eval-only measure gives the same verdicts,
    witnesses, evaluation counts and distances."""
    rng = random.Random(seed)
    chain = (random_invariant_chain if invariant else random_eigenvector_violation)(rng, signed, 2)
    alone, inner = OracleMeasure(chain), OracleMeasure(chain)
    wrapped = MixtureMeasure((inner,), (F(1),))
    other = random_invariant_chain(rng, signed, 2)
    for r in range(3):
        if 2 ** len(sorted_ball(chain.gs, r)) > MAX_PATTERNS // 2:
            break
        for a in chain.gs.symbols():
            alone.calls = inner.calls = 0
            assert shift_invariance_check(alone, a, r) == shift_invariance_check(wrapped, a, r)
            assert alone.calls == inner.calls
        assert weak_star_distance(alone, other, r) == weak_star_distance(wrapped, other, r)


def skew_mixture(rng):
    gs = GeneratorSet.from_signed((1, 2))
    corrupt = random_eigenvector_violation(rng, (1, 2), 2)
    fair = BernoulliMeasure(gs, (0, 1), (F(1, 2), F(1, 2)))
    return MixtureMeasure((corrupt, fair), positive_distribution(rng, 2))


@given(st.sampled_from(("eigen", "balance", "mixture")), st.integers(0, 2**32))
def test_scan_witnesses_match_naive_scan(kind, seed):
    rng = random.Random(seed)
    if kind == "eigen":
        measure = random_eigenvector_violation(rng, rng.choice(((1,), (1, 2))), 2)
    elif kind == "balance":
        measure = random_balance_violation(rng, rng.randint(2, 3))
    else:
        measure = skew_mixture(rng)
    witnesses = [naive_invariance(measure, a, 2) for a in measure.gs.symbols()]
    assert any(witnesses)
    for a, witness in zip(measure.gs.symbols(), witnesses):
        result = shift_invariance_check(measure, a, 2)
        assert (result.ok, result.witness) == (witness is None, witness)


@given(st.integers(0, 2**32))
def test_pushforward_witness_matches_naive_scan(seed):
    rng = random.Random(seed)
    original = random_invariant_chain(rng, (1, 2), 2)
    other = extend_chain(random_invariant_chain(rng, (1, 2), 2))
    for extended in (extend_chain(original), other):
        witness = naive_pushforward(extended, original, 2)
        result = pushforward_check(extended, original, 2)
        assert (result.ok, result.witness) == (witness is None, witness)


def test_an_agreeing_pushforward_never_walks_the_lists(monkeypatch):
    # The lists are compared in C; the Python walk only finds a witness.
    module = importlib.import_module("semishift.measure")
    walks = []
    first_difference = module._first_difference

    def counting(*args):
        walks.append(args)
        return first_difference(*args)

    monkeypatch.setattr(module, "_first_difference", counting)
    original = random_invariant_chain(random.Random(4), (1, 2), 2)
    assert pushforward_check(extend_chain(original), original, 2).ok
    assert walks == []
    other = extend_chain(random_invariant_chain(random.Random(5), (1, 2), 2))
    assert not pushforward_check(other, original, 2).ok
    assert len(walks) == 1


def test_pushforward_matches_symbols_by_name():
    rng = random.Random(3)
    original = random_invariant_chain(rng, (1, 2), 2)
    matrices = {s: tuple(tuple(reversed(row)) for row in reversed(rows))
                for s, rows in original.transitions}
    swapped = type(original).make(original.gs, (1, 0), tuple(reversed(original.p)), matrices)
    assert pushforward_check(swapped, original, 2).ok


@settings(max_examples=30)
@given(st.integers(2, 3), st.integers(0, 2**32))
def test_a_failing_pushforward_across_reordered_alphabets_gives_the_naive_witness(n, seed):
    rng = random.Random(seed)
    original = random_invariant_chain(rng, (1, -1), n)
    other = extend_chain(random_invariant_chain(rng, (1,), n))
    order = list(range(n))
    while order == sorted(order):
        rng.shuffle(order)
    matrices = {s: tuple(tuple(rows[k][l] for l in order) for k in order)
                for s, rows in other.transitions}
    reordered = type(other).make(
        other.gs, tuple(other.alphabet[k] for k in order), tuple(other.p[k] for k in order), matrices
    )
    witness = naive_pushforward(reordered, original, 2)
    assert witness is not None
    result = pushforward_check(reordered, original, 2)
    assert (result.ok, result.witness) == (False, witness)


@settings(max_examples=20)  # each example evaluates five measures pattern by pattern
@given(st.sampled_from(SIGMAS), st.integers(1, 3), st.integers(0, 2**32))
def test_distance_matches_naive_sum(signed, n, seed):
    """Every ordered pair of kinds, an eval-only side included, on B_1 and B_2."""
    rng = random.Random(seed)
    measures = [measure_of(kind, rng, signed, n) for kind in KINDS + ("oracle",)]
    for r in (1, 2):
        sites = sorted_words(ball(measures[0].gs, r))
        if n ** len(sites) > MAX_PATTERNS:
            break
        evals = [[m.eval(p) for p in patterns(sites, m.alphabet)] for m in measures]
        for (m1, e1), (m2, e2) in itertools.product(zip(measures, evals), repeat=2):
            distance = weak_star_distance(m1, m2, r)
            assert type(distance) is Fraction
            assert distance == sum((abs(x - y) for x, y in zip(e1, e2)), F(0))


@pytest.mark.parametrize("kind", KINDS)
def test_generator_outside_sigma_raises_membership_error(kind):
    measure, _ = build(kind, random.Random(7), (1, 2), 2)
    outside = Symbol(1, -1)
    with pytest.raises(MembershipError):
        shift_invariance_check(measure, outside, 1)
    with pytest.raises(MembershipError):
        pattern_masses(measure, [Word((outside,))])


def test_repeated_site_is_refused():
    rng = random.Random(1)
    chain = random_invariant_chain(rng, (1, 2), 2)
    repeated = [Word(), Word((Symbol(1, 1),)), Word()]
    with pytest.raises(ValueError, match="repeated site"):
        pattern_masses(chain, repeated)
    # Each kind's own ``masses`` refuses too, and so does the pattern-by-pattern path.
    measures = [build(kind, rng, (1, 2), 2)[0] for kind in KINDS]
    for m in [*measures, *measures[2].orbits, OracleMeasure(chain)]:
        with pytest.raises(ValueError, match="repeated site"):
            pattern_masses(m, repeated)
        if hasattr(m, "masses"):
            with pytest.raises(ValueError, match="repeated site"):
                m.masses(repeated)


def test_a_site_outside_s_is_refused_before_a_repeated_site():
    rng = random.Random(1)
    chain = random_invariant_chain(rng, (1, 2), 2)
    measures = [build(kind, rng, (1, 2), 2)[0] for kind in KINDS]
    outside, identity = Word((Symbol(1, -1),)), Word()
    for m in [*measures, *measures[2].orbits, OracleMeasure(chain)]:
        with pytest.raises(MembershipError):
            pattern_masses(m, [outside, outside])
        with pytest.raises(ValueError, match="repeated site"):
            pattern_masses(m, [identity, identity])


def test_sites_past_the_pattern_budget_are_refused_before_any_fold(monkeypatch):
    rng = random.Random(1)
    chain = random_invariant_chain(rng, (1, 2), 2)
    measures = [build(kind, rng, (1, 2), 2)[0] for kind in KINDS]
    oracle = OracleMeasure(chain)
    for kind in (MarkovTreeChain, BernoulliMeasure, MixtureMeasure, OrbitAutomaton):
        monkeypatch.setattr(kind, "masses", lambda *args: pytest.fail("a fold ran"))
    words = sorted_ball(chain.gs, 4)  # 31 sites
    for k in (23, 30):
        for m in [*measures, *measures[2].orbits, oracle]:
            with pytest.raises(ValidationError) as refused:
                pattern_masses(m, words[:k])
            assert str(refused.value) == (
                f"the masses on {k} sites are refused: they give 2^{k} full patterns, more than 4194304"
            )
    assert oracle.calls == 0
    # One symbol gives one pattern however many the sites.
    one = BernoulliMeasure(chain.gs, ("x",), (F(1),))
    monkeypatch.undo()
    assert fractions(pattern_masses(one, words)) == [1]


def test_library_calls_the_engine_by_its_public_name(monkeypatch):
    # ``import semishift.markovize as m`` binds the function: the package re-exports it.
    modules = [importlib.import_module(f"semishift.{name}") for name in ("measure", "markovize")]
    calls = []

    def counting(measure, sites):
        calls.append(measure)
        return pattern_masses(measure, sites)

    for module in modules:
        monkeypatch.setattr(module, "pattern_masses", counting)
    chain = random_invariant_chain(random.Random(2), (1, 2), 2)
    fair = BernoulliMeasure(chain.gs, chain.alphabet, (F(1, 2), F(1, 2)))
    mixture = MixtureMeasure((chain, fair), (F(1, 3), F(2, 3)))
    sites = sorted_words(ball(chain.gs, 1))
    scans = {
        "shift_invariance_check": lambda: shift_invariance_check(chain, Symbol(1, 1), 1),
        "pushforward_check": lambda: pushforward_check(chain, chain, 1),
        "weak_star_distance": lambda: weak_star_distance(chain, fair, 1),
        "support_alphabet": lambda: support_alphabet(chain, 1),
        "MixtureMeasure.masses": lambda: mixture.masses(sites),
    }
    for name, scan in scans.items():
        calls.clear()
        scan()
        assert calls, f"{name} does not call pattern_masses"


def counted_folds(monkeypatch, measure) -> list:
    """Patch the engine in ``semishift.measure``; return the list of the site
    lists it is called with for ``measure`` itself (a mixture's masses also
    call it once per component)."""
    module = importlib.import_module("semishift.measure")
    calls = []

    def counting(m, sites):
        if m is measure:
            calls.append(tuple(sites))
        return pattern_masses(m, sites)

    monkeypatch.setattr(module, "pattern_masses", counting)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_a_passing_scan_folds_each_side_once(kind, monkeypatch):
    measure, _ = build(kind, random.Random(11), (1, 2), 2)
    calls = counted_folds(monkeypatch, measure)
    sites = sorted_words(ball(measure.gs, 2))
    for a in measure.gs.symbols():
        calls.clear()
        assert shift_invariance_check(measure, a, 2).ok
        assert calls == [tuple(sites), tuple(word_mul(w, Word((a,))) for w in sites)]


@pytest.mark.parametrize("kind", ("eigen", "balance"))
def test_a_failing_scan_folds_each_side_once(kind, monkeypatch):
    rng = random.Random(13)
    for _ in range(5):
        if kind == "eigen":
            measure = random_eigenvector_violation(rng, (1, 2), 2)
        else:
            measure = random_balance_violation(rng, 3)
        calls = counted_folds(monkeypatch, measure)
        failed = 0
        for a in measure.gs.symbols():
            calls.clear()
            failed += not shift_invariance_check(measure, a, 2).ok
            assert len(calls) == 2
        assert failed


def marginal_measure(kind: str, rng: random.Random, signed, n: int):
    """A measure for the marginal property: the built-in kinds, valid chains
    that need not be invariant (with or without zero entries), a chain that
    breaks detailed balance, and a mixture with an eval-only component."""
    if kind in ("zeros", "skewed"):
        return random_chain(rng, signed, n, zeros=kind == "zeros")
    if kind == "balance":
        return random_balance_violation(rng, max(n, 2))
    if kind == "oracle-mixture":
        parts = [measure_of(k, rng, signed, n) for k in ("chain", "oracle")]
        return MixtureMeasure(tuple(parts), positive_distribution(rng, 2))
    return build(kind, rng, signed, n)[0]


@settings(max_examples=40)
@given(
    st.sampled_from(KINDS + ("zeros", "skewed", "balance", "oracle-mixture")),
    st.sampled_from(SIGMAS),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
def test_block_sums_on_a_ball_are_the_masses_on_smaller_balls(kind, signed, n, seed):
    """The contract the batched scan reads: B_rr is a prefix of the sorted B_r,
    so the masses on B_rr, and on its a-translate, are block sums of those
    on B_r and on its a-translate, over the same denominator."""
    measure = marginal_measure(kind, random.Random(seed), signed, n)
    gs, n = measure.gs, len(measure.alphabet)
    for r in range(3):
        sites = sorted_words(ball(gs, r))
        if n ** len(sites) > MAX_PATTERNS:
            break
        for a in (None, *gs.symbols()):
            moved = sites if a is None else [word_mul(w, Word((a,))) for w in sites]
            masses = fractions(pattern_masses(measure, moved))
            for rr in range(r + 1):
                small = sorted_words(ball(gs, rr))
                assert sites[: len(small)] == small
                block = n ** (len(sites) - len(small))
                sums = [sum(masses[b : b + block], F(0)) for b in range(0, len(masses), block)]
                assert sums == fractions(pattern_masses(measure, moved[: len(small)]))


# -- the scan layout memo and the Sites it keeps

MEMO_SIGMAS = SIGMAS + ((1, 2, 3), (1, -1, 3), (-1, 2, -3))
MEMO_KINDS = ("chain", "bernoulli", "orbit", "periodic", "mixture", "oracle")
LAYOUTS = algebra._kept_layout


def memo_measure(kind: str, rng: random.Random, signed, n: int):
    """A measure of one of MEMO_KINDS: an orbit is a periodic measure's first orbit."""
    if kind == "orbit":
        return build("periodic", rng, signed, n)[0].orbits[0]
    return measure_of(kind, rng, signed, n)


def cold(scan, *args):
    """The scan's result with the layout memo emptied first, so every Sites
    and plan is built afresh; masses are listed."""
    LAYOUTS.cache_clear()
    return warm(scan, *args)


def warm(scan, *args):
    result = scan(*args)
    return (list(result[0]), result[1]) if scan is pattern_masses else result


def assert_hull_in_tuples(sites):
    assert type(sites) is Sites
    assert all(type(part) is tuple for part in (sites.parent, sites.letter, sites.site))


@given(
    st.sampled_from(MEMO_KINDS),
    st.sampled_from(MEMO_SIGMAS),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
def test_memoized_geometry_gives_the_results_of_empty_memos(kind, signed, n, seed):
    rng = random.Random(seed)
    measure, other = (memo_measure(kind, rng, signed, n) for _ in range(2))
    gs = measure.gs
    for words in site_lists(gs, n):
        sites = Sites(words)
        assert warm(pattern_masses, measure, sites) == cold(pattern_masses, measure, words)
        assert warm(pattern_masses, measure, sites) == cold(pattern_masses, measure, words)
    for r in range(3):
        if n ** len(sorted_ball(gs, r)) > MAX_PATTERNS:
            break
        for a in gs.symbols():
            expected = cold(shift_invariance_check, measure, a, r)
            assert warm(shift_invariance_check, measure, a, r) == expected
            layout = algebra.scan_layout(gs, r, n, a)
            ball_sites, sizes, moved = layout
            if n > 1:  # a one-symbol layout is never kept
                assert algebra.scan_layout(gs, r, n, a) is layout
                assert algebra.scan_layout(gs, r, n)[0] is ball_sites
            for sites in (ball_sites, moved):
                assert_hull_in_tuples(sites)
                # The first k sites' hull is the first vertices of the whole hull.
                for k in sizes:
                    prefix = Sites(sites[:k])
                    vertices = len(prefix.parent)
                    assert prefix.parent == sites.parent[:vertices]
                    assert prefix.letter == sites.letter[:vertices]
                    assert prefix.site == sites.site[:k]
        for scan in (pushforward_check, weak_star_distance):
            expected = cold(scan, measure, other, r)
            assert warm(scan, measure, other, r) == expected


@pytest.mark.parametrize("kind", MEMO_KINDS)
def test_the_memos_keep_the_order_of_errors_on_every_call(kind):
    measure = memo_measure(kind, random.Random(3), (1, 2), 2)
    outside, identity, a1 = Word((Symbol(1, -1),)), Word(), Word((Symbol(1, 1),))
    LAYOUTS.cache_clear()
    for _ in range(2):
        for sites in ([identity, identity, outside], [outside, a1, a1]):
            with pytest.raises(MembershipError):
                list(pattern_masses(measure, sites)[0])
            with pytest.raises(MembershipError):
                list(pattern_masses(measure, Sites(sites))[0])
        with pytest.raises(ValueError, match="repeated site"):
            list(pattern_masses(measure, [a1, identity, a1])[0])
        # The translate by a generator outside Sigma is built, then refused when read.
        with pytest.raises(MembershipError, match="site A1 is not"):
            shift_invariance_check(measure, Symbol(1, -1), 1)
        # |B_5| = 63 sites give 2^63 patterns: refused before any sphere is kept.
        for scan in (
            lambda: shift_invariance_check(measure, Symbol(1, 1), 5),
            lambda: pushforward_check(measure, measure, 5),
            lambda: weak_star_distance(measure, measure, 5),
        ):
            with pytest.raises(ValidationError, match="radius-5 ball is refused"):
                scan()
    # Only the two layouts of the radius-1 scan by A1 are kept.
    assert LAYOUTS.cache_info().currsize == 2


def test_a_chain_is_validated_before_a_kept_translate_is_read():
    """A kept translate by a generator outside Sigma is refused by the measure
    that reads it, after the measure's own checks."""
    chain = random_invariant_chain(random.Random(6), (1, 2), 2)
    bad = MarkovTreeChain.make(chain.gs, chain.alphabet, (F(1), F(1)), dict(chain.transitions))
    for _ in range(2):
        with pytest.raises(MembershipError):
            shift_invariance_check(chain, Symbol(1, -1), 1)
        with pytest.raises(InvalidChain):
            shift_invariance_check(bad, Symbol(1, -1), 1)


def test_a_one_symbol_scan_of_a_large_ball_keeps_nothing():
    gs = GeneratorSet.from_signed((1, 2))
    one = BernoulliMeasure(gs, ("x",), (F(1),))
    LAYOUTS.cache_clear()
    # B_8 has 511 sites; one symbol gives one pattern.
    assert shift_invariance_check(one, Symbol(2, 1), 8).ok
    assert weak_star_distance(one, one, 8) == 0
    assert LAYOUTS.cache_info().currsize == 0
    # Many distinct scans over two symbols fill the memo to its bound, no further.
    two = BernoulliMeasure(gs.extended(), (0, 1), (F(1, 3), F(2, 3)))
    for r in range(3):
        for a in two.gs.symbols():
            assert shift_invariance_check(two, a, r).ok
    for n in range(2, 2 + algebra._MEMO_ENTRIES):
        uniform = BernoulliMeasure(gs, tuple(range(n)), (F(1, n),) * n)
        assert weak_star_distance(uniform, uniform, 0) == 0
    info = LAYOUTS.cache_info()
    assert info.maxsize == algebra._MEMO_ENTRIES
    assert 0 < info.currsize <= info.maxsize


def test_a_masses_call_on_a_word_list_keeps_nothing():
    """A word list gets a Sites of its own, which no memo keeps, however long
    its words; only a Sites passed in keeps the plan made for it."""
    gs = GeneratorSet.from_signed((1, 2))
    rng = random.Random(9)

    def words(*lengths):
        return [Word(tuple(rng.choice(gs.symbols()) for _ in range(k))) for k in lengths]

    chain = random_chain(rng, (1, 2), 2, False)
    two = BernoulliMeasure(gs, (0, 1), (F(1, 3), F(2, 3)))
    LAYOUTS.cache_clear()
    long_words = words(400, 400, 224)
    cases = ((two, words(20000, 20000, 20000)), (chain, long_words), (chain, sorted_ball(gs, 2)))
    for measure, sites in cases:
        assert measure.masses(sites) == pattern_masses(measure, sites)
    assert LAYOUTS.cache_info().currsize == 0
    sites = Sites(long_words)
    assert chain.masses(sites) == chain.masses(long_words)
    assert list(sites.plans) == [2]


def test_a_translate_plan_past_its_reorder_bound_is_not_kept():
    """B_1 over Sigma(+-1, +-2, +-3) moved by a3 lists its 7 sites out of hull
    order: on 5 symbols its plan reorders 5^7 = 78125 offsets."""
    chain = random_invariant_chain(random.Random(8), (1, -1, 2, -2, 3, -3), 5)
    a3 = Symbol(3, 1)
    expected = cold(shift_invariance_check, chain, a3, 1)
    assert expected.ok
    for _ in range(2):
        assert shift_invariance_check(chain, a3, 1) == expected
        sites, _, moved = algebra.scan_layout(chain.gs, 1, 5, a3)
        assert moved.plans == {}
        assert list(sites.plans) == [5]


def test_a_periodic_measure_builds_one_hull_per_pattern(monkeypatch):
    """Its orbits read one Sites, kept on the pattern."""
    orbits = tuple(random_automaton(random.Random(7), 6, True) for _ in range(3))
    measure = PeriodicMeasure(orbits, (F(1, 3),) * 3)
    hulls = []
    hull = algebra._hull

    def counting(*args):
        hulls.append(args)
        return hull(*args)

    monkeypatch.setattr(algebra, "_hull", counting)
    a1, a2 = Symbol(1, 1), Symbol(2, 1)
    pattern = Pattern.of({EPSILON: 0, Word((a1,)): 1, Word((a2, a1)): 0})
    assert measure.eval(pattern) == sum((o.eval(pattern) for o in orbits), F(0)) / 3
    assert len(hulls) == 1


def test_every_chain_fold_reads_one_hull_per_pattern(monkeypatch):
    """A chain, a mixture of two chains and a Bernoulli measure, and a
    markovized measure read the one Sites their pattern keeps, however often
    they evaluate it; a pickled or copied pattern gives the same masses."""
    rng = random.Random(9)
    chain, second = (random_invariant_chain(rng, (1, 2)) for _ in range(2))
    bernoulli = BernoulliMeasure(chain.gs, chain.alphabet, (F(1, 3), F(2, 3)))
    mixture = MixtureMeasure((chain, second, bernoulli), (F(1, 2), F(1, 4), F(1, 4)))
    measures = (chain, mixture, MarkovizedMeasure(markovize(chain, 1)))
    a1, a2 = Symbol(1, 1), Symbol(2, 1)
    entries = {EPSILON: 0, Word((a1,)): 1, Word((a2, a1)): 0, Word((a1, a2)): 1}
    expected = [m.eval(Pattern.of(entries)) for m in measures]
    assert expected[0] == oracle_eval(chain, Pattern.of(entries))
    hulls = []
    hull = algebra._hull

    def counting(*args):
        hulls.append(args)
        return hull(*args)

    monkeypatch.setattr(algebra, "_hull", counting)
    pattern = Pattern.of(entries)
    for _ in range(3):
        assert [m.eval(pattern) for m in measures] == expected
    assert len(hulls) == 1
    monkeypatch.undo()
    for kept in (pickle.loads(pickle.dumps(pattern)), copy.deepcopy(pattern)):
        assert kept == pattern and kept.sites == pattern.sites
        assert [m.eval(kept) for m in measures] == expected
