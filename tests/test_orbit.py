import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import semishift.orbit
from helpers import oracle_monoid, random_automaton, swap_orbit, traced_peak, two_point_orbit
from semishift import (
    BernoulliMeasure,
    BudgetExhausted,
    EPSILON,
    FactorizationError,
    GeneratorSet,
    MembershipError,
    MixtureMeasure,
    NotPeriodic,
    OrbitAutomaton,
    Pattern,
    PeriodicMeasure,
    Symbol,
    ValidationError,
    Word,
    ball,
    find_separating_morphism,
    in_semigroup,
    is_periodic,
    is_transitive,
    lift_to_group,
    minimized,
    orbit_size,
    parse_word,
    periodic_measure_eval,
    readout,
    theorem_a_point,
    transformation_monoid,
)
from semishift.cli import execute
from semishift.serialize import automaton_out, write_json

F = Fraction
GS2 = GeneratorSet.from_signed((1, 2))
A = Symbol(1, 1)
B = Symbol(2, 1)


def w(text):
    return parse_word(text)


def loop_orbit(label=0):
    return OrbitAutomaton(
        gs=GS2, alphabet=(0, 1), labels=(label,),
        delta={A: (0,), B: (0,)}, base=0,
    )


def test_readout_examples():
    assert readout(loop_orbit(), w("a1a2a1a2")) == 0
    assert readout(swap_orbit(), w("a1a2")) == 0
    assert readout(swap_orbit(), w("a1")) == 1
    # base x: a moves to y (label 1), b moves anything to x (label 0)
    two = two_point_orbit()
    assert readout(two, EPSILON) == 0
    assert readout(two, w("a1")) == 1
    assert readout(two, w("a2")) == 0
    # letters apply right-to-left: a1a2 acts as delta_a after delta_b
    assert readout(two, w("a1a2")) == 1
    assert readout(two, w("a2a1")) == 0


def test_readout_membership_error():
    with pytest.raises(MembershipError):
        readout(swap_orbit(), w("A1"))


def test_minimized_collapses_bisimilar_states():
    duplicated = OrbitAutomaton(
        gs=GS2, alphabet=(0, 1), labels=(0, 0),
        delta={A: (1, 0), B: (1, 0)}, base=0,
    )
    assert len(minimized(duplicated).labels) == 1
    assert orbit_size(duplicated) == 1


def test_orbit_size_examples():
    assert orbit_size(swap_orbit()) == 2
    assert orbit_size(two_point_orbit()) == 2
    assert orbit_size(loop_orbit()) == 1


def test_is_periodic_examples():
    assert is_periodic(two_point_orbit()) is False
    assert is_periodic(swap_orbit()) is True
    assert is_periodic(loop_orbit()) is True


def test_is_transitive_examples():
    assert is_transitive(two_point_orbit()) is True
    assert is_transitive(swap_orbit()) is True
    trap = OrbitAutomaton(
        gs=GS2, alphabet=(0, 1), labels=(0, 1),
        delta={A: (1, 1), B: (1, 1)}, base=0,
    )
    assert is_transitive(trap) is False


def test_transformation_monoid_examples():
    assert transformation_monoid(swap_orbit()) == (2, True)
    assert transformation_monoid(two_point_orbit()) == (3, False)
    assert transformation_monoid(loop_orbit()) == (1, True)


def test_transformation_monoid_matches_oracle():
    # Two draws in three are permutation automata, so both sides of the
    # group case meet the oracle: a regular group is certified without
    # listing, any other group is listed.
    rng = random.Random(501)
    kinds = Counter()
    for i in range(400):
        o = random_automaton(rng, rng.randrange(1, 7), i % 3 != 0)
        size, group = oracle_monoid(o)
        assert transformation_monoid(o) == (size, group)
        kinds["monoid" if not group else "regular" if size == orbit_size(o) else "non-regular"] += 1
    assert min(kinds[kind] for kind in ("regular", "non-regular", "monoid")) >= 20, kinds


def sym_point(k):
    """The Theorem-A point of Sym(k) from a transposition and a k-cycle:
    the identity labelled 1, every other permutation 0."""
    theta = {A: (1, 0, *range(2, k)), B: (*range(1, k), 0)}
    return theorem_a_point(Pattern.of({EPSILON: 1}), theta, GS2, (0, 1))


def natural_action(a, b):
    """The two permutations acting on their points, point 0 labelled 1 and the rest 0."""
    return OrbitAutomaton(GS2, (0, 1), (1,) + (0,) * (len(a) - 1), {A: tuple(a), B: tuple(b)})


def test_a_regular_group_has_one_map_per_state():
    # Sym(k) acts on itself regularly, so its k! elements are the orbit's k! states.
    for k in range(3, 8):
        o = sym_point(k)
        assert o.minimal.n_states() == math.factorial(k)
        for orbit in (o, lift_to_group(o)):
            assert transformation_monoid(orbit) == (math.factorial(k), True)
    # a1 turns n points by one, a2 by four: the cyclic group of order n
    for n in (1, 2, 5, 12):
        cyclic = natural_action([(i + 1) % n for i in range(n)], [(i + 4) % n for i in range(n)])
        assert orbit_size(cyclic) == n
        for orbit in (cyclic, lift_to_group(cyclic)):
            assert transformation_monoid(orbit) == (n, True)


def test_a_group_that_is_not_regular_is_listed():
    # Sym(k) on k points has k! elements, the dihedral group D_k (a rotation
    # and a reflection fixing point 0) has 2k; neither is regular for k >= 3.
    for k in range(3, 7):
        sym = natural_action([1, 0, *range(2, k)], [*range(1, k), 0])
        dihedral = natural_action([*range(1, k), 0], [-i % k for i in range(k)])
        for orbit, size in ((sym, math.factorial(k)), (dihedral, 2 * k)):
            assert orbit_size(orbit) == k
            for o in (orbit, lift_to_group(orbit)):
                assert transformation_monoid(o) == (size, True)


def test_a_regular_orbit_is_certified_in_little_memory():
    o = sym_point(6)
    assert o.minimal.n_states() == 720
    result, peak = traced_peak(lambda: transformation_monoid(o))
    assert result == (720, True) and peak < 2**19


def test_group_automaton_refuses_non_bijective_row():
    gs = GeneratorSet.from_signed((1, -1))
    with pytest.raises(ValidationError, match="not inverse bijections"):
        OrbitAutomaton(
            gs=gs, alphabet=(0, 1), labels=(0, 1),
            delta={A: (1, 1), A.inverse(): (0, 1)}, base=0,
        )


def test_each_automaton_is_minimized_once(monkeypatch, tmp_path):
    calls = []
    original = semishift.orbit.minimized

    def counting(o):
        calls.append(o)
        return original(o)

    monkeypatch.setattr(semishift.orbit, "minimized", counting)
    path = tmp_path / "auto.json"
    write_json(path, automaton_out(two_point_orbit()))
    code, text = execute(["orbit-analyze", "--automaton", str(path)])
    assert code == 0 and "monoid_size: 3" in text
    assert len(calls) == 1

    calls.clear()
    orbits = (swap_orbit(), loop_orbit(0), loop_orbit(1))
    pm = PeriodicMeasure(orbits, (F(1, 2), F(1, 4), F(1, 4)))
    for pattern in ({}, {EPSILON: 0}, {EPSILON: 1, w("a1"): 0}, {w("a2a1"): 1}):
        pm.eval(Pattern.of(pattern))
    assert [id(o) for o in calls] == [id(o) for o in orbits]


def test_lift_minimizes_once(monkeypatch, tmp_path):
    calls = []
    original = semishift.orbit.minimized

    def counting(o):
        calls.append(o)
        return original(o)

    monkeypatch.setattr(semishift.orbit, "minimized", counting)
    path = tmp_path / "auto.json"
    write_json(path, automaton_out(swap_orbit()))
    code, text = execute(["lift", "--automaton", str(path)])
    assert code == 0 and "periodic: true" in text
    assert len(calls) == 1


def test_theorem_a_parity_example():
    pattern = Pattern.of({EPSILON: 0, w("a1"): 1, w("a2"): 1})
    theta = {A: (1, 0), B: (1, 0)}
    point = theorem_a_point(pattern, theta, GS2, (0, 1))
    assert is_periodic(point)
    assert orbit_size(point) == 2
    for word in sorted(ball(GS2, 2), key=lambda v: v.key()):
        assert readout(point, word) == len(word.letters) % 2


def test_theorem_a_klein_example():
    # theta(a) flips the first coordinate, theta(b) the second, in the
    # regular representation of the Klein four group on {0,1}^2
    pattern = Pattern.of({EPSILON: 0, w("a1"): 1, w("a2"): 0})
    theta = {A: (1, 0, 3, 2), B: (2, 3, 0, 1)}
    point = theorem_a_point(pattern, theta, GS2, (0, 1))
    assert is_periodic(point)
    assert orbit_size(point) <= 4
    for site, symbol in pattern.items():
        assert readout(point, site) == symbol


def test_theorem_a_factorization_error():
    pattern = Pattern.of({w("a1"): 1, w("a2"): 0})
    theta = {A: (1, 0), B: (1, 0)}
    with pytest.raises(FactorizationError):
        theorem_a_point(pattern, theta, GS2, (0, 1))


def test_theorem_a_checks_sites_then_symbols_before_factoring():
    theta = {A: (1, 0), B: (1, 0)}
    # a1 and a2 share a theta-image, so this pattern also does not factor
    faults = {w("a1"): 1, w("a2"): 9, w("A1"): 0}
    with pytest.raises(MembershipError):
        theorem_a_point(Pattern.of(faults), theta, GS2, (0, 1))
    del faults[w("A1")]
    with pytest.raises(ValidationError, match="symbol 9 is not in the alphabet"):
        theorem_a_point(Pattern.of(faults), theta, GS2, (0, 1))


def test_theorem_a_fill_symbol():
    pattern = Pattern.of({EPSILON: 1})
    theta = {A: (1, 0), B: (1, 0)}
    point = theorem_a_point(pattern, theta, GS2, (0, 1), fill=1)
    assert readout(point, EPSILON) == 1
    assert readout(point, w("a1")) == 1


def test_find_separating_morphism_examples():
    theta = find_separating_morphism(GS2, 1, 4, seed=11)
    images = {}
    for word in ball(GS2, 1):
        image = tuple(range(4))
        for sym in word.letters:
            image = tuple(theta[sym][i] for i in image)
        images[word] = image
    assert len(set(images.values())) == len(images)

    with pytest.raises(BudgetExhausted):
        find_separating_morphism(GS2, 2, 2, seed=1, budget=50)

    single = GeneratorSet.from_signed((1,))
    theta = find_separating_morphism(single, 3, 4, seed=3)
    # only a 4-cycle separates {e, a, a^2, a^3} inside Sym(4)
    perm = theta[A]
    seen = {0}
    state = perm[0]
    while state not in seen:
        seen.add(state)
        state = perm[state]
    assert len(seen) == 4


def test_find_separating_morphism_deterministic():
    first = find_separating_morphism(GS2, 1, 4, seed=42)
    second = find_separating_morphism(GS2, 1, 4, seed=42)
    assert first == second


def test_lift_swap_orbit():
    lifted = lift_to_group(swap_orbit())
    assert type(lifted) is OrbitAutomaton and lifted.gs.symmetric
    gs = lifted.gs
    assert set(gs.sigma) == {A, B, A.inverse(), B.inverse()}
    for g in ball(gs, 2):
        assert readout(lifted, g) == len(g.letters) % 2


def test_lift_constant_orbit():
    lifted = lift_to_group(loop_orbit(1))
    for g in ball(lifted.gs, 3):
        assert readout(lifted, g) == 1


def test_lift_three_cycle_inverse():
    gs1 = GeneratorSet.from_signed((1,))
    cycle = OrbitAutomaton(
        gs=gs1, alphabet=(0, 1, 2), labels=(0, 1, 2),
        delta={A: (1, 2, 0)}, base=0,
    )
    lifted = lift_to_group(cycle)
    # moving by a^-1 lands on the predecessor in the 3-cycle
    assert readout(lifted, w("A1")) == 2
    assert readout(lifted, w("A1A1")) == 1


def test_lift_restriction_and_errors():
    lifted = lift_to_group(swap_orbit())
    for word in ball(GS2, 3):
        if in_semigroup(word, GS2):
            assert readout(lifted, word) == readout(swap_orbit(), word)
    assert orbit_size(lifted) == orbit_size(swap_orbit())
    with pytest.raises(NotPeriodic):
        lift_to_group(two_point_orbit())


def test_periodic_measure_eval_examples():
    pm = PeriodicMeasure((swap_orbit(),), (F(1),))
    assert periodic_measure_eval(pm, Pattern.of({EPSILON: 0})) == F(1, 2)
    assert periodic_measure_eval(pm, Pattern.of({EPSILON: 0, w("a1"): 0})) == 0
    assert periodic_measure_eval(pm, Pattern.of({})) == 1


def test_orbit_evaluates_as_the_uniform_measure_on_its_minimal_orbit():
    # two distinct configurations x (label 0) and y (label 1); a1 sends both to y
    o = two_point_orbit()
    assert o.eval(Pattern.of({EPSILON: 0})) == F(1, 2)
    assert o.eval(Pattern.of({w("a1"): 1})) == 1
    assert o.eval(Pattern.of({})) == 1
    # three raw states, two of which show the same configuration
    gs = GeneratorSet.from_signed((1,))
    tail = OrbitAutomaton(gs=gs, alphabet=(0, 1), labels=(0, 1, 1), delta={A: (1, 2, 2)})
    assert tail.minimal.n_states() == 2
    assert tail.eval(Pattern.of({EPSILON: 1})) == F(1, 2)
    assert tail.eval(Pattern.of({EPSILON: 0, w("a1"): 1})) == F(1, 2)


def test_orbit_eval_on_a_long_site_keeps_one_row_per_hull_vertex():
    site = Word((A,) * 5000)
    orbit = swap_orbit()
    value, peak = traced_peak(lambda: orbit.eval(Pattern.of({site: 0})))
    assert value == F(1, 2) and peak < 16 * 2**20


def test_periodic_measure_is_a_mixture_of_its_orbits():
    orbits = (swap_orbit(), loop_orbit(0))
    pm = PeriodicMeasure(orbits, (F(1, 3), F(2, 3)))
    mix = MixtureMeasure(orbits, (F(1, 3), F(2, 3)))
    assert isinstance(pm, MixtureMeasure) and pm.orbits is pm.components
    assert pm != mix and (pm.gs, pm.alphabet) == (mix.gs, mix.alphabet)
    for pattern in ({}, {EPSILON: 0}, {EPSILON: 1, w("a1"): 0}, {w("a2a1"): 1}):
        assert pm.eval(Pattern.of(pattern)) == mix.eval(Pattern.of(pattern))
    with pytest.raises(ValidationError, match="need matching, nonempty components"):
        PeriodicMeasure(orbits, (F(1),))
    with pytest.raises(NotPeriodic):
        PeriodicMeasure((two_point_orbit(),), (F(1),))


def test_periodic_measure_refuses_a_component_that_is_not_an_orbit():
    orbit = swap_orbit()
    fair = BernoulliMeasure(orbit.gs, orbit.alphabet, (F(1, 2), F(1, 2)))
    for components, weights in (((fair,), (F(1),)), ((orbit, fair), (F(1, 2), F(1, 2)))):
        with pytest.raises(ValidationError, match="must be an OrbitAutomaton"):
            PeriodicMeasure(components, weights)


def test_periodic_measure_eval_membership_error():
    pm = PeriodicMeasure((swap_orbit(),), (F(1),))
    with pytest.raises(MembershipError):
        periodic_measure_eval(pm, Pattern.of({w("A1"): 0}))


def test_periodic_measure_additivity():
    rng = random.Random(14)
    mix = PeriodicMeasure(
        (swap_orbit(), loop_orbit(0)), (F(1, 3), F(2, 3))
    )
    words = sorted(ball(GS2, 2), key=lambda v: v.key())
    for _ in range(40):
        sites = rng.sample(words, rng.randrange(0, 3))
        pattern = Pattern.of({s: rng.randrange(2) for s in sites})
        extra = rng.choice([v for v in words if v not in sites])
        total = sum(
            periodic_measure_eval(mix, Pattern(pattern.entries + ((extra, c),)))
            for c in (0, 1)
        )
        assert total == periodic_measure_eval(mix, pattern)


def test_periodic_implies_transitive_and_group_monoid():
    rng = random.Random(500)
    for _ in range(120):
        permutations = rng.random() < 0.5
        o = random_automaton(rng, rng.randrange(2, 6), permutations)
        periodic = is_periodic(o)
        size, group = transformation_monoid(o)
        assert group == periodic
        if periodic:
            assert is_transitive(o)
        assert size >= 1


def test_compose_agrees_with_the_map_definition_at_every_degree():
    # itemgetter refuses no index and returns a bare point for one, so
    # degrees 0 and 1 take their own path.
    rng = random.Random(3001)
    for degree in (0, 1, 2, 3, 8, 720):
        for _ in range(4):
            outer = tuple(rng.randrange(degree) for _ in range(degree))
            inner = tuple(rng.sample(range(degree), degree))
            assert semishift.orbit.compose(outer, inner) == tuple(map(outer.__getitem__, inner))
            assert semishift.orbit.compose(inner, outer) == tuple(map(inner.__getitem__, outer))


def test_one_state_orbits_and_degree_one_morphisms():
    assert transformation_monoid(loop_orbit()) == (1, True)
    symmetric = GeneratorSet.from_signed((1, -1))
    one = OrbitAutomaton(symmetric, (0,), (0,), {A: (0,), A.inverse(): (0,)})
    assert transformation_monoid(one) == (1, True)
    point = theorem_a_point(Pattern.of({EPSILON: 1, w("a1"): 1}), {A: (0,), B: (0,)}, GS2, (0, 1))
    assert point.n_states() == 1 and point.delta == {A: (0,), B: (0,)}
    assert readout(point, w("a2a1")) == 1
