import json
import random
from fractions import Fraction

import pytest

from helpers import random_invariant_chain, swap_orbit, worked_chain
from semishift import (
    EPSILON,
    BernoulliMeasure,
    FactorizationError,
    GeneratorSet,
    LatticeBernoulli,
    LatticeMarkov,
    LatticePattern,
    LatticeTable,
    MixtureMeasure,
    OrbitAutomaton,
    ParseError,
    Pattern,
    PeriodicMeasure,
    Symbol,
    find_separating_morphism,
    lift_to_group,
    parse_word,
    sorted_ball,
    theorem_a_point,
)
from semishift.serialize import (
    MEASURE_KINDS,
    automaton_in,
    automaton_out,
    chain_in,
    chain_out,
    fraction_to_str,
    lattice_pattern_in,
    lattice_pattern_out,
    measure_in,
    measure_out,
    morphism_in,
    morphism_out,
    MAX_RATIONAL_CHARS,
    parse_fraction,
    pattern_in,
    pattern_out,
    read_json,
    write_json,
)

F = Fraction
GS2 = GeneratorSet.from_signed((1, 2))


def through_json(data):
    return json.loads(json.dumps(data))


def test_fraction_strings():
    assert fraction_to_str(F(3, 4)) == "3/4"
    assert fraction_to_str(F(5)) == "5/1"
    assert parse_fraction("3/4") == F(3, 4)
    assert parse_fraction("7") == F(7)
    for bad in ("", "1/0", "0.5", "a/b", None):
        with pytest.raises(ParseError):
            parse_fraction(bad)


def test_fraction_strings_longer_than_the_bound_are_refused_unread():
    for text in ("1" * (MAX_RATIONAL_CHARS + 1), "1/" + "0" * MAX_RATIONAL_CHARS):
        with pytest.raises(ParseError, match=f"{len(text)} characters") as info:
            parse_fraction(text, "p")
        assert str(info.value).startswith("p: ")
        assert len(str(info.value)) < 100  # the text itself is not echoed


def test_long_malformed_rationals_show_a_prefix_and_their_length():
    # short inputs keep their whole repr in the message
    short = (("0.5", "'0.5'"), ("1/0", "'1/0'"), (None, "None"), ("x" * 64, repr("x" * 64)))
    for bad, shown in short:
        with pytest.raises(ParseError) as info:
            parse_fraction(bad, "p")
        assert str(info.value).startswith(f"p: cannot read rational {shown}")
    for bad in ("0." + "5" * 15_000, "1/" + "0" * 65, ["1/2"] * 5000):
        with pytest.raises(ParseError, match=r"\.\.\. \(\d+ characters\)") as info:
            parse_fraction(bad, "p")
        assert len(str(info.value)) < 150
    with pytest.raises(ParseError, match="'1/00000") as info:
        parse_fraction("1/" + "0" * 65, "p")
    assert str(info.value).endswith("... (67 characters): Fraction(1, 0)")


def test_read_json_refuses_long_integer_literals_unread(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"n": 1, "m": -' + "2" * MAX_RATIONAL_CHARS + "}")
    with pytest.raises(ParseError, match=f"{MAX_RATIONAL_CHARS + 1} characters is longer"):
        read_json(path)
    path.write_text('{"n": [' + "1" * 4000 + ", -3, 0]}")
    assert read_json(path) == {"n": [int("1" * 4000), -3, 0]}


def test_chain_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        chain = random_invariant_chain(rng, (1, -1, 2), 3)
        data = through_json(chain_out(chain))
        back = chain_in(data)
        assert back == chain


def test_chain_round_trip_exotic_rationals():
    huge = F(10**40 + 1, 3 * 10**40)
    rest = 1 - huge
    chain = worked_chain(1)
    from semishift import MarkovTreeChain
    exotic = MarkovTreeChain.make(
        chain.gs, (0, 1), (huge, rest), dict(chain.transitions)
    )
    assert chain_in(through_json(chain_out(exotic))) == exotic


def test_pattern_round_trip():
    pattern = Pattern.of(
        {parse_word(""): 0, parse_word("a1a2"): 1, parse_word("a2a2"): 0}
    )
    data = through_json(pattern_out(pattern, 2))
    assert pattern_in(data) == pattern


def test_pattern_accepts_mapping_form():
    data = {"entries": {"": 0, "a1": 1}}
    pattern = pattern_in(data)
    assert pattern[parse_word("a1")] == 1


def test_pattern_rejects_bad_words():
    with pytest.raises(ParseError):
        pattern_in({"entries": [["notaword", 0]]})
    with pytest.raises(ParseError):
        pattern_in({"entries": [["a1", 0], ["a1", 1]]})


def test_automaton_round_trip():
    auto = swap_orbit()
    back = automaton_in(through_json(automaton_out(auto)))
    assert back.labels == auto.labels
    assert back.delta == auto.delta
    assert back.base == auto.base
    assert type(back) is type(auto)


def test_group_automaton_round_trip():
    lifted = lift_to_group(swap_orbit())
    back = automaton_in(through_json(automaton_out(lifted)))
    assert back == lifted


# Sigma = {a1, A1} and Sigma(+-1, +-2) first, then signed and unsigned ones.
SIGMAS = ((1, -1), (1, -1, 2, -2), (1,), (1, 2), (-1, 2), (1, -1, 2), (2, -2))
ALPHABETS = ((0, 1), ("x", "y", "z"), ((0, 1), (1, 0)))


def test_automata_and_measures_read_back_equal():
    """An automaton, a periodic measure and a mixture holding one come back from
    their JSON equal to what was written, whatever Sigma they are over."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def inverse(row):
        return tuple(sorted(range(len(row)), key=row.__getitem__))

    @st.composite
    def hand_built(draw, gs, alphabet, periodic):
        """Rows drawn per generator, an inverse pair's rows mutually inverse,
        cut down to the states reachable from state 0."""
        n = draw(st.integers(1, 4))
        delta = {}
        for s in gs.symbols():
            if s.sign < 0 and s.inverse() in gs.sigma:
                continue
            if periodic or s.inverse() in gs.sigma or draw(st.booleans()):
                delta[s] = tuple(draw(st.permutations(range(n))))
            else:
                delta[s] = tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
            if s.inverse() in gs.sigma:
                delta[s.inverse()] = inverse(delta[s])
        kept, frontier = [0], [0]
        while frontier:
            q = frontier.pop()
            for row in delta.values():
                if row[q] not in kept:
                    kept.append(row[q])
                    frontier.append(row[q])
        index = {q: i for i, q in enumerate(kept)}
        labels = tuple(draw(st.sampled_from(alphabet)) for _ in kept)
        rows = {s: tuple(index[row[q]] for q in kept) for s, row in delta.items()}
        return OrbitAutomaton(gs, alphabet, labels, rows)

    @st.composite
    def theorem_a(draw, gs, alphabet):
        """A periodic point through a pattern on the 1-ball, or through its
        identity site alone when the pattern does not factor."""
        k = draw(st.integers(1, 4))
        chosen = {i: tuple(draw(st.permutations(range(k)))) for i in {s.index for s in gs.sigma}}
        theta = {s: chosen[s.index] if s.sign > 0 else inverse(chosen[s.index]) for s in gs.sigma}
        sites = draw(st.lists(st.sampled_from(sorted_ball(gs, 1)), min_size=1, unique=True))
        pattern = Pattern.of({w: draw(st.sampled_from(alphabet)) for w in sites})
        fill = draw(st.sampled_from(alphabet))
        try:
            return theorem_a_point(pattern, theta, gs, alphabet, fill)
        except FactorizationError:
            return theorem_a_point(Pattern.of({EPSILON: fill}), theta, gs, alphabet, fill)

    @st.composite
    def cases(draw):
        gs = GeneratorSet.from_signed(draw(st.sampled_from(SIGMAS)), 2)
        alphabet = draw(st.sampled_from(ALPHABETS))
        orbit = st.one_of(hand_built(gs, alphabet, True), theorem_a(gs, alphabet))
        orbits = draw(st.lists(orbit, min_size=1, max_size=3))
        if draw(st.booleans()):
            orbits = [lift_to_group(o) for o in orbits]
        counts = draw(st.lists(st.integers(1, 5), min_size=len(orbits), max_size=len(orbits)))
        periodic = PeriodicMeasure(tuple(orbits), tuple(F(c, sum(counts)) for c in counts))
        fair = BernoulliMeasure(periodic.gs, alphabet, (F(1, len(alphabet)),) * len(alphabet))
        mixture = MixtureMeasure((periodic, fair), (F(1, 3), F(2, 3)))
        automata = [*orbits, draw(hand_built(gs, alphabet, False))]
        return automata, [periodic, mixture]

    @hypothesis.given(cases())
    def check(case):
        automata, measures = case
        for o in automata:
            assert automaton_in(through_json(automaton_out(o))) == o
        for m in measures:
            assert measure_in(through_json(measure_out(m))) == m

    check()


def test_a_bare_orbit_is_refused_with_the_wrapper_to_use():
    """No measure kind holds a bare automaton, alone or in a mixture; the
    refusal names the kind that does."""
    orbit = swap_orbit()
    mixture = MixtureMeasure((orbit, PeriodicMeasure((orbit,), (Fraction(1),))), (Fraction(1, 2),) * 2)
    for measure in (orbit, mixture):
        with pytest.raises(ParseError, match="^cannot serialize measure of type OrbitAutomaton; "
                           "wrap the orbits in a PeriodicMeasure$"):
            measure_out(measure)
    assert measure_out(PeriodicMeasure((orbit,), (Fraction(1),)))["kind"] == "periodic"


def test_morphism_round_trip():
    theta = find_separating_morphism(GS2, 1, 4, seed=5)
    back = morphism_in(through_json(morphism_out(theta)))
    assert back == theta
    with pytest.raises(ParseError):
        morphism_in({"theta": {}})


def test_automaton_and_morphism_refuse_non_integers():
    data = automaton_out(swap_orbit())
    for bad in (
        {"delta": {"1": [1.7, 0.2], "2": [1, 0]}},
        {"delta": {"1": ["1", "0"], "2": [1, 0]}},
        {"base": 1.0},
        {"base": True},
    ):
        with pytest.raises(ParseError, match="is not an integer"):
            automaton_in(through_json({**data, **bad}))
    for bad in ([1.0, 0], [True, False], "10"):
        with pytest.raises(ParseError, match="is not an integer"):
            morphism_in({"k": 2, "theta": {"1": bad}})


def test_every_generator_keyed_map_reads_its_key_before_its_row():
    chain, automaton = chain_out(worked_chain()), automaton_out(swap_orbit())
    for read, data in (
        (chain_in, {**chain, "P": {"0": [["x"]]}}),
        (automaton_in, {**automaton, "delta": {"0": ["x"]}}),
        (morphism_in, {"k": 1, "theta": {"0": ["x"]}}),
    ):
        with pytest.raises(ParseError) as info:
            read(through_json(data))
        assert str(info.value).endswith(": signed generator value must be nonzero")


def test_lattice_pattern_round_trip():
    pattern = LatticePattern.of({(-1, 2): 0, (3, 0): 1})
    back = lattice_pattern_in(through_json(lattice_pattern_out(pattern)))
    assert back == pattern


def test_measure_round_trip_all_kinds():
    swap_pm = PeriodicMeasure((swap_orbit(),), (F(1),))
    fair = BernoulliMeasure(GS2, (0, 1), (F(1, 2), F(1, 2)))
    cases = [
        worked_chain(2),
        fair,
        swap_pm,
        MixtureMeasure((fair, worked_chain(2)), (F(1, 3), F(2, 3))),
        LatticeBernoulli(1, (0, 1), (F(1, 3), F(2, 3))),
        LatticeMarkov(
            (0, 1), (F(1, 3), F(2, 3)),
            ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))),
        ),
    ]
    probe = Pattern.of({parse_word(""): 0, parse_word("a1"): 1})
    lattice_probe = LatticePattern.of({(0,): 0, (2,): 1})
    for measure in cases:
        back = measure_in(through_json(measure_out(measure)))
        if hasattr(measure, "d") and not hasattr(measure, "gs"):
            assert back.eval(lattice_probe) == measure.eval(lattice_probe)
        else:
            assert back.eval(probe) == measure.eval(probe)


def test_every_measure_kind_writes_its_own_tag_and_round_trips():
    fair = BernoulliMeasure(GS2, (0, 1), (F(1, 2), F(1, 2)))
    swap_pm = PeriodicMeasure((swap_orbit(),), (F(1),))
    examples = {
        "chain": worked_chain(2),
        "bernoulli": fair,
        "periodic": swap_pm,
        "mixture": MixtureMeasure((swap_pm, fair), (F(1, 2), F(1, 2))),
        "lattice-bernoulli": LatticeBernoulli(1, (0, 1), (F(1, 3), F(2, 3))),
        "lattice-markov": LatticeMarkov((0, 1), (F(1, 2), F(1, 2)), ((F(1, 2), F(1, 2)),) * 2),
        "lattice-table": LatticeTable(
            1, (0, 1), (1,), tuple((LatticePattern.of({(0,): c}), F(1, 2)) for c in (0, 1))
        ),
    }
    assert set(examples) == set(MEASURE_KINDS)
    for tag, measure in examples.items():
        data = measure_out(measure)
        assert data["kind"] == tag
        assert measure_in(through_json(data)) == measure
        again = measure_out(measure_in(through_json(data)))
        assert json.dumps(again, sort_keys=True) == json.dumps(data, sort_keys=True)
    # a periodic measure is also a mixture, but keeps its own tag inside one
    nested = measure_out(examples["mixture"])["components"]
    assert [c["kind"] for c in nested] == ["periodic", "bernoulli"]


def test_measure_rejects_unknown_kind():
    with pytest.raises(ParseError):
        measure_in({"kind": "mystery"})
    with pytest.raises(ParseError):
        measure_in({})


def test_file_round_trip_is_byte_stable(tmp_path):
    chain = worked_chain(2)
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    write_json(first, measure_out(chain))
    write_json(second, measure_out(measure_in(read_json(first))))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")


def test_symbol_coding_preserves_tuples():
    # counterexample chains use vector symbols; lists must come back as tuples
    from semishift import counterexample_chain
    chain = counterexample_chain((((1, 2), (0, 1)), ((1, 0), (2, 1))), 3, F(1, 20))
    back = chain_in(through_json(chain_out(chain)))
    assert back.alphabet == chain.alphabet
    assert all(isinstance(c, tuple) for c in back.alphabet)
