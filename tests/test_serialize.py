import json
import random
from fractions import Fraction

import pytest

from helpers import random_invariant_chain, swap_orbit, worked_chain
from semishift import (
    BernoulliMeasure,
    GeneratorSet,
    GroupOrbitAutomaton,
    LatticeBernoulli,
    LatticeMarkov,
    LatticePattern,
    LatticeTable,
    MixtureMeasure,
    ParseError,
    Pattern,
    PeriodicMeasure,
    Symbol,
    find_separating_morphism,
    lift_to_group,
    parse_word,
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
    assert isinstance(back, GroupOrbitAutomaton)
    assert back.delta == lifted.delta


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
