import importlib
import itertools
import random
from fractions import Fraction

import pytest

from helpers import swap_orbit, worked_chain
from semishift import (
    BernoulliMeasure,
    BlockAlphabet,
    EPSILON,
    GeneratorSet,
    MarkovTreeChain,
    MarkovizedMeasure,
    MembershipError,
    OracleNotNormalized,
    Pattern,
    PeriodicMeasure,
    ValidationError,
    Word,
    all_patterns,
    ball,
    eval_cylinder,
    is_invariant_chain,
    markovization_consistency,
    markovize,
    parse_word,
    support_alphabet,
    validate_chain,
    weak_star_distance,
)
from semishift.cli import execute
from semishift.markovize import consistency_masses
from semishift.serialize import chain_in, measure_out, pattern_out, read_json, write_json

F = Fraction
GS2 = GeneratorSet.from_signed((1, 2))


def w(text):
    return parse_word(text)


def fair_bernoulli():
    return BernoulliMeasure(GS2, (0, 1), (F(1, 2), F(1, 2)))


def swap_measure():
    return PeriodicMeasure((swap_orbit(),), (F(1),))


def test_support_alphabet_bernoulli():
    blocks = support_alphabet(fair_bernoulli(), 1)
    assert blocks.order == 1
    assert len(blocks) == 8
    assert all(mass == F(1, 8) for mass in blocks.masses)


def test_support_alphabet_swap():
    blocks = support_alphabet(swap_measure(), 1)
    assert len(blocks) == 2
    profiles = {
        tuple(block[s] for s in blocks.sites): mass
        for block, mass in zip(blocks.blocks, blocks.masses)
    }
    # site order e, a1, a2; the two orbit points alternate labels
    assert profiles == {(0, 1, 1): F(1, 2), (1, 0, 0): F(1, 2)}


def test_support_alphabet_order_zero():
    blocks = support_alphabet(worked_chain(2), 0)
    assert sorted(blocks.masses) == [F(1, 3), F(2, 3)]


def test_markovize_bernoulli_entries():
    result = markovize(fair_bernoulli(), 1)
    chain = result.chain
    assert result.diagnostics.ok
    assert result.invariance.ok
    for sym in GS2.symbols():
        rows = chain.matrix[sym]
        site = Word((sym,))
        for i, alpha in enumerate(result.blocks.blocks):
            for j, beta in enumerate(result.blocks.blocks):
                expected = F(1, 4) if beta[EPSILON] == alpha[site] else F(0)
                assert rows[i][j] == expected


def test_markovize_swap_deterministic():
    result = markovize(swap_measure(), 1)
    assert result.invariance.ok
    for sym in GS2.symbols():
        assert result.chain.matrix[sym] == ((F(0), F(1)), (F(1), F(0)))


def test_markovize_order_zero_recovers_chain():
    chain = worked_chain(2)
    result = markovize(chain, 0)
    assert result.blocks.order == 0
    relabeled = {block[EPSILON]: i for i, block in enumerate(result.blocks.blocks)}
    order = [relabeled[c] for c in chain.alphabet]
    assert tuple(result.chain.p[i] for i in order) == chain.p
    for sym in GS2.symbols():
        rows = result.chain.matrix[sym]
        assert tuple(
            tuple(rows[i][j] for j in order) for i in order
        ) == chain.matrix[sym]


def test_markovize_rejects_unnormalized():
    class Half:
        gs = GS2
        alphabet = (0, 1)

        def eval(self, pattern):
            return F(1, 2) * fair_bernoulli().eval(pattern)

    with pytest.raises(OracleNotNormalized):
        markovize(Half(), 1)


def test_markovize_zero_entries_are_conflicts():
    # every vanishing transition must come from a genuine overlap clash
    for oracle in (fair_bernoulli(), worked_chain(2), swap_measure()):
        result = markovize(oracle, 1)
        chain = result.chain
        for sym in GS2.symbols():
            rows = chain.matrix[sym]
            for i, alpha in enumerate(result.blocks.blocks):
                for j, beta in enumerate(result.blocks.blocks):
                    if rows[i][j] == 0:
                        joint = alpha.union(beta.translated(sym))
                        assert joint is None or oracle.eval(joint) == 0


def test_consistency_examples():
    assert markovization_consistency(fair_bernoulli(), 1, Pattern.of({EPSILON: 0}))
    assert markovization_consistency(
        swap_measure(), 1, Pattern.of({EPSILON: 0, w("a1"): 1})
    )
    chain = worked_chain(2)
    pattern = Pattern.of({EPSILON: 0, w("a1"): 1, w("a1a1"): 1})
    assert eval_cylinder(chain, pattern) == F(1, 8)
    assert markovization_consistency(chain, 2, pattern)


def test_consistency_exhaustive_low_order():
    oracles = (fair_bernoulli(), worked_chain(2), swap_measure())
    for oracle in oracles:
        for m in (0, 1):
            result = markovize(oracle, m)
            sites = result.blocks.sites
            for k in range(len(sites) + 1):
                for subset in itertools.combinations(sites, k):
                    for pattern in all_patterns(subset, (0, 1)):
                        assert markovization_consistency(
                            oracle, m, pattern, result
                        )


def test_consistency_sampled_order_two():
    rng = random.Random(23)
    chain = worked_chain(2)
    result = markovize(chain, 2)
    sites = list(result.blocks.sites)
    for _ in range(25):
        picks = rng.sample(sites, rng.randrange(1, 4))
        pattern = Pattern.of({s: rng.randrange(2) for s in picks})
        assert markovization_consistency(chain, 2, pattern, result)


def test_consistency_membership_error():
    with pytest.raises(MembershipError):
        markovization_consistency(
            fair_bernoulli(), 1, Pattern.of({w("a1a1"): 0})
        )


def test_markovized_measure_matches_oracle_in_distance():
    for oracle in (fair_bernoulli(), swap_measure()):
        pulled = MarkovizedMeasure(markovize(oracle, 1))
        assert weak_star_distance(oracle, pulled, 1) == 0


def test_noninvariant_oracle_flagged_not_raised():
    from semishift import MarkovTreeChain
    flat = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    skew = MarkovTreeChain.make(
        GS2, (0, 1), (F(1, 4), F(3, 4)), {s: flat for s in GS2.symbols()}
    )
    result = markovize(skew, 1)
    assert result.diagnostics.ok
    assert not result.invariance.ok
    assert result.invariance.witness


def test_block_chain_is_written_with_block_names(tmp_path):
    chain = worked_chain(2)
    result = markovize(chain, 1)
    n = len(result.blocks)
    assert result.chain.alphabet == tuple(f"B{i}" for i in range(n))
    source, out = tmp_path / "chain.json", tmp_path / "blocks.json"
    write_json(source, measure_out(chain))
    code, _ = execute(
        ["markovize", "--measure", str(source), "--order", "1", "--out", str(out)]
    )
    assert code == 0
    assert chain_in(read_json(out)) == result.chain


def test_markovize_translates_each_block_once_per_generator(monkeypatch):
    calls = []
    original = Pattern.translated

    def counting(self, a):
        calls.append(a)
        return original(self, a)

    monkeypatch.setattr(Pattern, "translated", counting)
    result = markovize(worked_chain(2), 1)
    assert len(calls) == len(result.blocks) * len(GS2.sigma)


def test_markovized_measure_unshown_symbol_has_mass_zero():
    zero_one = BernoulliMeasure(GS2, (0, 1), (F(1), F(0)))
    pulled = MarkovizedMeasure(markovize(zero_one, 1))
    assert pulled.eval(Pattern.of({EPSILON: 0, w("a1"): 0})) == 1
    assert pulled.eval(Pattern.of({EPSILON: 1})) == 0
    assert pulled.eval(Pattern.of({EPSILON: 0, w("a2"): 1})) == 0


def test_block_alphabet_refuses_repeated_block():
    blocks = support_alphabet(fair_bernoulli(), 0)
    with pytest.raises(ValidationError, match="blocks must be nonempty without repeats"):
        BlockAlphabet(0, blocks.sites, blocks.blocks * 2, blocks.masses * 2)


def test_consistency_evaluates_the_pattern_once_per_side(monkeypatch, tmp_path):
    pattern = Pattern.of({EPSILON: 0, w("a1"): 1})
    source, pat = tmp_path / "chain.json", tmp_path / "pattern.json"
    write_json(source, measure_out(worked_chain(1)))
    write_json(pat, pattern_out(pattern, 1))
    calls = []
    for cls in (MarkovTreeChain, MarkovizedMeasure):

        def counting(self, p, original=cls.eval, name=cls.__name__):
            if p == pattern:
                calls.append(name)
            return original(self, p)

        monkeypatch.setattr(cls, "eval", counting)
    code, text = execute(
        ["consistency", "--measure", str(source), "--order", "1", "--pattern", str(pat)]
    )
    assert (code, text) == (0, "order: 1\noracle_mass: 1/6\nchain_mass: 1/6\nconsistent: true")
    assert sorted(calls) == ["MarkovTreeChain", "MarkovizedMeasure"]


def test_consistency_checks_sites_before_building_blocks(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("markovize ran before the site check")

    for module in ("semishift.markovize", "semishift.cli"):
        monkeypatch.setattr(importlib.import_module(module), "markovize", refuse)
    outside = Pattern.of({w("a1a1"): 0})
    with pytest.raises(MembershipError, match="outside the order-1 ball"):
        consistency_masses(fair_bernoulli(), 1, outside)
    source, pat = tmp_path / "bern.json", tmp_path / "pattern.json"
    write_json(source, measure_out(fair_bernoulli()))
    write_json(pat, pattern_out(outside, 2))
    code, text = execute(
        ["consistency", "--measure", str(source), "--order", "1", "--pattern", str(pat)]
    )
    assert code == 2
    assert text.startswith("error: MembershipError: site a1a1 is outside the order-1 ball")


def test_markovized_measure_builds_its_block_map_once(monkeypatch):
    pulled = MarkovizedMeasure(markovize(worked_chain(2), 1))
    lookups = []
    original = Pattern.__getitem__

    def counting(self, site):
        lookups.append(site)
        return original(self, site)

    monkeypatch.setattr(Pattern, "__getitem__", counting)
    masses = [pulled.eval(Pattern.of({EPSILON: c})) for c in (0, 1, 0)]
    assert masses == [F(1, 3), F(2, 3), F(1, 3)]
    assert len(lookups) == len(pulled.result.blocks)
