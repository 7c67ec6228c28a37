import itertools
import random
import re
from fractions import Fraction

import pytest

from helpers import lattice_interval_eval
from semishift import reversible
from semishift import (
    LatticeBernoulli,
    LatticeMarkov,
    LatticePattern,
    LatticeTable,
    MembershipError,
    ValidationError,
    lower_bound,
    window_consistency,
    window_measure,
    window_translation_invariance,
)

F = Fraction

Q = (F(1, 3), F(2, 3))
P_ROWS = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))


def bern():
    return LatticeBernoulli(1, (0, 1), Q)


def chain():
    return LatticeMarkov((0, 1), Q, P_ROWS)


def lp(assignment):
    return LatticePattern.of(assignment)


def test_lower_bound_examples():
    assert lower_bound([(-1,), (1,)]) == (-1,)
    assert lower_bound([(0, 3), (2, -1)]) == (0, -1)
    assert lower_bound([(0,)]) == (0,)
    with pytest.raises(ValidationError):
        lower_bound([])


def test_window_measure_bernoulli():
    pattern = lp({(-1,): 0, (1,): 1})
    assert window_measure(bern(), pattern) == Q[0] * Q[1]
    assert window_measure(bern(), lp({(0,): 1})) == Q[1]
    assert window_measure(bern(), LatticePattern(())) == 1


def test_window_measure_markov():
    pattern = lp({(-1,): 0, (0,): 1})
    assert window_measure(chain(), pattern) == Q[0] * P_ROWS[0][1]
    # a gap of two steps uses the two-step transition mass
    gap = lp({(-2,): 1, (0,): 0})
    two_step = sum(P_ROWS[1][k] * P_ROWS[k][0] for k in range(2))
    assert window_measure(chain(), gap) == Q[1] * two_step


def test_markov_window_forms_one_power_per_distinct_gap(monkeypatch):
    import semishift.reversible as reversible

    gaps = []
    power = reversible._matrix_power
    monkeypatch.setattr(
        reversible, "_matrix_power", lambda rows, n: gaps.append(n) or power(rows, n)
    )
    sites = [(0, 0), (3000, 1), (6000, 1), (7000, 0), (10000, 1)]
    mass = window_measure(chain(), lp({(t,): c for t, c in sites}))
    assert sorted(gaps) == [1000, 3000]
    # P has eigenvalues 1 and 1/4, so P^n[k][l] = q[l] + 4^-n ([k == l] - q[l]).
    expected = Q[0]
    for (s, k), (t, l) in zip(sites, sites[1:]):
        expected *= Q[l] + F(1, 4 ** (t - s)) * ((k == l) - Q[l])
    assert mass == expected


def test_window_measure_matches_interval_oracle():
    rng = random.Random(90)
    for _ in range(60):
        sites = rng.sample(range(-5, 6), rng.randrange(1, 4))
        pattern = lp({(t,): rng.randrange(2) for t in sites})
        base = min(sites)
        shifted = {(t - base,): c for (t,), c in pattern.items()}
        assert window_measure(chain(), pattern) == lattice_interval_eval(
            Q, P_ROWS, shifted
        )
        expected = F(1)
        for _, c in pattern.items():
            expected *= Q[c]
        assert window_measure(bern(), pattern) == expected


def test_window_restriction_equals_oracle():
    # windows already inside the orthant evaluate with no translation
    pattern = lp({(0,): 0, (2,): 1})
    assert window_measure(chain(), pattern) == chain().eval(pattern)
    assert window_measure(bern(), pattern) == bern().eval(pattern)


def test_orthant_membership_enforced_directly():
    with pytest.raises(MembershipError):
        chain().eval(lp({(-1,): 0}))


def test_window_additivity():
    for measure in (bern(), chain()):
        for sites in itertools.combinations(range(-2, 3), 2):
            for extra in range(-2, 3):
                if extra in sites:
                    continue
                for combo in itertools.product((0, 1), repeat=2):
                    pattern = lp(dict(zip([(t,) for t in sites], combo)))
                    total = sum(
                        window_measure(
                            measure,
                            LatticePattern(pattern.items() + (((extra,), c),)),
                        )
                        for c in (0, 1)
                    )
                    assert total == window_measure(measure, pattern)


def test_lower_bound_choice_immaterial():
    # sliding further into the orthant must not change invariant masses
    for measure in (bern(), chain()):
        pattern = lp({(-1,): 0, (1,): 1, (2,): 1})
        reference = window_measure(measure, pattern)
        for e in (1, 2, 5):
            deeper = lp({(t + e,): c for (t,), c in pattern.items()})
            assert measure.eval(deeper) == reference


def test_window_consistency_examples():
    assert window_consistency(bern(), [(0,)], [(-1,), (0,)]).ok
    assert window_consistency(chain(), [(-2,), (0,)], [(-2,), (-1,), (0,)]).ok


def test_window_consistency_exhaustive_small():
    for measure in (bern(), chain()):
        windows = [[(0,)], [(-1,), (1,)], [(-2,), (0,), (1,)]]
        for window in windows:
            cover = sorted(set(window) | {(3,)})
            assert window_consistency(measure, window, cover).ok


def test_window_consistency_requires_containment():
    with pytest.raises(ValidationError):
        window_consistency(bern(), [(0,)], [(1,)])


def test_window_consistency_refuses_a_cover_past_the_pattern_budget():
    # 2^23 window patterns and completions on 23 sites: past MAX_PATTERNS = 2^22.
    window = [(t,) for t in range(22)]
    with pytest.raises(ValidationError, match=re.escape(
        "a consistency check on 23 sites is refused: they give 2^23 full patterns, more than 4194304"
    )):
        window_consistency(bern(), window, window + [(22,)])
    assert window_consistency(bern(), window[:3], window[:3] + [(3,)]).ok


def test_a_small_window_in_a_large_cover_is_refused_before_any_evaluation(monkeypatch):
    # One window site has 2 patterns, but each has 2^30 completions on the cover.
    calls = []
    monkeypatch.setattr(reversible, "window_measure", lambda *args: calls.append(args))
    with pytest.raises(ValidationError, match=re.escape("on 31 sites is refused: they give 2^31")):
        window_consistency(bern(), [(0,)], [(t,) for t in range(31)])
    assert calls == []


def test_translation_invariance_examples():
    pattern = lp({(-1,): 0, (1,): 1})
    assert window_translation_invariance(bern(), pattern, (5,)).ok
    assert window_translation_invariance(chain(), pattern, (-3,)).ok


def test_translation_invariance_exhaustive_small():
    for measure in (bern(), chain()):
        for sites in itertools.combinations(range(-2, 3), 2):
            for combo in itertools.product((0, 1), repeat=2):
                pattern = lp(dict(zip([(t,) for t in sites], combo)))
                for g in (-2, -1, 1, 4):
                    assert window_translation_invariance(
                        measure, pattern, (g,)
                    ).ok


def corrupted_table():
    # full patterns on the box {0,1} weighted by a site-dependent rule,
    # chosen so single-site marginals differ between the two positions
    masses = {
        ((0,), (1,)): F(1, 2),
        ((1,), (0,)): F(1, 4),
        ((0,), (0,)): F(1, 4),
        ((1,), (1,)): F(0),
    }
    table = tuple(
        (lp({(0,): pair[0][0], (1,): pair[1][0]}), mass)
        for pair, mass in masses.items()
    )
    return LatticeTable(1, (0, 1), (2,), table)


def test_corrupted_oracle_fails_checks():
    oracle = corrupted_table()
    # marginal at 0 is 3/4 on symbol 0, at 1 it is 1/2: not invariant
    result = window_translation_invariance(oracle, lp({(0,): 0}), (1,))
    assert not result.ok
    assert result.witness

    # completing below the window shifts it to the other box position,
    # so the two site marginals are compared against each other
    inconsistent = window_consistency(oracle, [(0,)], [(-1,), (0,)])
    assert not inconsistent.ok
    assert inconsistent.witness


def test_lattice_table_eval():
    oracle = corrupted_table()
    assert oracle.eval(lp({(0,): 0})) == F(3, 4)
    assert oracle.eval(lp({(0,): 0, (1,): 1})) == F(1, 2)
    with pytest.raises(ValidationError):
        oracle.eval(lp({(2,): 0}))


def test_lattice_bernoulli_two_dimensional():
    measure = LatticeBernoulli(2, (0, 1), (F(1, 4), F(3, 4)))
    pattern = lp({(-1, 2): 1, (0, 0): 0, (1, -1): 1})
    assert window_measure(measure, pattern) == F(3, 4) * F(1, 4) * F(3, 4)
    for g in ((1, 0), (0, -6), (2, 3)):
        assert window_translation_invariance(measure, pattern, g).ok


def test_lattice_validation_errors():
    with pytest.raises(ValidationError):
        LatticeBernoulli(1, (0, 1), (F(1, 2), F(1, 3)))
    with pytest.raises(ValidationError):
        LatticeMarkov((0, 1), (F(1, 2), F(1, 2)), ((F(1), F(0)), (F(1), F(0))))
    with pytest.raises(ValidationError):
        LatticeTable(1, (0, 1), (0,), ())


def test_lattice_markov_is_one_dimensional():
    assert chain().d == LatticeMarkov.d == 1
    with pytest.raises(TypeError):
        LatticeMarkov((0, 1), Q, P_ROWS, d=2)


def test_lattice_table_refuses_a_huge_box_before_enumerating_it():
    pattern = lp({(0,): 0})
    for box in ((10**12,), (10**6, 10**6)):
        with pytest.raises(ValidationError, match="must fill the box"):
            LatticeTable(len(box), (0,), box, ((pattern, F(1)),))


def test_integer_entries_still_give_fraction_masses():
    pattern = lp({(0,): 0})
    for measure in (
        LatticeBernoulli(1, (0,), (1,)),
        LatticeMarkov((0,), (1,), ((1,),)),
        LatticeTable(1, (0,), (1,), ((pattern, 1),)),
    ):
        mass = measure.eval(pattern)
        assert mass == 1 and type(mass) is F
