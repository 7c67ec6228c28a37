"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each test also fails if its wall-clock budget is exceeded.  All
comparisons are exact rational equality, never approximate.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from helpers import (
    eval_cylinder_bruteforce,
    lattice_interval_eval,
    oracle_eval,
    positive_distribution,
    random_automaton,
    random_balance_violation,
    random_eigenvector_violation,
    random_invariant_chain,
    random_stochastic,
    swap_orbit,
    two_point_orbit,
    worked_chain,
)
from semishift import (
    EPSILON,
    BernoulliMeasure,
    GeneratorSet,
    LatticeBernoulli,
    LatticeMarkov,
    LatticePattern,
    MarkovTreeChain,
    Pattern,
    PeriodicMeasure,
    Symbol,
    Word,
    ball,
    counterexample_analyze,
    counterexample_chain,
    eval_cylinder,
    extend_chain,
    find_separating_morphism,
    is_invariant_chain,
    is_periodic,
    is_transitive,
    lift_to_group,
    markovization_consistency,
    markovize,
    orbit_size,
    parse_word,
    pushforward_check,
    readout,
    shift_invariance_check,
    sorted_words,
    theorem_a_point,
    transformation_monoid,
    window_consistency,
    window_measure,
    window_translation_invariance,
    word_mul,
)
from semishift.cli import execute
from semishift.serialize import automaton_out

F = Fraction
GS2 = GeneratorSet.from_signed((1, 2))


@contextmanager
def criterion(number, name, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:2d} FAIL {name} ({elapsed:.2f}s / {budget}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"criterion {number:2d} {verdict} {name} ({elapsed:.2f}s / {budget}s)")
    assert elapsed < budget, f"{name}: {elapsed:.2f}s over the {budget}s budget"


def subset_patterns(sites, alphabet):
    """Every pattern whose keys form a subset of the given sites."""
    ordered = sorted_words(sites)
    for k in range(len(ordered) + 1):
        for subset in itertools.combinations(ordered, k):
            for combo in itertools.product(tuple(alphabet), repeat=k):
                yield Pattern(tuple(zip(subset, combo)))


def test_criterion_01_evaluation_oracle_equivalence():
    with criterion(1, "cylinder evaluation matches brute force", 10):
        rng = random.Random(101)
        sigmas = ((1, 2), (1, -1, 2), (1, -1, 2, -2))
        for case in range(200):
            gs = GeneratorSet.from_signed(sigmas[case % 3])
            n = 2 + case % 2
            alphabet = tuple(range(n))
            chain = MarkovTreeChain.make(
                gs,
                alphabet,
                positive_distribution(rng, n),
                {s: random_stochastic(rng, n) for s in gs.symbols()},
            )
            letters = tuple(gs.symbols())
            sites = {}
            for _ in range(rng.randint(1, 3)):
                w = EPSILON
                for _ in range(rng.randint(0, 3)):
                    w = word_mul(w, Word((rng.choice(letters),)))
                sites[w] = rng.randrange(n)
            pattern = Pattern(tuple(sites.items()))
            fast = eval_cylinder(chain, pattern)
            assert fast == eval_cylinder_bruteforce(chain, pattern)
            assert fast == oracle_eval(chain, pattern)


def test_criterion_02_invariance_certificate():
    with criterion(2, "invariance certificate at radius 2", 30):
        rng = random.Random(202)
        sigmas = ((1, 2), (1, -1))
        for i in range(100):
            chain = random_invariant_chain(rng, signed=sigmas[i % 2], n=2)
            for a in chain.gs.symbols():
                assert shift_invariance_check(chain, a, 2).ok

        def witness_radius(chain):
            for r in range(3):
                for a in chain.gs.symbols():
                    if not shift_invariance_check(chain, a, r).ok:
                        return r
            return None

        for _ in range(50):
            bad = random_eigenvector_violation(rng, signed=(1, 2), n=2)
            assert witness_radius(bad) is not None
        for _ in range(50):
            bad = random_balance_violation(rng, n=2)
            assert witness_radius(bad) is not None


def test_criterion_03_signed_extension():
    with criterion(3, "signed extension preserves the measure", 30):
        rng = random.Random(303)
        for _ in range(100):
            chain = random_invariant_chain(rng, signed=(1, 2), n=2)
            extended = extend_chain(chain)
            assert is_invariant_chain(extended).ok
            assert pushforward_check(extended, chain, 2).ok
        ext = extend_chain(worked_chain(1))
        assert ext.matrix[Symbol(1, -1)] == (
            (F(1, 2), F(1, 2)),
            (F(1, 4), F(3, 4)),
        )


def test_criterion_04_markovization_consistency():
    with criterion(4, "block recoding reproduces ball marginals", 60):
        fair = BernoulliMeasure(GS2, (0, 1), (F(1, 2), F(1, 2)))
        oracles = (
            ("bernoulli", fair),
            ("chain", worked_chain(2)),
            ("swap", PeriodicMeasure((swap_orbit(),), (F(1),))),
        )
        for name, measure in oracles:
            for m in (0, 1):
                result = markovize(measure, m)
                assert result.diagnostics.ok
                assert result.invariance.ok
                sites = ball(measure.gs, m)
                for pattern in subset_patterns(sites, measure.alphabet):
                    assert markovization_consistency(measure, m, pattern, result)
                if name == "bernoulli" and m == 1:
                    blocks = result.blocks.blocks
                    for sym in GS2.symbols():
                        rows = result.chain.matrix[sym]
                        site = Word((sym,))
                        for i, alpha in enumerate(blocks):
                            for j, beta in enumerate(blocks):
                                expected = (
                                    F(1, 4)
                                    if beta[EPSILON] == alpha[site]
                                    else F(0)
                                )
                                assert rows[i][j] == expected


def test_criterion_05_periodic_point_through_any_ball_pattern():
    with criterion(5, "periodic point through every 1-ball pattern", 30):
        sites = sorted_words(ball(GS2, 1))
        assert len(sites) == 3
        for combo in itertools.product((0, 1), repeat=3):
            pattern = Pattern(tuple(zip(sites, combo)))
            theta = find_separating_morphism(GS2, 1, 4, seed=9)
            automaton = theorem_a_point(pattern, theta, GS2, (0, 1))
            assert is_periodic(automaton)
            for w, c in pattern.items():
                assert readout(automaton, w) == c


def test_criterion_06_orbit_structure_reports(tmp_path):
    with criterion(6, "orbit structure reports", 1):
        two = two_point_orbit()
        assert orbit_size(two) == 2
        assert is_periodic(two) is False
        assert is_transitive(two) is True
        assert transformation_monoid(two) == (3, False)
        path = tmp_path / "two_point.json"
        path.write_text(json.dumps(automaton_out(two)))
        code, text = execute(["orbit-analyze", "--automaton", str(path)])
        assert code == 0
        assert "pre_periodic: true" in text
        assert "periodic: false" in text
        assert "transitive: true" in text
        assert "orbit_size: 2" in text
        assert "monoid_size: 3" in text
        assert "monoid_is_group: false" in text
        swap = swap_orbit()
        assert is_periodic(swap) is True
        assert transformation_monoid(swap) == (2, True)


def test_criterion_07_group_lift_restriction():
    with criterion(7, "group lift restricts to the original orbit", 5):
        swap = swap_orbit()
        lifted = lift_to_group(swap)
        assert is_periodic(lifted)
        for w in ball(swap.gs, 3):
            assert readout(lifted, w) == readout(swap, w)
        original = PeriodicMeasure((swap,), (F(1),))
        pushed = PeriodicMeasure((lifted,), (F(1),))
        for pattern in subset_patterns(ball(swap.gs, 2), (0, 1)):
            assert pushed.eval(pattern) == original.eval(pattern)


def test_criterion_08_commutator_obstruction():
    with criterion(8, "commutator obstruction and its chain", 5):
        a = ((1, 2), (0, 1))
        b = ((1, 0), (2, 1))
        report = counterexample_analyze((a, b), parse_word("a1a2A1A2"), 5)
        assert report.matrix_mod_p == ((1, 2), (3, 2))
        assert report.witness == (1, 0)
        assert report.witness_image == (1, 3)
        assert report.cycle_length == 4
        assert report.threshold == F(1, 15625)
        chain = counterexample_chain((a, b), 5, F(1, 100))
        assert len(chain.alphabet) == 25
        assert is_invariant_chain(chain).ok


def test_criterion_09_orthant_window_calculus():
    with criterion(9, "orthant window calculus on the line", 10):
        q = (F(1, 3), F(2, 3))
        rows = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
        bern = LatticeBernoulli(1, (0, 1), q)
        chain = LatticeMarkov((0, 1), q, rows)
        rng = random.Random(909)
        for _ in range(100):
            cells = rng.sample(range(-5, 6), rng.randint(1, 4))
            assignment = tuple(((t,), rng.randrange(2)) for t in sorted(cells))
            pattern = LatticePattern(assignment)
            product = F(1)
            for _, c in assignment:
                product *= q[c]
            assert window_measure(bern, pattern) == product
            assert window_measure(chain, pattern) == lattice_interval_eval(
                q, rows, pattern
            )
        cells = range(-2, 3)
        extra = (3,)
        for measure in (bern, chain):
            for size in (1, 2, 3):
                for chosen in itertools.combinations(cells, size):
                    window = tuple((t,) for t in chosen)
                    cover = window + (extra,)
                    assert window_consistency(measure, window, cover).ok
                    for combo in itertools.product((0, 1), repeat=size):
                        pattern = LatticePattern(tuple(zip(window, combo)))
                        total = sum(
                            window_measure(
                                measure,
                                LatticePattern(
                                    pattern.items() + ((extra, c),)
                                ),
                            )
                            for c in (0, 1)
                        )
                        assert window_measure(measure, pattern) == total
                        for g in ((-2,), (1,), (4,)):
                            assert window_translation_invariance(
                                measure, pattern, g
                            ).ok


def test_criterion_10_periodicity_meta_check():
    with criterion(10, "periodicity against monoid structure", 10):
        rng = random.Random(1010)
        for i in range(500):
            if i % 2:
                automaton = random_automaton(rng, rng.randint(1, 6), True)
            else:
                automaton = random_automaton(rng, rng.randint(1, 5), False)
            periodic = is_periodic(automaton)
            _, group = transformation_monoid(automaton)
            if periodic:
                assert is_transitive(automaton)
            assert periodic == group
