import math
import random
from fractions import Fraction

import pytest

from helpers import (
    balance_transform,
    eval_cylinder_bruteforce,
    oracle_eval,
    oracle_hull,
    random_balance_violation,
    random_eigenvector_violation,
    random_invariant_chain,
    rerooted_eval,
    swap_orbit,
    traced_peak,
    trial_division_is_prime,
    worked_chain,
)
from semishift import (
    BernoulliMeasure,
    DeltaOutOfRange,
    EPSILON,
    EmptyWord,
    GeneratorSet,
    LatticeBernoulli,
    LatticeMarkov,
    LatticePattern,
    LatticeTable,
    MarkovTreeChain,
    MarkovizedMeasure,
    MembershipError,
    MixtureMeasure,
    NonInvertibleModP,
    NotInvariant,
    NoWitness,
    OrbitAutomaton,
    Pattern,
    PeriodicMeasure,
    SigmaIncomplete,
    Symbol,
    ValidationError,
    Word,
    all_patterns,
    ball,
    counterexample_analyze,
    counterexample_chain,
    eval_cylinder,
    extend_chain,
    is_invariant_chain,
    markovize,
    parse_word,
    pushforward_check,
    shift_invariance_check,
    theorem_a_point,
    validate_chain,
    weak_star_distance,
)
from semishift.counterexample import _is_prime

F = Fraction
GS2 = GeneratorSet.from_signed((1, 2))


def w(text):
    return parse_word(text)


def pat(assignment):
    return Pattern.of({w(k): v for k, v in assignment.items()})


def bernoulli(*weights):
    return BernoulliMeasure(GS2, tuple(range(len(weights))), tuple(weights))


def test_validate_chain_examples():
    assert validate_chain(worked_chain(2)).ok

    bad_p = MarkovTreeChain.make(
        GS2, (0, 1), (1, 0),
        {s: ((F(1, 2), F(1, 2)),) * 2 for s in GS2.symbols()},
    )
    diag = validate_chain(bad_p)
    assert not diag.ok
    assert any("p[1]" in problem for problem in diag.problems)

    bad_row = MarkovTreeChain.make(
        GS2, (0, 1), (F(1, 2), F(1, 2)),
        {s: ((F(1, 2), F(1, 3)), (F(1, 2), F(1, 2))) for s in GS2.symbols()},
    )
    diag = validate_chain(bad_row)
    assert not diag.ok
    assert any("5/6" in problem for problem in diag.problems)


def test_is_invariant_chain_examples():
    assert is_invariant_chain(worked_chain(2)).ok

    drift = MarkovTreeChain.make(
        GS2, (0, 1), (F(1, 2), F(1, 2)),
        {s: ((F(1), F(0)), (F(1), F(0))) for s in GS2.symbols()},
    )
    result = is_invariant_chain(drift)
    assert not result.ok
    assert result.witness

    gs = GeneratorSet.from_signed((1, -1))
    flip = ((F(0), F(1)), (F(1), F(0)))
    symmetric = MarkovTreeChain.make(
        gs, (0, 1), (F(1, 2), F(1, 2)),
        {Symbol(1, 1): flip, Symbol(1, -1): flip},
    )
    assert is_invariant_chain(symmetric).ok


def test_is_invariant_rejects_invalid():
    from semishift import InvalidChain
    broken = MarkovTreeChain.make(
        GS2, (0, 1), (F(1), F(1)),
        {s: ((F(1, 2), F(1, 2)),) * 2 for s in GS2.symbols()},
    )
    with pytest.raises(InvalidChain):
        is_invariant_chain(broken)


def test_eval_cylinder_examples():
    uniform = MarkovTreeChain.make(
        GS2, (0, 1), (F(1, 2), F(1, 2)),
        {s: ((F(1, 2), F(1, 2)),) * 2 for s in GS2.symbols()},
    )
    assert eval_cylinder(uniform, pat({"": 0, "a1": 0, "a2": 0})) == F(1, 8)

    chain = worked_chain(2)
    # hull of a1a2 walks a2 first: p_0 * P[a2]_{0,1} * P[a1]_{1,1}
    assert eval_cylinder(chain, pat({"": 0, "a2": 1, "a1a2": 1})) == F(1, 8)
    # hull has the free site a2 when only a1 and a1a2 carry symbols
    assert eval_cylinder(chain, pat({"": 0, "a1": 1, "a1a2": 1})) == F(5, 48)
    # two-step marginal is stationary
    assert eval_cylinder(chain, pat({"a1a2": 0})) == F(1, 3)
    assert eval_cylinder(chain, Pattern.of({})) == 1


def test_eval_cylinder_membership_error():
    with pytest.raises(MembershipError):
        eval_cylinder(worked_chain(2), pat({"A1": 0}))


# The hull of a1^5000 has 5001 vertices; keeping every suffix as a tuple
# of letters would hold about 12.5 million references.
LONG_SITE = Word((Symbol(1, 1),) * 5000)


def test_cylinder_on_a_long_site_costs_memory_linear_in_its_letters():
    chain = worked_chain(1)
    value, peak = traced_peak(lambda: eval_cylinder(chain, Pattern.of({LONG_SITE: 0})))
    assert value == F(1, 3) and peak < 48 * 2**20


def test_masses_on_a_long_site_cost_memory_linear_in_its_letters():
    chain = worked_chain(1)
    (numerators, denominator), peak = traced_peak(lambda: chain.masses([LONG_SITE]))
    assert denominator == 12**5001
    assert [F(x, denominator) for x in numerators] == [F(1, 3), F(2, 3)]
    assert peak < 64 * 2**20


def test_eval_matches_bruteforce_and_oracle():
    rng = random.Random(2024)
    words = sorted(ball(GS2, 3), key=lambda v: v.key())
    for _ in range(60):
        n = rng.choice((2, 3))
        chain = random_invariant_chain(rng, (1, 2), n)
        sites = rng.sample(words, rng.randrange(1, 4))
        pattern = Pattern.of({s: rng.randrange(n) for s in sites})
        value = eval_cylinder(chain, pattern)
        assert value == eval_cylinder_bruteforce(chain, pattern)
        assert value == oracle_eval(chain, pattern)


def test_eval_single_site_additivity():
    rng = random.Random(31)
    chain = worked_chain(2)
    words = sorted(ball(GS2, 2), key=lambda v: v.key())
    for _ in range(40):
        sites = rng.sample(words, rng.randrange(0, 3))
        pattern = Pattern.of({s: rng.randrange(2) for s in sites})
        extra = rng.choice([v for v in words if v not in sites])
        total = sum(
            eval_cylinder(chain, Pattern(pattern.entries + ((extra, c),))) for c in (0, 1)
        )
        assert total == eval_cylinder(chain, pattern)


def test_eval_orientation_independent_for_invariant():
    # re-rooting the hull only preserves mass under detailed balance
    rng = random.Random(77)
    gs = GeneratorSet.from_signed((1, -1, 2, -2))
    for _ in range(10):
        chain = random_invariant_chain(rng, (1, -1, 2, -2), 2)
        sites = rng.sample(sorted(ball(gs, 2), key=lambda v: v.key()), 2)
        pattern = Pattern.of({s: rng.randrange(2) for s in sites})
        reference = eval_cylinder(chain, pattern)
        for root in oracle_hull(sites):
            assert rerooted_eval(chain, pattern, root) == reference


def test_shift_invariance_check_examples():
    chain = worked_chain(2)
    for sym in GS2.symbols():
        assert shift_invariance_check(chain, sym, 1).ok

    flat = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    skew = MarkovTreeChain.make(
        GS2, (0, 1), (F(1, 4), F(3, 4)), {s: flat for s in GS2.symbols()}
    )
    result = shift_invariance_check(skew, Symbol(1, 1), 1)
    assert not result.ok
    assert result.witness

    fair = bernoulli(F(1, 2), F(1, 2))
    assert shift_invariance_check(fair, Symbol(2, 1), 2).ok


def test_invariant_chain_passes_shift_checks():
    rng = random.Random(8)
    for _ in range(15):
        chain = random_invariant_chain(rng, (1, 2), 2)
        assert is_invariant_chain(chain).ok
        for sym in chain.gs.symbols():
            assert shift_invariance_check(chain, sym, 2).ok


def test_extend_chain_examples():
    chain = worked_chain(1)
    extended = extend_chain(chain)
    inverse = extended.matrix[Symbol(1, -1)]
    assert inverse == ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
    assert is_invariant_chain(extended).ok

    sym_chain = MarkovTreeChain.make(
        GeneratorSet.from_signed((1,)), (0, 1), (F(1, 2), F(1, 2)),
        {Symbol(1, 1): ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)))},
    )
    ext = extend_chain(sym_chain)
    assert ext.matrix[Symbol(1, -1)] == sym_chain.matrix[Symbol(1, 1)]

    cycle = ((F(0), F(1), F(0)), (F(0), F(0), F(1)), (F(1), F(0), F(0)))
    cyclic = MarkovTreeChain.make(
        GeneratorSet.from_signed((1,)), (0, 1, 2),
        (F(1, 3), F(1, 3), F(1, 3)), {Symbol(1, 1): cycle},
    )
    back = extend_chain(cyclic).matrix[Symbol(1, -1)]
    assert back == tuple(zip(*cycle))


def test_extend_chain_errors():
    skew = MarkovTreeChain.make(
        GS2, (0, 1), (F(1, 4), F(3, 4)),
        {s: ((F(1, 2), F(1, 2)),) * 2 for s in GS2.symbols()},
    )
    with pytest.raises(NotInvariant):
        extend_chain(skew)

    partial = MarkovTreeChain.make(
        GeneratorSet(2, frozenset({Symbol(1, 1)})), (0, 1),
        (F(1, 2), F(1, 2)), {Symbol(1, 1): ((F(1, 2), F(1, 2)),) * 2},
    )
    with pytest.raises(SigmaIncomplete, match="lacks positive generators: a2$"):
        extend_chain(partial)


def test_extend_chain_caps_the_missing_generator_list():
    ten = "a2, a3, a4, a5, a6, a7, a8, a9, a10, a11"
    for d, tail in ((11, ""), (12, ", ... (11 in all)"), (10**12, ", ... (999999999999 in all)")):
        chain = MarkovTreeChain.make(
            GeneratorSet(d, frozenset({Symbol(1, 1)})), (0, 1), HALF, {1: FLAT}
        )
        with pytest.raises(SigmaIncomplete) as exc:
            extend_chain(chain)
        assert str(exc.value) == f"Sigma lacks positive generators: {ten}{tail}"


def test_extend_chain_random_invariant_and_pushforward():
    rng = random.Random(19)
    for _ in range(15):
        chain = random_invariant_chain(rng, (1, 2), 2)
        extended = extend_chain(chain)
        assert set(extended.gs.sigma) == {
            Symbol(1, 1), Symbol(1, -1), Symbol(2, 1), Symbol(2, -1)
        }
        assert is_invariant_chain(extended).ok
        assert pushforward_check(extended, chain, 2).ok


def test_pushforward_check_perturbations():
    chain = worked_chain(2)
    extended = extend_chain(chain)

    # swapping entries inside a row of an inverse matrix keeps it stochastic
    # but S-patterns never cross inverse edges, so agreement survives
    matrices = dict(extended.matrix)
    rows = matrices[Symbol(1, -1)]
    matrices[Symbol(1, -1)] = (rows[0], (rows[1][1], rows[1][0]))
    tweaked_inverse = MarkovTreeChain.make(
        extended.gs, extended.alphabet, extended.p, matrices
    )
    assert pushforward_check(tweaked_inverse, chain, 2).ok

    matrices = dict(extended.matrix)
    rows = matrices[Symbol(1, 1)]
    matrices[Symbol(1, 1)] = (rows[0], (rows[1][1], rows[1][0]))
    tweaked_forward = MarkovTreeChain.make(
        extended.gs, extended.alphabet, extended.p, matrices
    )
    result = pushforward_check(tweaked_forward, chain, 2)
    assert not result.ok
    assert result.witness

    assert pushforward_check(chain, chain, 0).ok


def test_weak_star_distance_examples():
    fair = bernoulli(F(1, 2), F(1, 2))
    assert weak_star_distance(fair, fair, 2) == 0

    skew = bernoulli(F(1, 4), F(3, 4))
    assert weak_star_distance(fair, skew, 0) == F(1, 2)

    swap_measure = PeriodicMeasure((swap_orbit(),), (F(1),))
    assert weak_star_distance(fair, swap_measure, 1) == F(3, 2)


def test_weak_star_metric_axioms():
    rng = random.Random(60)
    measures = [
        bernoulli(F(1, 2), F(1, 2)),
        bernoulli(F(1, 4), F(3, 4)),
        worked_chain(2),
        PeriodicMeasure((swap_orbit(),), (F(1),)),
    ]
    for _ in range(20):
        x, y, z = (rng.choice(measures) for _ in range(3))
        for m in (0, 1):
            dxy = weak_star_distance(x, y, m)
            assert dxy == weak_star_distance(y, x, m)
            assert dxy >= 0
            assert dxy <= weak_star_distance(x, z, m) + weak_star_distance(z, y, m)
    assert weak_star_distance(measures[0], measures[0], 1) == 0


def test_mixture_measure():
    fair = bernoulli(F(1, 2), F(1, 2))
    skew = bernoulli(F(1, 4), F(3, 4))
    mix = MixtureMeasure((fair, skew), (F(1, 2), F(1, 2)))
    example = pat({"": 0})
    assert mix.eval(example) == F(1, 2) * F(1, 2) + F(1, 2) * F(1, 4)
    assert mix.eval(Pattern.of({})) == 1


HALF = (F(1, 2), F(1, 2))
FLAT = (HALF, HALF)

# each measure kind built over a given two-symbol alphabet
KIND_MAKERS = {
    "chain": lambda a: MarkovTreeChain.make(GS2, a, HALF, {s: FLAT for s in GS2.symbols()}),
    "bernoulli": lambda a: BernoulliMeasure(GS2, a, HALF),
    "periodic": lambda a: PeriodicMeasure(
        (OrbitAutomaton(gs=GS2, alphabet=a, labels=a[:1], delta={s: (0,) for s in GS2.sigma}),),
        (F(1),),
    ),
    "lattice-bernoulli": lambda a: LatticeBernoulli(1, a, HALF),
    "lattice-markov": lambda a: LatticeMarkov(a, HALF, FLAT),
    "lattice-table": lambda a: LatticeTable(
        1, a, (1,), tuple((LatticePattern.of({(0,): c}), q) for c, q in zip(a, HALF))
    ),
}


@pytest.mark.parametrize("kind", KIND_MAKERS)
def test_measure_kinds_refuse_repeated_or_unhashable_symbols(kind):
    make = KIND_MAKERS[kind]
    assert make((0, 1)).alphabet == (0, 1)
    with pytest.raises(ValidationError, match="alphabet must be nonempty without repeats"):
        make((0, 0))
    with pytest.raises(ValidationError, match="alphabet symbols must be hashable"):
        make(([0], 1))


# every kind again, with a mixture and a markovized measure
SYMBOL_KINDS = {
    **KIND_MAKERS,
    "mixture": lambda a: MixtureMeasure((KIND_MAKERS["bernoulli"](a),), (F(1),)),
    "markovized": lambda a: MarkovizedMeasure(markovize(KIND_MAKERS["bernoulli"](a), 0)),
    "orbit": lambda a: KIND_MAKERS["periodic"](a).orbits[0],
}


@pytest.mark.parametrize("kind", SYMBOL_KINDS)
def test_measure_kinds_refuse_an_unknown_symbol(kind):
    measure = SYMBOL_KINDS[kind]((0, 1))
    if kind.startswith("lattice"):
        make, site, outside = LatticePattern.of, (0,), (-1,)
    else:
        make, site, outside = Pattern.of, EPSILON, w("A1")
    assert measure.eval(make({site: 1})) in (0, F(1, 2))
    with pytest.raises(ValidationError, match="symbol 9 is not in the"):
        measure.eval(make({site: 9}))
    # sites are checked before symbols, whatever the pattern's order
    for pattern in (make({outside: 9}), make({site: 9, outside: 0}), make({site: 0, outside: 9})):
        with pytest.raises(MembershipError):
            measure.eval(pattern)


def bad_symbol_refusals():
    """(id, call, exception type, message) for every refusal of a bad symbol.  The
    kinds that read a pattern symbol's position straight from the symbol table
    (chain, Bernoulli, a mixture of Bernoulli components, lattice Bernoulli)
    raise TypeError for an unhashable one; the others refuse it as a symbol
    outside the alphabet."""
    hashed = {"chain", "bernoulli", "mixture", "lattice-bernoulli"}
    for kind in ("chain", "bernoulli", "mixture", "periodic", "markovized",
                 "lattice-bernoulli", "lattice-markov", "lattice-table"):
        make = SYMBOL_KINDS[kind]
        site = (0,) if kind.startswith("lattice") else EPSILON
        pattern = LatticePattern.of if kind.startswith("lattice") else Pattern.of
        outside = "chain alphabet" if kind == "chain" else "alphabet"
        yield (f"{kind}-unknown-symbol", lambda make=make, p=pattern({site: 9}): make((0, 1)).eval(p),
               ValidationError, f"symbol 9 is not in the {outside}")
        yield (f"{kind}-repeated-alphabet", lambda make=make: make((0, 0)),
               ValidationError, "alphabet must be nonempty without repeats")
        yield (f"{kind}-unhashable-alphabet", lambda make=make: make(([0], 1)),
               ValidationError, "alphabet symbols must be hashable: unhashable type: 'list'")
        unhashable = pattern({site: [0]})
        yield (f"{kind}-unhashable-symbol", lambda make=make, p=unhashable: make((0, 1)).eval(p),
               *((TypeError, "unhashable type: 'list'") if kind in hashed
                 else (ValidationError, "symbol [0] is not in the alphabet")))
    theta = {s: (0,) for s in GS2.sigma}
    for label in (7, [0]):
        yield (f"orbit-label-{label}", lambda label=label: OrbitAutomaton(
            gs=GS2, alphabet=(0, 1), labels=(label,), delta=theta),
            ValidationError, f"label {label!r} is not in the alphabet")
        yield (f"theorem-fill-{label}",
               lambda fill=label: theorem_a_point(Pattern.of({}), theta, GS2, (0, 1), fill),
               ValidationError, f"fill symbol {label!r} is not in the alphabet")


@pytest.mark.parametrize("call, error, message", [
    pytest.param(*row, id=name) for name, *row in bad_symbol_refusals()
])
def test_every_kind_refuses_a_bad_symbol(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


# each constructor that takes a distribution, given that distribution
DISTRIBUTION_MAKERS = {
    "bernoulli": lambda q: BernoulliMeasure(GS2, (0, 1), q),
    "mixture": lambda q: MixtureMeasure((bernoulli(*HALF), bernoulli(F(1), F(0))), q),
    "periodic": lambda q: PeriodicMeasure((swap_orbit(), swap_orbit()), q),
    "lattice-bernoulli": lambda q: LatticeBernoulli(1, (0, 1), q),
    "lattice-markov-p": lambda q: LatticeMarkov((0, 1), q, FLAT),
    "lattice-markov-row": lambda q: LatticeMarkov((0, 1), HALF, (q, HALF)),
    "lattice-table": lambda q: LatticeTable(
        1, (0, 1), (1,), tuple((LatticePattern.of({(0,): c}), x) for c, x in zip((0, 1), q))
    ),
}
POSITIVE = {"mixture", "periodic", "lattice-markov-p"}


@pytest.mark.parametrize("kind", DISTRIBUTION_MAKERS)
def test_distributions_are_exact_and_sum_to_one(kind):
    make = DISTRIBUTION_MAKERS[kind]
    make(HALF)
    for inexact in ((0.5, 0.5), (True, False), ("1/2", "1/2"), (F(1, 2), 0.5)):
        with pytest.raises(ValidationError, match="must be ints or Fractions"):
            make(inexact)
    sign = "positive" if kind in POSITIVE else "nonnegative"
    for wrong in ((F(1, 2), F(1, 3)), (F(3, 2), F(-1, 2))):
        with pytest.raises(ValidationError, match=f"must be {sign} and sum to 1"):
            make(wrong)
    if kind in POSITIVE:
        with pytest.raises(ValidationError, match="must be positive and sum to 1"):
            make((1, 0))


def test_chain_make_refuses_inexact_entries():
    gs = GeneratorSet.from_signed((1,))
    for inexact in ((0.1, 0.9), (True, False), ("1/2", "1/2")):
        with pytest.raises(ValidationError, match="p must be ints or Fractions"):
            MarkovTreeChain.make(gs, (0, 1), inexact, {1: FLAT})
        with pytest.raises(ValidationError, match=r"P\[a1\] row 1 must be ints or Fractions"):
            MarkovTreeChain.make(gs, (0, 1), HALF, {1: (HALF, inexact)})
    for key in (1.7, True, "1"):
        with pytest.raises(ValueError, match="signed generator value must be an int"):
            MarkovTreeChain.make(gs, (0, 1), HALF, {key: (HALF, HALF)})
    # sums and signs are left to validate_chain, which reports them
    chain = MarkovTreeChain.make(gs, (0, 1), (1, 1), {1: (HALF, (F(3, 2), F(-1, 2)))})
    assert validate_chain(chain).problems == (
        "sum(p) = 2 != 1",
        "P[a1][1][1] = -1/2 is negative",
    )


MATRIX_A = ((1, 2), (0, 1))
MATRIX_B = ((1, 0), (2, 1))


def test_counterexample_chain_example():
    chain = counterexample_chain((MATRIX_A, MATRIX_B), 5, F(1, 100))
    assert len(chain.alphabet) == 25
    assert validate_chain(chain).ok
    assert is_invariant_chain(chain).ok
    # each matrix entry is delta off the deterministic mod-5 image
    rows = chain.matrix[Symbol(1, 1)]
    assert set(x for row in rows for x in row) == {F(1, 100), F(1) - 24 * F(1, 100)}


def test_counterexample_chain_full_support():
    chain = counterexample_chain((MATRIX_A, MATRIX_B), 3, F(1, 10))
    rng = random.Random(4)
    words = sorted(ball(GS2, 2), key=lambda v: v.key())
    for _ in range(10):
        sites = rng.sample(words, 3)
        pattern = Pattern.of({s: rng.choice(chain.alphabet) for s in sites})
        assert eval_cylinder(chain, pattern) > 0


def test_counterexample_chain_errors():
    with pytest.raises(DeltaOutOfRange):
        counterexample_chain((MATRIX_A, MATRIX_B), 5, F(1, 24))
    with pytest.raises(DeltaOutOfRange):
        counterexample_chain((MATRIX_A, MATRIX_B), 5, F(0))
    with pytest.raises(NonInvertibleModP):
        counterexample_chain((((1, 0), (0, 5)), MATRIX_B), 5, F(1, 100))


def test_counterexample_analyze_example():
    report = counterexample_analyze(
        (MATRIX_A, MATRIX_B), w("a1a2A1A2"), 5
    )
    assert report.matrix_mod_p == ((1, 2), (3, 2))
    assert report.witness == (1, 0)
    assert report.witness_image == (1, 3)
    assert report.cycle_length == 4
    assert report.threshold == F(1, 15625)
    assert report.single_site_mass == F(1, 25)
    assert report.bound_coefficient == 625
    assert report.violated_by(F(1, 100000)) is True
    assert report.violated_by(F(1, 100)) is False


def test_counterexample_analyze_errors():
    from semishift import EPSILON
    with pytest.raises(EmptyWord):
        counterexample_analyze((MATRIX_A, MATRIX_B), EPSILON, 5)
    with pytest.raises(NoWitness):
        counterexample_analyze((MATRIX_A,), w("a1a1a1a1a1"), 5)


def test_prime_test_agrees_with_trial_division():
    assert [n for n in range(2 * 10**5) if _is_prime(n) != trial_division_is_prime(n)] == []


@pytest.mark.parametrize(
    "factors",
    [(151, 751, 28351), (149491, 747451, 34233211), (399165290221, 798330580441)],
)
def test_strong_pseudoprimes_are_composite(factors):
    # Strong pseudoprimes to every prime base up to 7, 31 and 37 in turn.
    assert not _is_prime(math.prod(factors))


def test_prime_test_decides_large_primes_and_refuses_past_its_bound():
    assert _is_prime(2**61 - 1)
    assert not _is_prime((2**19 - 1) * (2**61 - 1))
    # The bound is itself composite and a strong pseudoprime to all 13 bases.
    bound = 1287836182261 * 2575672364521
    with pytest.raises(ValidationError, match=str(bound)):
        _is_prime(bound)
    with pytest.raises(ValidationError, match=str(bound)):
        counterexample_analyze((MATRIX_A, MATRIX_B), w("a1a2A1A2"), 2**89 - 1)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1]], "is not a 2x2 matrix"),
        ([[1, 2], [0]], "is not a 2x2 matrix"),
        ([[1, 2], [0, 1], [1, 1]], "is not a 2x2 matrix"),
        ([1, 2], "is not a 2x2 matrix"),
        ([[1.0, 2], [0, 1]], "entry 1.0 is not an integer"),
        ([[1, 2], [0, 1.7]], "entry 1.7 is not an integer"),
        ([[True, 2], [0, 1]], "entry True is not an integer"),
    ],
)
def test_counterexample_refuses_a_matrix_that_is_not_2x2_integer(matrix, message):
    with pytest.raises(ValidationError, match=message):
        counterexample_analyze([matrix], w("a1"), 5)
    with pytest.raises(ValidationError, match=message):
        counterexample_chain([MATRIX_A, matrix], 5, F(1, 1000))


def test_balance_transform_matches_extend():
    # the helper transform and the library extension agree entrywise
    rng = random.Random(12)
    chain = random_invariant_chain(rng, (1,), 3)
    extended = extend_chain(chain)
    manual = balance_transform(chain.p, chain.matrix[Symbol(1, 1)])
    assert extended.matrix[Symbol(1, -1)] == manual


def test_noninvariant_generators_fail_checks():
    rng = random.Random(90)
    for _ in range(10):
        chain = random_eigenvector_violation(rng, (1, 2), 2)
        assert not is_invariant_chain(chain).ok
        found = any(
            not shift_invariance_check(chain, sym, r).ok
            for r in (1, 2) for sym in chain.gs.symbols()
        )
        assert found
    for _ in range(10):
        chain = random_balance_violation(rng, 2)
        assert not is_invariant_chain(chain).ok


def test_all_patterns_enumeration():
    sites = [w(""), w("a1")]
    patterns = list(all_patterns(sites, (0, 1)))
    assert len(patterns) == 4
    assert len({p.entries for p in patterns}) == 4


def test_pattern_lookup_leaves_identity_unchanged():
    looked_up = Pattern.of({w("a1"): 1, w(""): 0})
    fresh = Pattern.of({w(""): 0, w("a1"): 1})
    assert looked_up[w("a1")] == 1 and w("") in looked_up and w("a2") not in looked_up
    with pytest.raises(KeyError):
        looked_up[w("a2")]
    assert looked_up == fresh and hash(looked_up) == hash(fresh)
    assert looked_up.render() == fresh.render() == "{e=0, a1=1}"
    assert repr(looked_up) == repr(fresh)
