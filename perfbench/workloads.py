"""The three workloads: fixtures, ops and the checks on each op's answer.

Each ``setup_*`` function builds a workload from the freshly imported
``semishift`` package.  An op returns ``(answer, bytes emitted)``; the
answer is a small exact summary that every repeat of the op must
reproduce, and the op's ``check`` judges the first answer after the
timed phase, so checking costs no measured time.

Why each workload exists:

- ``cylinder``: ``eval_cylinder`` on partial patterns.  The leaf-to-root
  kernel (``eval_constrained``) and hull building do nearly all the work;
  ball scans, markovize, serialize and the CLI are bypassed.
- ``ball-scan``: invariance, pushforward and distance scans over full
  ball patterns of every semigroup measure kind.  Pattern enumeration,
  ``Pattern`` construction and translation dominate.
- ``cli``: one ``semishift`` process at a time over all 14 subcommands.
  Process start, argument parsing, serialize reads and report rendering
  dominate; the kernel is little used.  Its ``markovize`` and
  ``consistency`` commands also run the block recoding, and its ``--out``
  options write JSON through ``serialize``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle
from fixtures import (
    balance_violation,
    ball_words,
    base_generators,
    conjugate,
    eigen_violation,
    fraction_text,
    iid_chain,
    invariant_chain,
    positive_distribution,
    random_chain,
    random_perm,
    random_word,
    structure_rng,
    value_rng,
    value_text,
)

HERE = Path(__file__).resolve().parent


def _no_check(answer, answers):
    return None


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], tuple]
    check: Callable = _no_check


@dataclass
class Workload:
    cycle: list[Op]
    cli: "CliRunner | None" = None


# -- building library objects from raw fixtures


def make_chain(ss, raw: dict):
    gs = ss.GeneratorSet.from_signed(raw["signed"])
    return ss.MarkovTreeChain.make(gs, raw["alphabet"], raw["p"], raw["P"])


def make_word(ss, letters: tuple[int, ...]):
    return ss.Word(tuple(ss.Symbol.from_signed(s) for s in letters))


def make_pattern(ss, assignment: dict):
    return ss.Pattern.of({make_word(ss, w): c for w, c in assignment.items()})


def bernoulli(ss, signed, probs):
    gs = ss.GeneratorSet.from_signed(signed)
    return ss.BernoulliMeasure(gs, tuple(range(len(probs))), tuple(probs))


def orbit(ss, vrng, signed: tuple[int, ...], k: int, n_symbols: int = 2):
    """Periodic point through a radius-1 pattern, on a group of fixed size.

    The morphism sends a1 to the k-cycle (Sigma (1,)) or a1, a2 to a
    transposition and the k-cycle (Sigma (1, 2)), so the orbit has k or
    k! states.  The seed conjugates the morphism and renames the
    alphabet; both give an isomorphic automaton, so the work is fixed.
    """
    gs = ss.GeneratorSet.from_signed(signed)
    swap, cycle = base_generators(k)
    images = [cycle] if len(signed) == 1 else [swap, cycle]
    sigma = random_perm(vrng, k)
    rename = random_perm(vrng, n_symbols)
    theta = {ss.Symbol.from_signed(s): conjugate(img, sigma) for s, img in zip(signed, images)}
    srng = structure_rng(f"orbit:{signed}:{k}:{n_symbols}")
    base = {tuple(range(k)): 1}
    entries = {(): rename[1]}
    for s, img in zip(signed, images):
        symbol = base.setdefault(img, srng.randrange(n_symbols))
        entries[(s,)] = rename[symbol]
    pattern = make_pattern(ss, entries)
    return ss.theorem_a_point(pattern, theta, gs, tuple(range(n_symbols)), fill=rename[0])


def periodic(ss, vrng, signed, sizes, n_symbols: int = 2):
    orbits = tuple(orbit(ss, vrng, signed, k, n_symbols) for k in sizes)
    weights = positive_distribution(vrng, len(orbits))
    return ss.PeriodicMeasure(orbits, tuple(weights))


def mixture(ss, vrng, components):
    weights = positive_distribution(vrng, len(components))
    return ss.MixtureMeasure(tuple(components), tuple(weights))


# -- cylinder

CYLINDER_SIGMAS = ((1, 2), (1, -1, 2), (1, -1, 2, -2))
ORACLE_MAX_TERMS = 1024
ORACLE_SAMPLE = 24


def setup_cylinder(ss, seed: int, tiny: bool, workdir: Path) -> Workload:
    srng = structure_rng("cylinder")
    vrng = value_rng(seed, "cylinder")
    sigmas = CYLINDER_SIGMAS[:1] if tiny else CYLINDER_SIGMAS
    # 75 ops: an odd cycle length whose 90% point falls mid-way between
    # ranks, so the p50 and p90 samples each come from one op's repeats.
    sizes = (2,) if tiny else (2, 2, 3, 3, 4)
    per_chain = 4 if tiny else 5
    ops = []
    feasible = []
    for signed in sigmas:
        for c, n in enumerate(sizes):
            raw = random_chain(vrng, signed, n)
            chain = make_chain(ss, raw)
            for j in range(per_chain):
                k = srng.randint(2, 5)
                sites: list[tuple[int, ...]] = []
                while len(sites) < k:
                    w = random_word(srng, signed, srng.randint(0, 4))
                    if w not in sites:
                        sites.append(w)
                assignment = {w: vrng.randrange(n) for w in sites}
                pattern = make_pattern(ss, assignment)
                name = f"{signed}:chain{c}:n{n}:{j}"

                def run(chain=chain, pattern=pattern):
                    text = fraction_text(ss.eval_cylinder(chain, pattern))
                    return text, len(text)

                ops.append(Op(name, "eval_cylinder", run))
                if oracle.completions(raw, sites) <= ORACLE_MAX_TERMS:
                    feasible.append((len(ops) - 1, raw, assignment))
    # The brute-force sums run in the checks, after timing, so their
    # seed-dependent cost stays out of set-up and the timed phase.
    sample = value_rng(seed, "cylinder-sample").sample(feasible, min(ORACLE_SAMPLE, len(feasible)))
    for index, raw, assignment in sample:

        def check(answer, answers, raw=raw, assignment=assignment):
            expected = fraction_text(oracle.brute_force_mass(raw, assignment))
            if answer != expected:
                return f"mass {answer}, brute force {expected}"
            return None

        ops[index].check = check
    return Workload(ops)


# -- ball-scan


def _mass_sum_check(ss, cache: dict):
    """Full-ball masses of a source must sum to 1 (cached per source and ball)."""

    def total(source, r, gs=None) -> Fraction:
        gs = source.gs if gs is None else gs
        key = (id(source), r, gs)
        if key not in cache:
            sites = ss.ball(gs, r)
            cache[key] = sum(
                (source.eval(p) for p in ss.all_patterns(sites, source.alphabet)), Fraction(0)
            )
        return cache[key]

    return total


def setup_ball_scan(ss, seed: int, tiny: bool, workdir: Path) -> Workload:
    v = value_rng(seed, "ball-scan")
    r2 = 1 if tiny else 2
    s12, s1m = (1, 2), (1, -1)
    inv12 = make_chain(ss, invariant_chain(v, s12, 2))
    inv12b = make_chain(ss, invariant_chain(v, s12, 2))
    inv1m2 = make_chain(ss, invariant_chain(v, s1m, 2))
    inv1m3 = make_chain(ss, invariant_chain(v, s1m, 3))
    bad_eigen = make_chain(ss, eigen_violation(v, s12, 2))
    bad_balance = make_chain(ss, balance_violation(v, 3))
    probs12 = positive_distribution(v, 2)
    bern12 = bernoulli(ss, s12, probs12)
    iid12 = make_chain(ss, iid_chain(s12, probs12))
    bern1m3 = bernoulli(ss, s1m, positive_distribution(v, 3))
    mix1m2 = mixture(ss, v, (inv1m2, bernoulli(ss, s1m, positive_distribution(v, 2))))
    mix12 = mixture(ss, v, (inv12, bern12))
    per2 = periodic(ss, v, s12, (2,))
    per6 = periodic(ss, v, s12, (3,))
    per24 = periodic(ss, v, s12, (4,))
    per120 = periodic(ss, v, s12, (5,))
    per_mix = periodic(ss, v, s12, (3, 4))
    ext12 = ss.extend_chain(inv12)
    ext12b = ss.extend_chain(inv12b)

    # (name, source, generator, radius, invariant by construction, in tiny)
    scans = [
        ("chain12-a1", inv12, 1, r2, True, False),
        ("chain12-a2", inv12, 2, r2, True, False),
        ("chain1m2-a1", inv1m2, 1, r2, True, True),
        ("chain1m2-A1", inv1m2, -1, r2, True, False),
        ("chain1m3-a1", inv1m3, 1, r2, True, False),
        ("chain1m3-A1", inv1m3, -1, r2, True, False),
        ("corrupt-eigen", bad_eigen, 1, r2, False, True),
        ("corrupt-balance", bad_balance, 1, r2, False, True),
        ("bern12-a1", bern12, 1, r2, True, True),
        ("bern12-a2", bern12, 2, r2, True, False),
        ("bern1m3-A1", bern1m3, -1, r2, True, False),
        ("mix1m2-a1", mix1m2, 1, r2, True, True),
        ("mix1m2-A1", mix1m2, -1, r2, True, False),
        ("mix12-a2", mix12, 2, r2, True, False),
        ("periodic2-a1", per2, 1, r2, True, False),
        ("periodic6-a2", per6, 2, r2, True, True),
        ("periodic24-a1", per24, 1, 1, True, False),
        ("periodic24-a2", per24, 2, 1, True, False),
        ("periodic120-a2", per120, 2, 1, True, False),
        ("periodic6+24-a1", per_mix, 1, 1, True, False),
    ]
    mass_sum = _mass_sum_check(ss, {})
    ops = []
    for name, source, g, r, expected, in_tiny in scans:
        if tiny and not in_tiny:
            continue
        sym = ss.Symbol.from_signed(g)

        def run(source=source, sym=sym, r=r):
            res = ss.shift_invariance_check(source, sym, r)
            text = value_text(res.ok) + ("" if res.ok else f": {res.witness}")
            return text, len(text)

        def check(answer, answers, source=source, r=r, expected=expected):
            if answer.startswith("true") != expected:
                return f"verdict {answer!r}, source built {'invariant' if expected else 'corrupted'}"
            if not expected and ": pattern" not in answer:
                return "a failed scan must carry a witness pattern"
            total = mass_sum(source, r)
            if total != 1:
                return f"full-ball masses sum to {total}"
            return None

        ops.append(Op(name, "shift_invariance_check", run, check))

    for name, ext, orig, in_tiny in (("push12", ext12, inv12, True), ("push12b", ext12b, inv12b, False)):
        if tiny and not in_tiny:
            continue

        def run(ext=ext, orig=orig):
            res = ss.pushforward_check(ext, orig, r2)
            text = value_text(res.ok) + ("" if res.ok else f": {res.witness}")
            return text, len(text)

        def check(answer, answers, ext=ext, orig=orig):
            if answer != "true":
                return f"extended chain disagrees with the original: {answer}"
            if mass_sum(ext, r2, orig.gs) != 1 or mass_sum(orig, r2) != 1:
                return "full-ball masses do not sum to 1"
            return None

        ops.append(Op(name, "pushforward_check", run, check))

    def distance(m1, m2):
        def run():
            text = fraction_text(ss.weak_star_distance(m1, m2, r2))
            return text, len(text)

        return run

    w_chain = mix12.weights[0]

    def check_iid(answer, answers):
        return None if answer == "0/1" else f"Bernoulli and its i.i.d. chain differ by {answer}"

    def check_base(answer, answers):
        return None if Fraction(answer) > 0 else "distinct measures at distance 0"

    def check_mix(answer, answers):
        # |w m1 + (1 - w) m2 - m1| = (1 - w) |m2 - m1|, pattern by pattern.
        want = (1 - w_chain) * Fraction(answers["dist-chain-bern"])
        return None if Fraction(answer) == want else f"distance {answer}, linearity gives {want}"

    ops += [
        Op("dist-bern-iid", "weak_star_distance", distance(bern12, iid12), check_iid),
        Op("dist-chain-bern", "weak_star_distance", distance(inv12, bern12), check_base),
        Op("dist-mix-chain", "weak_star_distance", distance(mix12, inv12), check_mix),
    ]
    return Workload(ops)


# -- cli


class CliRunner:
    """Runs one ``semishift`` process at a time in the fixture directory.

    Each process runs through ``cli_child.py``, which reports its own
    peak memory and, when a tracer is set, its spans.
    """

    def __init__(self, root: Path, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tracer = None
        self.processes = 0
        self.peak_rss_kb = 0

    def run(self, argv: list[str]) -> tuple[int, str]:
        traced = "1" if self.tracer is not None else "0"
        stats_path = self.workdir / "child-stats.json"
        # A child that dies before writing its stats leaves no file, and
        # the op fails, rather than the previous child's stats being read.
        stats_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "cli_child.py"), stats_path.name, traced, *argv]
        proc = subprocess.run(
            cmd, cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=120
        )
        self.processes += 1
        if not stats_path.is_file():
            raise RuntimeError(f"process wrote no stats (exit {proc.returncode}): "
                               f"{proc.stderr.strip()[-200:]}")
        stats = json.loads(stats_path.read_text())
        self.peak_rss_kb = max(self.peak_rss_kb, stats["peak_rss_kb"])
        if self.tracer is not None:
            self.tracer.merge_child(stats["trace"])
        return proc.returncode, proc.stdout


def parse_report(text: str) -> dict[str, str]:
    rows: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in rows:
            rows[key] = value
    return rows


COUNTEREXAMPLE_MATRICES = [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]


def setup_cli(ss, seed: int, tiny: bool, workdir: Path) -> Workload:
    import semishift.serialize as ser

    v = value_rng(seed, "cli")
    s12 = (1, 2)
    gs12 = ss.GeneratorSet.from_signed(s12)

    def write(name: str, data) -> str:
        ser.write_json(workdir / name, data)
        return name

    chain_inv = make_chain(ss, invariant_chain(v, s12, 2))
    chain_bad = make_chain(ss, eigen_violation(v, s12, 2))
    chain3 = make_chain(ss, invariant_chain(v, s12, 3))
    bern = bernoulli(ss, s12, positive_distribution(v, 2))
    mix = mixture(ss, v, (chain_inv, bern))
    d1chain = make_chain(ss, invariant_chain(v, (1,), 2))
    orbit120 = orbit(ss, v, s12, 5)
    orbit720 = orbit(ss, v, s12, 6)
    per120 = ss.PeriodicMeasure((orbit120,), (Fraction(1),))
    srng = structure_rng("cli")
    pattern5 = make_pattern(ss, {random_word(srng, s12, k): v.randrange(3) for k in (0, 1, 2, 3, 3)})
    pattern3 = make_pattern(ss, {(): v.randrange(2), (1,): v.randrange(2), (2, 1): v.randrange(2)})
    cpattern = make_pattern(ss, {w: v.randrange(2) for w in ball_words((1,), 2)})
    swap, cycle = base_generators(5)
    sigma = random_perm(v, 5)
    theta5 = {ss.Symbol(1, 1): conjugate(swap, sigma), ss.Symbol(2, 1): conjugate(cycle, sigma)}
    thm_pattern = make_pattern(ss, {(): 1, (1,): v.randrange(2), (2,): v.randrange(2)})
    lm_raw = invariant_chain(v, (1,), 3)
    lmarkov = ss.LatticeMarkov((0, 1, 2), tuple(lm_raw["p"]), tuple(map(tuple, lm_raw["P"][1])))
    lpattern = ss.LatticePattern.of({(x,): v.randrange(3) for x in (0, 3, 7, 12, 20)})
    box_sites = [(0,), (1,), (2,)]
    table_masses = positive_distribution(v, 8)
    table = tuple(
        (ss.LatticePattern.of({s: (i >> b) & 1 for b, s in enumerate(box_sites)}), table_masses[i])
        for i in range(8)
    )
    ltable = ss.LatticeTable(1, (0, 1), (3,), table)
    ltpattern = ss.LatticePattern.of({(-1,): v.randrange(2), (1,): v.randrange(2)})
    lbern = ss.LatticeBernoulli(2, (0, 1, 2), tuple(positive_distribution(v, 3)))
    lbpattern = ss.LatticePattern.of({(-2, 1): v.randrange(3), (0, -1): v.randrange(3),
                                      (3, 2): v.randrange(3)})
    delta = Fraction(1, 15625 * v.randint(2, 9))

    write("chain_inv.json", ser.measure_out(chain_inv))
    write("chain_bad.json", ser.measure_out(chain_bad))
    write("chain3.json", ser.measure_out(chain3))
    write("bern.json", ser.measure_out(bern))
    write("mix.json", ser.measure_out(mix))
    write("d1chain.json", ser.measure_out(d1chain))
    write("periodic120.json", ser.measure_out(per120))
    write("orbit120.json", ser.automaton_out(orbit120))
    write("orbit720.json", ser.automaton_out(orbit720))
    write("extended.json", ser.measure_out(ss.extend_chain(chain_inv)))
    write("pattern5.json", ser.pattern_out(pattern5, 2))
    write("pattern3.json", ser.pattern_out(pattern3, 2))
    write("cpattern.json", ser.pattern_out(cpattern, 1))
    write("thm_pattern.json", ser.pattern_out(thm_pattern, 2))
    write("theta5.json", ser.morphism_out(theta5))
    write("lmarkov.json", ser.measure_out(lmarkov))
    write("lpattern.json", ser.lattice_pattern_out(lpattern))
    write("ltable.json", ser.measure_out(ltable))
    write("ltpattern.json", ser.lattice_pattern_out(ltpattern))
    write("lbern.json", ser.measure_out(lbern))
    write("lbpattern.json", ser.lattice_pattern_out(lbpattern))
    bad = ser.measure_out(chain_inv)
    bad["p"] = ["0.5", "0.5"]
    write("bad.json", bad)

    def out_json(name: str, expected) -> Callable[[], str | None]:
        def check():
            found = json.loads((workdir / name).read_text())
            return None if found == expected else f"{name} differs from the library's object"
        return check

    # Each entry: name, argv, file written by --out, expectation.  The
    # expectation runs in-process after the timed phase and returns the
    # exit code, the report rows to compare, and an optional file check.
    def expect_validate(chain):
        diag = ss.validate_chain(chain)
        res = ss.is_invariant_chain(chain)
        return (0 if res.ok else 1), {"valid": diag.ok, "invariant": res.ok}, None

    def expect_ball_invariance(measure, r):
        ok = all(ss.shift_invariance_check(measure, s, r).ok for s in measure.gs.symbols())
        return (0 if ok else 1), {"method": "ball", "radius": r, "invariant": ok}, None

    def expect_extend():
        ext = ss.extend_chain(chain_inv)
        rows = {"sigma": ",".join(str(s.signed) for s in ext.gs.symbols()),
                "symbols": len(ext.gs.sigma), "invariant": ss.is_invariant_chain(ext).ok}
        return 0, rows, out_json("ext.json", ser.measure_out(ext))

    def expect_markovize():
        result = ss.markovize(d1chain, 2)
        ok = result.diagnostics.ok and result.invariance.ok
        rows = {"order": 2, "blocks": len(result.blocks), "valid": result.diagnostics.ok,
                "invariant": result.invariance.ok}
        return (0 if ok else 1), rows, None

    def expect_consistency():
        result = ss.markovize(d1chain, 2)
        ok = ss.markovization_consistency(d1chain, 2, cpattern, result)
        rows = {"oracle_mass": d1chain.eval(cpattern),
                "chain_mass": ss.MarkovizedMeasure(result).eval(cpattern), "consistent": ok}
        return (0 if ok else 1), rows, None

    def expect_orbit(o):
        size, group = ss.transformation_monoid(o)
        rows = {"states": o.n_states(), "states_minimized": ss.minimized(o).n_states(),
                "periodic": ss.is_periodic(o), "transitive": ss.is_transitive(o),
                "orbit_size": ss.orbit_size(o), "monoid_size": size, "monoid_is_group": group}
        return 0, rows, None

    def expect_thm():
        o = ss.theorem_a_point(thm_pattern, theta5, gs12, (0, 1))
        matches = all(ss.readout(o, w) == c for w, c in thm_pattern.items())
        rows = {"states": o.n_states(), "periodic": ss.is_periodic(o), "readout_matches": matches}
        return 0, rows, out_json("thm.json", ser.automaton_out(o))

    def expect_find():
        theta = ss.find_separating_morphism(gs12, 2, 5, seed=11)
        rows = {"degree": 5, "ball_size": len(ss.ball(gs12, 2)), "found": True}
        return 0, rows, out_json("theta.json", ser.morphism_out(theta))

    def expect_lift():
        lifted = ss.lift_to_group(orbit120)
        rows = {"states": lifted.n_states(),
                "sigma": ",".join(str(s.signed) for s in lifted.gs.symbols()),
                "periodic": ss.is_periodic(lifted)}
        return 0, rows, out_json("lift.json", ser.automaton_out(lifted))

    def expect_counterexample():
        word = ss.parse_word("a1a2A1A2")
        report = ss.counterexample_analyze(COUNTEREXAMPLE_MATRICES, word, 5)
        chain = ss.counterexample_chain(COUNTEREXAMPLE_MATRICES, 5, delta)
        violated = report.violated_by(delta)
        rows = {"threshold": report.threshold, "single_site_mass": report.single_site_mass,
                "bound_coefficient": report.bound_coefficient, "delta": delta,
                "violates_bound": violated, "chain_symbols": len(chain.alphabet),
                "chain_invariant": ss.is_invariant_chain(chain).ok}
        return (0 if violated else 1), rows, out_json("ce.json", ser.measure_out(chain))

    specs = [
        ("validate-inv", ["validate-chain", "--chain", "chain_inv.json"],
         lambda: expect_validate(chain_inv), True),
        ("validate-bad", ["validate-chain", "--chain", "chain_bad.json"],
         lambda: expect_validate(chain_bad), True),
        ("validate-chain3", ["validate-chain", "--chain", "chain3.json"],
         lambda: expect_validate(chain3), False),
        ("invariance-chain", ["invariance-check", "--measure", "chain_inv.json"],
         lambda: (0, {"method": "algebraic",
                      "invariant": ss.is_invariant_chain(chain_inv).ok}, None), False),
        ("invariance-bern", ["invariance-check", "--measure", "bern.json", "--radius", "2"],
         lambda: expect_ball_invariance(bern, 2), False),
        ("invariance-periodic120", ["invariance-check", "--measure", "periodic120.json",
                                    "--radius", "1"],
         lambda: expect_ball_invariance(per120, 1), False),
        ("invariance-mix", ["invariance-check", "--measure", "mix.json", "--radius", "1"],
         lambda: expect_ball_invariance(mix, 1), False),
        ("eval-chain", ["eval", "--measure", "chain3.json", "--pattern", "pattern5.json"],
         lambda: (0, {"sites": len(pattern5), "mass": chain3.eval(pattern5)}, None), True),
        ("eval-mix", ["eval", "--measure", "mix.json", "--pattern", "pattern3.json"],
         lambda: (0, {"sites": len(pattern3), "mass": mix.eval(pattern3)}, None), False),
        ("eval-periodic", ["eval", "--measure", "periodic120.json", "--pattern", "pattern3.json"],
         lambda: (0, {"sites": len(pattern3), "mass": per120.eval(pattern3)}, None), False),
        ("extend", ["extend", "--chain", "chain_inv.json", "--out", "ext.json"],
         expect_extend, False),
        ("pushforward", ["pushforward-check", "--extended", "extended.json",
                         "--chain", "chain_inv.json", "--radius", "2"],
         lambda: (0, {"radius": 2, "agree": ss.pushforward_check(
             ss.extend_chain(chain_inv), chain_inv, 2).ok}, None), False),
        ("markovize", ["markovize", "--measure", "d1chain.json", "--order", "2",
                       "--out", "mk.json"], expect_markovize, False),
        ("consistency", ["consistency", "--measure", "d1chain.json", "--order", "2",
                         "--pattern", "cpattern.json"], expect_consistency, False),
        ("orbit-analyze-120", ["orbit-analyze", "--automaton", "orbit120.json"],
         lambda: expect_orbit(orbit120), True),
        ("orbit-analyze-720", ["orbit-analyze", "--automaton", "orbit720.json"],
         lambda: expect_orbit(orbit720), False),
        ("thm-a-construct", ["thm-a-construct", "--pattern", "thm_pattern.json",
                             "--morphism", "theta5.json", "--alphabet", "0,1",
                             "--out", "thm.json"], expect_thm, False),
        ("find-morphism", ["find-morphism", "--sigma", "1,2", "--radius", "2", "--degree", "5",
                           "--seed", "11", "--out", "theta.json"], expect_find, False),
        ("lift", ["lift", "--automaton", "orbit120.json", "--out", "lift.json"],
         expect_lift, False),
        ("distance", ["distance", "--first", "bern.json", "--second", "chain_inv.json",
                      "--radius", "2"],
         lambda: (0, {"radius": 2, "distance": ss.weak_star_distance(bern, chain_inv, 2)}, None),
         False),
        ("counterexample", ["counterexample", "--matrices",
                            json.dumps(COUNTEREXAMPLE_MATRICES, separators=(",", ":")),
                            "--word", "a1a2A1A2", "--prime", "5",
                            "--delta", fraction_text(delta), "--out", "ce.json"],
         expect_counterexample, False),
        ("window-markov", ["window-eval", "--measure", "lmarkov.json",
                           "--pattern", "lpattern.json"],
         lambda: (0, {"sites": len(lpattern), "mass": ss.window_measure(lmarkov, lpattern)},
                  None), True),
        ("window-table", ["window-eval", "--measure", "ltable.json",
                          "--pattern", "ltpattern.json"],
         lambda: (0, {"sites": len(ltpattern), "mass": ss.window_measure(ltable, ltpattern)},
                  None), False),
        ("window-bern", ["window-eval", "--measure", "lbern.json",
                         "--pattern", "lbpattern.json"],
         lambda: (0, {"sites": len(lbpattern), "mass": ss.window_measure(lbern, lbpattern)},
                  None), False),
        ("bad-input", ["eval", "--measure", "bad.json", "--pattern", "pattern3.json"],
         lambda: (2, {}, None), True),
    ]
    runner = CliRunner(HERE.parent, workdir)
    ops = []
    for name, argv, expect, in_tiny in specs:
        if tiny and not in_tiny:
            continue
        out = argv[argv.index("--out") + 1] if "--out" in argv else None

        def run(argv=argv, out=out):
            code, stdout = runner.run(argv)
            size = len(stdout.encode())
            if out is not None and code == 0:
                size += (workdir / out).stat().st_size
            return (code, stdout), size

        def check(answer, answers, expect=expect):
            code, stdout = answer
            want_code, want_rows, file_check = expect()
            if code != want_code:
                return f"exit code {code}, expected {want_code}: {stdout.strip()[:200]}"
            rows = parse_report(stdout)
            if want_code == 2 and not rows.get("error", "").startswith("ParseError"):
                return f"input error not reported: {stdout.strip()[:200]}"
            for key, value in want_rows.items():
                if rows.get(key) != value_text(value):
                    return f"{key}: {rows.get(key)!r}, library gives {value_text(value)!r}"
            return file_check() if file_check is not None else None

        ops.append(Op(name, argv[0], run, check))
    return Workload(ops, cli=runner)


SETUPS = {
    "cylinder": setup_cylinder,
    "ball-scan": setup_ball_scan,
    "cli": setup_cli,
}
