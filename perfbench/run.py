"""Benchmark for semishift: seeded closed-loop workloads, exact output checks.

Run from the repository root:

    python3 perfbench/run.py --workload cylinder --seed 1 --seconds 30 --trace 0

One caller runs the workload's ops back to back (a closed loop with one
client; the ``cli`` workload runs one ``semishift`` process at a time).
With ``--trace 0`` the run sets up the workload five times, runs whole
cycles of ops for at least ``--seconds`` and at least 100 ops, sets up
five times more, and reports the end-to-end metrics, timed in CPU time
scaled by a gauge of the host's speed (see ``speed.py``).  With
``--trace 1`` it alternates untraced cycles with cycles that record spans
around every call into the package, and reports per-layer metrics per
pass over the op list.  Every op's answer is checked after timing.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import speed
import workloads
from cli_child import peak_rss_kb
from speed import cpu_ns
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Set-ups before the timed phase, and as many again after it.
SETUP_REPEATS = 5
# The latency buffer is allocated before set-up at this fixed size, so
# the benchmark's own memory in peak_rss_mb does not grow with speed; a
# timed phase also ends when the buffer is full.
MAX_TIMED_OPS = 250_000
MIN_OPS = {"full": 100, "tiny": 10}
STARTUP_PROBES = 5

# name, unit, better
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("algebra.tree_hull.calls", "count", "lower"),
    ("algebra.tree_hull.self_s", "s", "lower"),
    ("algebra.tree_hull.vertices", "count", "lower"),
    ("algebra.ball.self_s", "s", "lower"),
    ("algebra.parse_word.calls", "count", "lower"),
    ("algebra.parse_word.self_s", "s", "lower"),
    ("algebra.word_mul.calls", "count", "lower"),
    ("measure.eval_constrained.calls", "count", "lower"),
    ("measure.eval_constrained.self_s", "s", "lower"),
    ("measure.eval_constrained.den_bits_max", "bits", "lower"),
    ("measure.validate_chain.calls", "count", "lower"),
    ("measure.all_patterns.patterns", "count", "lower"),
    ("measure.all_patterns.self_s", "s", "lower"),
    ("measure.Pattern.translated.self_s", "s", "lower"),
    ("measure.shift_invariance_check.self_s", "s", "lower"),
    ("measure.pushforward_check.self_s", "s", "lower"),
    ("measure.weak_star_distance.self_s", "s", "lower"),
    ("measure.BernoulliMeasure.eval.self_s", "s", "lower"),
    ("measure.MixtureMeasure.eval.self_s", "s", "lower"),
    ("markovize.support_alphabet.self_s", "s", "lower"),
    ("markovize.markovize.self_s", "s", "lower"),
    ("markovize.MarkovizedMeasure.eval.self_s", "s", "lower"),
    ("markovize.blocks", "count", "lower"),
    ("markovize.pairs_tried", "count", "lower"),
    ("markovize.pairs_compatible", "count", "lower"),
    ("markovize.pair_yield", "ratio", "higher"),
    ("orbit.minimized.calls", "count", "lower"),
    ("orbit.minimized.self_s", "s", "lower"),
    ("orbit.transformation_monoid.self_s", "s", "lower"),
    ("orbit.theorem_a_point.self_s", "s", "lower"),
    ("orbit.find_separating_morphism.self_s", "s", "lower"),
    ("orbit.periodic_measure_eval.self_s", "s", "lower"),
    ("reversible.window_measure.calls", "count", "lower"),
    ("reversible.window_measure.self_s", "s", "lower"),
    ("serialize.read.self_s", "s", "lower"),
    ("serialize.read.bytes", "bytes", "lower"),
    ("serialize.write.self_s", "s", "lower"),
    ("serialize.write.bytes", "bytes", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.execute.self_s", "s", "lower"),
    ("cli.report.bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.named_share", "ratio", "higher"),
    ("trace.kernel_share", "ratio", "lower"),
    ("work.ops", "count", "lower"),
    ("work.subprocesses", "count", "lower"),
)


def import_semishift():
    """Import the package from this checkout's ``src``, afresh each call."""
    for name in [m for m in sys.modules if m == "semishift" or m.startswith("semishift.")]:
        del sys.modules[name]
    ss = importlib.import_module("semishift")
    if Path(ss.__file__).resolve().parent != ROOT / "src" / "semishift":
        raise SystemExit(f"imported semishift from {ss.__file__}, not from {ROOT / 'src'}")
    return ss


class Tally:
    """Runs and failed runs per op, with the first failure message of each."""

    def __init__(self) -> None:
        self.runs: Counter = Counter()
        self.failed: Counter = Counter()
        self.messages: dict[str, str] = {}

    def fail(self, name: str, message: str, runs: int = 1) -> None:
        self.failed[name] = min(self.runs[name], self.failed[name] + runs)
        self.messages.setdefault(name, message)


def run_op(op, answers: dict, tally: Tally, tracer=None) -> int:
    """Run one op and record its outcome; returns its latency in ns."""
    frame = tracer.open_span() if tracer is not None else None
    start = cpu_ns()
    try:
        answer, size = op.run()
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    latency = cpu_ns() - start
    if tracer is not None:
        tracer.end_op(frame, op.kind)
    tally.runs[op.name] += 1
    if error is not None:
        tally.fail(op.name, error)
    elif op.name not in answers:
        answers[op.name] = (answer, size)
    elif answers[op.name][0] != answer:
        tally.fail(op.name, f"answer {answer!r} differs from the first {answers[op.name][0]!r}")
    return latency


def timed_phase(workload, answers, tally, latencies, seconds, min_ops):
    """Whole cycles for ``seconds`` of wall time, with latencies in ``latencies``.

    Each op's CPU latency is scaled by the gauge factor of the stretch it
    ran in.  Returns the number of ops, the number of cycles and the
    stopwatch of the phase.
    """
    n = done = unscaled = 0  # latencies[unscaled:n] await their factor
    watch = speed.Stopwatch()
    start = time.perf_counter()
    while True:
        for op in workload.cycle:
            latencies[n] = run_op(op, answers, tally)
            n += 1
            f = watch.tick()
            if f is not None:
                for i in range(unscaled, n):
                    latencies[i] *= f
                unscaled = n
        done += 1
        if time.perf_counter() - start >= seconds and n >= min_ops:
            break
        if n + len(workload.cycle) > len(latencies):
            break
    f = watch.tick(force=True)
    for i in range(unscaled, n):
        latencies[i] *= f
    return n, done, watch


def set_up(name: str, seed: int, tiny: bool, workdir: Path):
    """Import, build fixtures and objects, warm up.

    Returns the workload, the warm-up answers and the set-up's scaled CPU
    seconds (see ``speed.py``).
    """
    watch = speed.Stopwatch()
    ss = import_semishift()
    workload = workloads.SETUPS[name](ss, seed, tiny, workdir)
    watch.tick()
    answers: dict = {}
    warm = workload.cycle[:1] if workload.cli is not None else workload.cycle
    for op in warm:
        run_op(op, answers, Tally())
        watch.tick()
    return workload, answers, watch.stop()


def judge(workload, answers: dict, tally: Tally) -> None:
    """Check each op's first answer; a wrong answer fails every run of the op."""
    plain = {name: answer for name, (answer, _) in answers.items()}
    for op in workload.cycle:
        if op.name not in answers:
            continue
        try:
            message = op.check(answers[op.name][0], plain)
        except Exception as exc:  # a check that cannot run fails the op
            message = f"check raised {type(exc).__name__}: {exc}"
        if message:
            tally.fail(op.name, message, runs=tally.runs[op.name])


def output_bytes(workload, answers: dict) -> int:
    return sum(answers[op.name][1] for op in workload.cycle if op.name in answers)


def peak_rss_mb(workload) -> float:
    kb = workload.cli.peak_rss_kb if workload.cli is not None else peak_rss_kb()
    return kb / 1024


def percentile(latencies: list[float], q: float) -> float:
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(args, tiny: bool, workdir: Path):
    buffer = array("d", bytes(8 * MAX_TIMED_OPS))
    setups = []
    for _ in range(SETUP_REPEATS):
        workload, answers, seconds = set_up(args.workload, args.seed, tiny, workdir)
        setups.append(seconds)
    tally = Tally()
    n, cycles, watch = timed_phase(
        workload, answers, tally, buffer, args.seconds, MIN_OPS[args.scale]
    )
    rss = peak_rss_mb(workload)
    latencies = buffer[:n]
    elapsed = watch.ns / 1e9
    judge(workload, answers, tally)
    # Set-ups on both sides of the timed phase spread the samples over the
    # whole run, so a burst of load on the host sways their median less.
    for _ in range(SETUP_REPEATS):
        setups.append(set_up(args.workload, args.seed, tiny, workdir)[2])
    metrics = {
        "ops_per_s": n / elapsed,
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_p90_ms": percentile(latencies, 0.9) / 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    beyond = n - math.ceil(0.9 * n)
    notes = {
        "ops_per_s": f"{n} ops in {elapsed:.3f} s, {cycles} cycles of {len(workload.cycle)}; "
        f"speed gauge median {statistics.median(watch.samples) / 1e6:.3f} ms over "
        f"{len(watch.samples)} samples, "
        f"nominal {speed.NOMINAL_NS / 1e6:g} ms",
        "op_p50_ms": f"n={n}",
        "op_p90_ms": f"n={n}, {beyond} samples beyond it",
        "setup_s": f"median of {len(setups)}, half before and half after timing: "
        + ", ".join(f"{s:.4f}" for s in setups),
        "peak_rss_mb": "peak over child processes" if workload.cli else "peak of this process",
    }
    lines = []
    if workload.cli is not None:
        lines.append(f"output_bytes {output_bytes(workload, answers)} bytes (one pass over "
                     f"{len(workload.cycle)} ops; report only)")
    return metrics, notes, END_TO_END, tally, lines


def startup_seconds(workdir: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(STARTUP_PROBES):
        start = cpu_ns()
        subprocess.run([sys.executable, "-c", "import semishift.cli"], cwd=workdir, env=env,
                       check=True, timeout=60)
        times.append((cpu_ns() - start) / 1e9)
    return statistics.median(times)


def layer_metrics(view: dict, den_bits_max: int) -> dict:
    calls, self_ns, extra = view["calls"], view["self_ns"], view["extra"]
    out = {}
    for name, _, _ in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(prefix, 0)
        elif field == "self_s":
            out[name] = self_ns.get(prefix, 0) / 1e9
        elif name in extra:
            out[name] = extra[name]
    out["measure.eval_constrained.den_bits_max"] = den_bits_max
    tried = extra.get("markovize.pairs_tried", 0)
    out["markovize.pair_yield"] = extra.get("markovize.pairs_compatible", 0) / tried if tried else 0
    op_ns = view["op_ns"]
    kernel = sum(v for k, v in self_ns.items() if k.startswith(("algebra.", "measure.")))
    out["trace.named_share"] = view["covered_ns"] / op_ns if op_ns else 0
    out["trace.kernel_share"] = kernel / op_ns if op_ns else 0
    return out


def per_pass(totals: dict, cycles: int) -> dict:
    """The tracer's totals over ``cycles`` traced cycles, per cycle."""
    view = {k: {name: v / cycles for name, v in totals[k].items()}
            for k in ("calls", "self_ns", "extra")}
    for k in ("op_ns", "covered_ns", "ops"):
        view[k] = totals[k] / cycles
    return view


def run_cycle(workload, answers, tally, tracer=None) -> int:
    """One pass over the op list, traced if a tracer is given; returns CPU ns."""
    if tracer is not None:
        tracer.install()
        if workload.cli is not None:
            workload.cli.tracer = tracer
    try:
        start = cpu_ns()
        for op in workload.cycle:
            run_op(op, answers, tally, tracer)
        return cpu_ns() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
            if workload.cli is not None:
                workload.cli.tracer = None


def trace(args, tiny: bool, workdir: Path):
    """Untraced and traced cycles in turn, so host drift affects both alike.

    Each pair runs one cycle of each kind, in the order untraced-traced,
    then traced-untraced, so a steady drift cancels in the summed times.
    """
    workload, answers, _ = set_up(args.workload, args.seed, tiny, workdir)
    tally = Tally()
    tracer = Tracer()
    processes = workload.cli.processes if workload.cli else 0
    plain_ns = traced_ns = 0
    pairs = 0
    start = time.perf_counter()
    while pairs == 0 or time.perf_counter() - start < args.seconds:
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            if traced:
                traced_ns += run_cycle(workload, answers, tally, tracer)
            else:
                plain_ns += run_cycle(workload, answers, tally)
        pairs += 1
    view = per_pass(tracer.snapshot(), pairs)
    metrics = layer_metrics(view, tracer.den_bits_max)
    metrics["trace.overhead_ratio"] = traced_ns / plain_ns
    metrics["work.ops"] = view["ops"]
    metrics["work.subprocesses"] = (
        (workload.cli.processes - processes) / (2 * pairs) if workload.cli else 0
    )
    if workload.cli is not None:
        metrics["cli.startup_s"] = startup_seconds(workdir)
        metrics["cli.report.bytes"] = sum(
            len(answers[op.name][0][1].encode()) for op in workload.cycle if op.name in answers
        )
    for name, _, _ in PER_LAYER:
        metrics.setdefault(name, 0)
    judge(workload, answers, tally)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.dump(str(path))
    notes = {
        "trace.overhead_ratio": f"traced {traced_ns / 1e9:.3f} CPU s / untraced "
        f"{plain_ns / 1e9:.3f} s, {pairs} cycles each, alternated",
        "trace.named_share": "share of traced op time inside named layer spans",
        "trace.kernel_share": "share of traced op time in algebra and measure self time",
        "work.ops": "per pass; every per-layer value is per pass over the op list",
    }
    lines = [f"spans: {len(tracer.spans) // 6} written to {path.relative_to(ROOT)}"]
    return metrics, notes, PER_LAYER, tally, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few small ops, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semishift" / "__init__.py").is_file():
        print(f"no semishift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tiny = args.scale == "tiny"
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = trace if args.trace else measure
        metrics, notes, table, tally, lines = run(args, tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(tally.runs.values())
    failed = sum(tally.failed.values())
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}, "
          f"trace {args.trace}, python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    for name, unit, _ in table:
        note = notes.get(name)
        print(f"{name} {metrics[name]:.6g} {unit}" + (f" ({note})" if note else ""))
    for line in lines:
        print(line)
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for name, message in sorted(tally.messages.items()):
        print(f"FAILED {name} ({tally.failed[name]} of {tally.runs[name]} runs): {message}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
