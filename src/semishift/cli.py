"""Batch command line: load JSON inputs, dispatch, print an exact report.

Each subcommand reads JSON files, prints one report to stdout as ``key:
value`` lines (or CSV rows with ``--format csv``), and exits 0 when the
checked property holds or the construction succeeds, 1 when a property
fails (the report carries a witness), 2 on malformed or invalid input.
Rationals are printed as num/den; ``--human`` appends decimal
approximations to six places, which are display-only and never
authoritative.  Exact values print in full at any size.  Commands that
build an object (extend, markovize, thm-a-construct, find-morphism, lift,
counterexample) write it as JSON to ``--out``.  Importing this module loads
every module the benchmark's tracer wraps; the Theorem-E module loads only
when the ``counterexample`` command runs.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

from .algebra import GeneratorSet, ball_count, parse_word, word_to_string
from .errors import BudgetExhausted, ParseError, SemishiftError, ValidationError, bounded_int
from .fold import validate_chain
from .markovize import consistency_masses, markovize
from .measure import (
    CheckResult,
    MarkovTreeChain,
    extend_chain,
    is_invariant_chain,
    pushforward_check,
    shift_invariance_check,
    weak_star_distance,
)
from .orbit import (
    find_separating_morphism,
    is_periodic,
    is_transitive,
    lift_to_group,
    orbit_size,
    readout,
    theorem_a_point,
    transformation_monoid,
)
from .reversible import window_measure
from .serialize import (
    MEASURE_KINDS,
    _symbol_in,
    automaton_in,
    automaton_out,
    block_alphabet_out,
    chain_in,
    fraction_to_str,
    lattice_pattern_in,
    measure_in,
    measure_out,
    morphism_in,
    morphism_out,
    parse_fraction,
    pattern_in,
    read_json,
    write_json,
)

Row = tuple[str, Any]
# A handler only computes.  It returns (exit code, rows), plus the object
# that --out writes when it built one; execute writes it and prints the rows.
Report = tuple[int, list[Row]] | tuple[int, list[Row], Any]


def _value_text(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return fraction_to_str(v)
    return str(v)


def _approx_text(v: Any) -> str:
    if isinstance(v, Fraction):
        return f"{float(v):.6f}"
    return ""


def _render(rows: list[Row], args: argparse.Namespace) -> str:
    # approx is "" without --human and for values that are not rationals
    records = [(key, _value_text(v), _approx_text(v) if args.human else "") for key, v in rows]
    if args.fmt == "csv":
        import csv

        width = 3 if args.human else 2
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerows(r[:width] for r in [("key", "value", "approx"), *records])
        return sink.getvalue().rstrip("\n")
    return "\n".join(f"{k}: {v}" + (f" (~ {a})" if a else "") for k, v, a in records)


def _verdict(rows: list[Row], key: str, result: CheckResult) -> int:
    """Append a check's outcome as ``key`` and, if it fails, its witness; return the exit code."""
    rows.append((key, result.ok))
    if not result.ok:
        rows.append(("witness", result.witness))
    return 0 if result.ok else 1


def _read_measure(path: Path, lattice: bool = False):
    """Read a measure file; a semigroup command refuses lattice kinds and vice versa."""
    data = read_json(path)
    measure = measure_in(data, where=str(path))
    if MEASURE_KINDS[data["kind"]].lattice != lattice:
        if lattice:
            raise ValidationError(f"{path}: window-eval needs a lattice measure")
        raise ValidationError(f"{path}: lattice measures go with window-eval")
    return measure


def _cmd_validate_chain(args: argparse.Namespace) -> Report:
    """structural checks plus the invariance certificate for a chain"""
    chain = chain_in(read_json(args.chain), str(args.chain))
    diag = validate_chain(chain)
    rows: list[Row] = [("valid", diag.ok)]
    for i, problem in enumerate(diag.problems):
        rows.append((f"problem[{i}]", problem))
    if not diag.ok:
        return 1, rows
    return _verdict(rows, "invariant", is_invariant_chain(chain)), rows


def _cmd_invariance_check(args: argparse.Namespace) -> Report:
    """is the measure shift-invariant (algebraic for chains, ball scan else)"""
    measure = _read_measure(args.measure)
    rows: list[Row] = []
    if isinstance(measure, MarkovTreeChain):
        rows.append(("method", "algebraic"))
        return _verdict(rows, "invariant", is_invariant_chain(measure)), rows
    rows += [("method", "ball"), ("radius", args.radius)]
    res = CheckResult(True)
    for sym in measure.gs.symbols():
        res = shift_invariance_check(measure, sym, args.radius)
        if not res.ok:
            res = CheckResult(False, f"generator {sym}: {res.witness}")
            break
    return _verdict(rows, "invariant", res), rows


def _cmd_eval(args: argparse.Namespace) -> Report:
    """exact mass of one cylinder pattern"""
    measure = _read_measure(args.measure)
    pattern = pattern_in(read_json(args.pattern), str(args.pattern))
    mass = measure.eval(pattern)
    return 0, [("sites", len(pattern)), ("mass", mass)]


def _cmd_extend(args: argparse.Namespace) -> Report:
    """extend an invariant chain to the full signed generator set"""
    chain = chain_in(read_json(args.chain), str(args.chain))
    extended = extend_chain(chain)
    res = is_invariant_chain(extended)
    rows: list[Row] = [
        ("sigma", ",".join(str(s.signed) for s in extended.gs.symbols())),
        ("symbols", len(extended.gs.sigma)),
        ("invariant", res.ok),
    ]
    return (0 if res.ok else 1), rows, measure_out(extended)


def _cmd_pushforward_check(args: argparse.Namespace) -> Report:
    """does the extended chain restrict back to the original"""
    extended = chain_in(read_json(args.extended), str(args.extended))
    original = chain_in(read_json(args.chain), str(args.chain))
    res = pushforward_check(extended, original, args.radius)
    rows: list[Row] = [("radius", args.radius)]
    return _verdict(rows, "agree", res), rows


def _cmd_markovize(args: argparse.Namespace) -> Report:
    """recode a measure as a Markov chain over order-m blocks"""
    measure = _read_measure(args.measure)
    result = markovize(measure, args.order)
    ok = result.diagnostics.ok and result.invariance.ok
    rows: list[Row] = [
        ("order", args.order),
        ("blocks", len(result.blocks.blocks)),
        ("valid", result.diagnostics.ok),
        ("invariant", result.invariance.ok),
    ]
    for i, problem in enumerate(result.diagnostics.problems):
        rows.append((f"problem[{i}]", problem))
    if not result.invariance.ok:
        rows.append(("witness", result.invariance.witness))
    blocks = block_alphabet_out(result.blocks, measure.gs.d)
    return (0 if ok else 1), rows, {**measure_out(result.chain), "blocks": blocks}


def _cmd_consistency(args: argparse.Namespace) -> Report:
    """does the markovization reproduce the measure on a ball pattern"""
    measure = _read_measure(args.measure)
    pattern = pattern_in(read_json(args.pattern), str(args.pattern))
    chain_mass, oracle_mass = consistency_masses(measure, args.order, pattern)
    consistent = chain_mass == oracle_mass
    rows: list[Row] = [
        ("order", args.order),
        ("oracle_mass", oracle_mass),
        ("chain_mass", chain_mass),
        ("consistent", consistent),
    ]
    return (0 if consistent else 1), rows


def _cmd_orbit_analyze(args: argparse.Namespace) -> Report:
    """periodicity, transitivity, orbit size, transformation monoid"""
    automaton = automaton_in(read_json(args.automaton), str(args.automaton))
    size, group = transformation_monoid(automaton)
    rows: list[Row] = [
        ("states", automaton.n_states()),
        ("states_minimized", automaton.minimal.n_states()),
        ("pre_periodic", True),
        ("periodic", is_periodic(automaton)),
        ("transitive", is_transitive(automaton)),
        ("orbit_size", orbit_size(automaton)),
        ("monoid_size", size),
        ("monoid_is_group", group),
    ]
    return 0, rows


def _scalar(text: str, where: str) -> Any:
    try:
        return _symbol_in(json.loads(text, parse_int=bounded_int))
    except json.JSONDecodeError:
        return text
    except (ParseError, RecursionError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def _cmd_thm_a_construct(args: argparse.Namespace) -> Report:
    """periodic point through a pattern, via a permutation morphism"""
    pattern = pattern_in(read_json(args.pattern), str(args.pattern))
    theta = morphism_in(read_json(args.morphism), str(args.morphism))
    gs = GeneratorSet.from_signed([s.signed for s in theta])
    if args.alphabet:
        alphabet = tuple(_scalar(x, "--alphabet") for x in args.alphabet.split(","))
    else:
        values = {c for _, c in pattern.items()}
        if not values:
            raise ValidationError("an empty pattern needs an explicit --alphabet")
        try:
            alphabet = tuple(sorted(values))
        except TypeError:
            alphabet = tuple(sorted(values, key=repr))
    fill = _scalar(args.fill, "--fill") if args.fill is not None else None
    automaton = theorem_a_point(pattern, theta, gs, alphabet, fill)
    matches = all(readout(automaton, w) == c for w, c in pattern.items())
    periodic = is_periodic(automaton)
    rows: list[Row] = [
        ("states", automaton.n_states()),
        ("periodic", periodic),
        ("readout_matches", matches),
    ]
    return (0 if matches and periodic else 1), rows, automaton_out(automaton)


def _cmd_find_morphism(args: argparse.Namespace) -> Report:
    """seeded search for a permutation morphism injective on a ball"""
    try:
        gs = GeneratorSet.from_signed([bounded_int(x) for x in args.sigma.split(",")])
    except (ValueError, ParseError) as exc:
        raise ParseError(f"--sigma: {exc}") from exc
    rows: list[Row] = [
        ("degree", args.degree),
        ("ball_size", ball_count(gs, args.radius)[0]),
    ]
    try:
        theta = find_separating_morphism(
            gs,
            args.radius,
            args.degree,
            seed=args.seed,
            budget=args.budget,
        )
    except BudgetExhausted as exc:
        rows.append(("found", False))
        rows.append(("reason", str(exc)))
        return 1, rows
    rows.append(("found", True))
    return 0, rows, morphism_out(theta)


def _cmd_lift(args: argparse.Namespace) -> Report:
    """lift a periodic automaton to a group orbit automaton"""
    automaton = automaton_in(read_json(args.automaton), str(args.automaton))
    lifted = lift_to_group(automaton)
    rows: list[Row] = [
        ("states", lifted.n_states()),
        ("sigma", ",".join(str(s.signed) for s in lifted.gs.symbols())),
        # lift_to_group refuses a non-periodic input and keeps its minimal form
        ("periodic", is_periodic(automaton)),
    ]
    return 0, rows, automaton_out(lifted)


def _cmd_distance(args: argparse.Namespace) -> Report:
    """total variation of two measures over full ball patterns"""
    first = _read_measure(args.first)
    second = _read_measure(args.second)
    value = weak_star_distance(first, second, args.radius)
    return 0, [("radius", args.radius), ("distance", value)]


def _load_matrices(source: str) -> list:
    from .counterexample import check_int_matrix

    if source.lstrip().startswith("["):
        try:
            data = json.loads(source, parse_int=bounded_int)
        except json.JSONDecodeError as exc:
            raise ParseError(f"--matrices: {exc.msg}") from exc
        except (ParseError, RecursionError) as exc:
            raise ParseError(f"--matrices: {exc}") from None
    else:
        data = read_json(Path(source))
    if not isinstance(data, list) or not data:
        raise ParseError("--matrices: expected a nonempty list of integer matrices")
    try:
        for m in data:
            check_int_matrix(m)
    except ValidationError as exc:
        raise ParseError(f"--matrices: {exc}") from None
    return data


def _cmd_counterexample(args: argparse.Namespace) -> Report:
    """non-extensible chain from linear maps and a kernel word"""
    # The Theorem-E family calls no traced name, so it loads on first use.
    from .counterexample import counterexample_analyze, counterexample_chain

    matrices = _load_matrices(args.matrices)
    word = parse_word(args.word)
    prime = args.prime
    report = counterexample_analyze(matrices, word, prime)
    compact = json.dumps(
        [list(row) for row in report.matrix_mod_p], separators=(",", ":")
    )
    rows: list[Row] = [
        ("word", word_to_string(word, len(matrices))),
        ("prime", prime),
        ("matrix_mod_p", compact),
        ("witness", json.dumps(list(report.witness), separators=(",", ":"))),
        ("witness_image", json.dumps(list(report.witness_image), separators=(",", ":"))),
        ("cycle_length", report.cycle_length),
        ("threshold", report.threshold),
        ("single_site_mass", report.single_site_mass),
        ("bound_coefficient", report.bound_coefficient),
    ]
    if args.delta is None:
        return 0, rows
    delta = parse_fraction(args.delta, "--delta")
    chain = counterexample_chain(matrices, prime, delta)
    violated = report.violated_by(delta)
    rows += [
        ("delta", delta),
        ("violates_bound", violated),
        ("chain_symbols", len(chain.alphabet)),
        ("chain_invariant", is_invariant_chain(chain).ok),
    ]
    return (0 if violated else 1), rows, measure_out(chain)


def _cmd_window_eval(args: argparse.Namespace) -> Report:
    """mass of a lattice-window pattern under an orthant oracle"""
    measure = _read_measure(args.measure, lattice=True)
    pattern = lattice_pattern_in(read_json(args.pattern), str(args.pattern))
    mass = window_measure(measure, pattern)
    return 0, [("sites", len(pattern)), ("mass", mass)]


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


_FILE = {"type": Path, "required": True}
_INT = {"type": int, "required": True}
_CHAIN = ("--chain", _FILE)
_MEASURE = ("--measure", _FILE)
_PATTERN = ("--pattern", _FILE)
_AUTOMATON = ("--automaton", _FILE)
_OUT = ("--out", {"type": Path})
_RADIUS = ("--radius", {"type": _non_negative_int, "default": 2})
_ORDER = ("--order", {"type": _non_negative_int, "required": True})

Handler = Callable[[argparse.Namespace], Report]

# subcommand -> (handler, argument specs); a handler's docstring is its help
COMMANDS: dict[str, tuple[Handler, tuple]] = {
    "validate-chain": (_cmd_validate_chain, (_CHAIN,)),
    "invariance-check": (_cmd_invariance_check, (_MEASURE, _RADIUS)),
    "eval": (_cmd_eval, (_MEASURE, _PATTERN)),
    "extend": (_cmd_extend, (_CHAIN, _OUT)),
    "pushforward-check": (_cmd_pushforward_check, (("--extended", _FILE), _CHAIN, _RADIUS)),
    "markovize": (_cmd_markovize, (_MEASURE, _ORDER, _OUT)),
    "consistency": (_cmd_consistency, (_MEASURE, _ORDER, _PATTERN)),
    "orbit-analyze": (_cmd_orbit_analyze, (_AUTOMATON,)),
    "thm-a-construct": (
        _cmd_thm_a_construct,
        (
            _PATTERN,
            ("--morphism", _FILE),
            ("--alphabet", {"help": "comma-separated symbols (default: from pattern)"}),
            ("--fill", {"help": "label for states off the pattern"}),
            _OUT,
        ),
    ),
    "find-morphism": (
        _cmd_find_morphism,
        (
            ("--sigma", {"required": True, "help": "signed generator indices, e.g. 1,2"}),
            ("--radius", {"type": _non_negative_int, "required": True}),
            ("--degree", _INT),
            ("--seed", _INT),
            ("--budget", {"type": _non_negative_int, "default": 10000}),
            _OUT,
        ),
    ),
    "lift": (_cmd_lift, (_AUTOMATON, _OUT)),
    "distance": (_cmd_distance, (("--first", _FILE), ("--second", _FILE), _RADIUS)),
    "counterexample": (
        _cmd_counterexample,
        (
            ("--matrices", {"required": True,
                            "help": "JSON list of integer matrices, inline or a file path"}),
            ("--word", {"required": True, "help": "kernel word, e.g. a1a2A1A2"}),
            ("--prime", _INT),
            ("--delta", {"help": "off-map probability, e.g. 1/100"}),
            _OUT,
        ),
    ),
    "window-eval": (_cmd_window_eval, (_MEASURE, _PATTERN)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.

    A one-command parser names every subcommand in its choices' metavar, so
    its usage and error lines read as the full parser's do.
    """
    parser = argparse.ArgumentParser(
        prog="semishift",
        description=(
            "Exact computations with invariant measures and periodic orbits "
            "of semigroup shift actions."
        ),
        epilog=(
            "exit codes: 0 success or property true; 1 property false "
            "(witness in the report); 2 input error"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        dest="fmt",
        choices=["text", "csv"],
        default="text",
        help="report format (default text)",
    )
    common.add_argument(
        "--human",
        action="store_true",
        help="append non-authoritative decimal approximations",
    )
    # The full parser keeps argparse's metavar: a metavar would also rename
    # a missing command in its error line.
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        handler, specs = COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=handler.__doc__)
        for flag, options in specs:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def execute(argv: Sequence[str] | None = None) -> tuple[int, str]:
    """Parse arguments and run one command; returns (exit code, report text).

    Python's int-to-text digit limit is lifted while the command runs and
    restored afterwards, so exact values of any size are read and printed.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # Help, a missing or an unknown command needs the full parser.
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            code, rows, *payload = args.handler(args)
            if payload and args.out is not None:
                write_json(args.out, payload[0])
                rows.append(("out", args.out))
        except (ParseError, ValidationError) as exc:
            code, rows = 2, [("error", f"{type(exc).__name__}: {exc}")]
        except SemishiftError as exc:
            code, rows = 1, [("error", f"{type(exc).__name__}: {exc}")]
        except OSError as exc:
            code, rows = 2, [("error", str(exc))]
        return code, _render(rows, args)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main(argv: Sequence[str] | None = None) -> int:
    code, text = execute(argv)
    if text:
        print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
