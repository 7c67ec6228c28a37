import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import swap_orbit, worked_chain
from semishift import (
    BernoulliMeasure,
    GeneratorSet,
    LatticePattern,
    Pattern,
    Symbol,
    parse_word,
    theorem_a_point,
    window_measure,
)
from semishift import algebra, cli
from semishift.cli import execute, main
from semishift.serialize import (
    automaton_in,
    automaton_out,
    chain_in,
    chain_out,
    measure_in,
    measure_out,
    pattern_out,
    read_json,
    write_json,
)

F = Fraction
GS2 = GeneratorSet.from_signed((1, 2))
SRC = Path(__file__).resolve().parents[1] / "src"

MATRICES = "[[[1,2],[0,1]],[[1,0],[2,1]]]"


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    write_json(path, measure_out(worked_chain(2)))
    return path


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "swap.json"
    write_json(
        path,
        {
            "kind": "periodic",
            "orbits": [automaton_out(swap_orbit())],
            "weights": ["1/1"],
        },
    )
    return path


def pattern_file(tmp_path, assignment, name="pat.json"):
    path = tmp_path / name
    pat = {"entries": [[k, v] for k, v in assignment.items()]}
    write_json(path, pat)
    return path


def test_validate_chain_example(chain_file):
    code, text = execute(["validate-chain", "--chain", str(chain_file)])
    assert code == 0
    assert "valid: true" in text
    assert "invariant: true" in text


def test_validate_chain_reports_problems(tmp_path):
    bad = measure_out(worked_chain(2))
    bad["p"] = ["1/2", "1/3"]
    path = tmp_path / "bad.json"
    write_json(path, bad)
    code, text = execute(["validate-chain", "--chain", str(path)])
    assert code == 1
    assert "valid: false" in text
    assert "problem" in text


def test_validate_chain_noninvariant_exits_one(tmp_path):
    flat = [["1/2", "1/2"], ["1/2", "1/2"]]
    data = {
        "kind": "chain", "d": 2, "sigma": [1, 2], "alphabet": [0, 1],
        "p": ["1/4", "3/4"], "P": {"1": flat, "2": flat},
    }
    path = tmp_path / "skew.json"
    write_json(path, data)
    code, text = execute(["validate-chain", "--chain", str(path)])
    assert code == 1
    assert "valid: true" in text
    assert "invariant: false" in text
    assert "witness" in text


def test_counterexample_example_no_delta():
    code, text = execute(
        ["counterexample", "--matrices", MATRICES, "--word", "a1a2A1A2",
         "--prime", "5"]
    )
    assert code == 0
    assert "threshold: 1/15625" in text
    assert "matrix_mod_p: [[1,2],[3,2]]" in text
    assert "witness: [1,0]" in text
    assert "witness_image: [1,3]" in text
    assert "cycle_length: 4" in text


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
def test_a_matrices_file_is_read_as_utf8(tmp_path, encoding):
    path = tmp_path / "matrices.json"
    path.write_bytes(MATRICES.encode(encoding))
    code, text = execute(
        ["counterexample", "--matrices", str(path), "--word", "a1a2A1A2", "--prime", "5"]
    )
    if encoding == "utf-8":
        assert code == 0 and "cycle_length: 4" in text
    else:
        assert (code, text) == (
            2, f"error: ParseError: {path}: not valid UTF-8 at byte 0: invalid start byte"
        )


def test_counterexample_with_a_large_prime():
    code, text = execute(
        ["counterexample", "--matrices", MATRICES, "--word", "a1a2A1A2",
         "--prime", str(2**61 - 1)]
    )
    assert code == 0
    assert f"prime: {2**61 - 1}" in text


def test_counterexample_witness_at_a_ten_digit_prime_is_found_at_once():
    # The product fixes (1, 0), so the witness is (0, 1): no scan over Z_p.
    start = time.process_time()
    code, text = execute(
        ["counterexample", "--matrices", "[[[1,1],[0,1]]]", "--word", "a1",
         "--prime", "1000000007"]
    )
    assert time.process_time() - start < 1.0
    assert code == 0
    assert "witness: [0,1]\nwitness_image: [1,1]" in text


def test_counterexample_prime_past_the_decided_bound_exits_two():
    code, text = execute(
        ["counterexample", "--matrices", MATRICES, "--word", "a1a2A1A2",
         "--prime", "3317044064679887385961981"]
    )
    assert code == 2
    assert "decided only below 3317044064679887385961981" in text


def test_counterexample_with_delta(tmp_path):
    out = tmp_path / "cx.json"
    code, text = execute(
        ["counterexample", "--matrices", MATRICES, "--word", "a1a2A1A2",
         "--prime", "5", "--delta", "1/100000", "--out", str(out)]
    )
    assert code == 0
    assert "violates_bound: true" in text
    assert "chain_invariant: true" in text
    chain = chain_in(read_json(out))
    assert len(chain.alphabet) == 25

    code, text = execute(
        ["counterexample", "--matrices", MATRICES, "--word", "a1a2A1A2",
         "--prime", "5", "--delta", "1/100"]
    )
    assert code == 1
    assert "violates_bound: false" in text


def test_eval_membership_error_exits_two(chain_file, tmp_path):
    pat = pattern_file(tmp_path, {"A1": 0})
    code, text = execute(
        ["eval", "--measure", str(chain_file), "--pattern", str(pat)]
    )
    assert code == 2
    assert "MembershipError" in text


def test_eval_unknown_symbol_exits_two(swap_file, tmp_path):
    pat = pattern_file(tmp_path, {"": 9})
    code, text = execute(["eval", "--measure", str(swap_file), "--pattern", str(pat)])
    assert code == 2
    assert text == "error: ValidationError: symbol 9 is not in the alphabet"


def test_eval_reports_exact_mass(chain_file, tmp_path):
    pat = pattern_file(tmp_path, {"": 0, "a2": 1, "a1a2": 1})
    code, text = execute(
        ["eval", "--measure", str(chain_file), "--pattern", str(pat)]
    )
    assert code == 0
    assert "mass: 1/8" in text


def test_eval_human_column(chain_file, tmp_path):
    pat = pattern_file(tmp_path, {"": 0})
    code, text = execute(
        ["eval", "--measure", str(chain_file), "--pattern", str(pat), "--human"]
    )
    assert code == 0
    assert "mass: 1/3 (~ 0.333333)" in text


def test_csv_format(chain_file, tmp_path):
    pat = pattern_file(tmp_path, {"": 0})
    code, text = execute(
        ["eval", "--measure", str(chain_file), "--pattern", str(pat),
         "--format", "csv"]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "key,value"
    assert "mass,1/3" in lines


def test_report_determinism(chain_file, tmp_path):
    pat = pattern_file(tmp_path, {"": 1, "a1": 0})
    argv = ["eval", "--measure", str(chain_file), "--pattern", str(pat)]
    assert execute(argv) == execute(argv)


def test_invariance_check_chain(chain_file):
    code, text = execute(["invariance-check", "--measure", str(chain_file)])
    assert code == 0
    assert "invariant: true" in text


def test_invariance_check_periodic(swap_file):
    code, text = execute(
        ["invariance-check", "--measure", str(swap_file), "--radius", "1"]
    )
    assert code == 0
    assert "invariant: true" in text


def test_extend_and_pushforward(tmp_path, chain_file):
    out = tmp_path / "ext.json"
    code, text = execute(["extend", "--chain", str(chain_file), "--out", str(out)])
    assert code == 0
    assert "invariant: true" in text
    extended = chain_in(read_json(out))
    assert len(extended.gs.sigma) == 4

    code, text = execute(
        ["pushforward-check", "--extended", str(out),
         "--chain", str(chain_file), "--radius", "2"]
    )
    assert code == 0
    assert "agree: true" in text


def test_extend_noninvariant_exits_two(tmp_path):
    flat = [["1/2", "1/2"], ["1/2", "1/2"]]
    data = {
        "kind": "chain", "d": 2, "sigma": [1, 2], "alphabet": [0, 1],
        "p": ["1/4", "3/4"], "P": {"1": flat, "2": flat},
    }
    path = tmp_path / "skew.json"
    write_json(path, data)
    code, text = execute(["extend", "--chain", str(path)])
    assert code == 1
    assert "NotInvariant" in text


def test_markovize_and_consistency(tmp_path, swap_file):
    out = tmp_path / "blocks.json"
    code, text = execute(
        ["markovize", "--measure", str(swap_file), "--order", "1",
         "--out", str(out)]
    )
    assert code == 0
    assert "blocks: 2" in text
    assert "valid: true" in text
    assert "invariant: true" in text
    block_chain = measure_in(read_json(out))
    assert sorted(block_chain.alphabet) == ["B0", "B1"]
    assert read_json(out)["blocks"]

    pat = pattern_file(tmp_path, {"": 0, "a1": 1})
    code, text = execute(
        ["consistency", "--measure", str(swap_file), "--order", "1",
         "--pattern", str(pat)]
    )
    assert code == 0
    assert "consistent: true" in text
    assert "oracle_mass: 1/2" in text
    assert "chain_mass: 1/2" in text


def test_orbit_analyze(tmp_path, swap_file):
    auto = tmp_path / "auto.json"
    write_json(auto, automaton_out(swap_orbit()))
    code, text = execute(["orbit-analyze", "--automaton", str(auto)])
    assert code == 0
    assert "periodic: true" in text
    assert "transitive: true" in text
    assert "orbit_size: 2" in text
    assert "monoid_size: 2" in text
    assert "monoid_is_group: true" in text


def test_thm_a_construct_and_lift(tmp_path):
    pat = pattern_file(tmp_path, {"": 0, "a1": 1, "a2": 1})
    morphism = tmp_path / "theta.json"
    write_json(morphism, {"k": 2, "theta": {"1": [1, 0], "2": [1, 0]}})
    out = tmp_path / "point.json"
    code, text = execute(
        ["thm-a-construct", "--pattern", str(pat), "--morphism", str(morphism),
         "--alphabet", "0,1", "--out", str(out)]
    )
    assert code == 0
    assert "periodic: true" in text
    assert "readout_matches: true" in text

    lifted = tmp_path / "lifted.json"
    code, text = execute(["lift", "--automaton", str(out), "--out", str(lifted)])
    assert code == 0
    assert "periodic: true" in text
    data = read_json(lifted)
    assert sorted(data["sigma"]) == [-2, -1, 1, 2]


def thm_a_construct(tmp_path, *options):
    pat = pattern_file(tmp_path, {"": 0})
    morphism = tmp_path / "theta.json"
    write_json(morphism, {"k": 3, "theta": {"1": [1, 2, 0], "2": [1, 2, 0]}})
    return execute(
        ["thm-a-construct", "--pattern", str(pat), "--morphism", str(morphism), *options]
    )


@pytest.mark.parametrize(
    "options, message",
    [
        (["--alphabet", '0,1,{"x":1}'], 'ParseError: --alphabet: a JSON object cannot be a symbol'),
        (["--alphabet", "0,1", "--fill", '{"x":1}'], "ParseError: --fill: a JSON object"),
        (["--alphabet", "0,0,1"], "ValidationError: alphabet must be nonempty without repeats"),
    ],
    ids=["object-alphabet", "object-fill", "repeated"],
)
def test_thm_a_construct_refuses_bad_symbols(tmp_path, options, message):
    out = tmp_path / "point.json"
    code, text = thm_a_construct(tmp_path, *options, "--out", str(out))
    assert code == 2
    assert text.startswith(f"error: {message}")
    assert not out.exists()


def test_thm_a_construct_list_symbol_round_trips(tmp_path):
    out = tmp_path / "point.json"
    code, text = thm_a_construct(
        tmp_path, "--alphabet", "0,1,[[2]]", "--fill", "[[2]]", "--out", str(out)
    )
    assert code == 0
    assert "periodic: true" in text
    automaton = automaton_in(read_json(out))
    assert automaton.alphabet == (0, 1, ((2,),))
    assert automaton.labels == (0, ((2,),), ((2,),))
    code, text = execute(["orbit-analyze", "--automaton", str(out)])
    assert code == 0
    assert "orbit_size: 3" in text


def test_lift_nonperiodic_exits_one(tmp_path):
    from helpers import two_point_orbit
    auto = tmp_path / "auto.json"
    write_json(auto, automaton_out(two_point_orbit()))
    code, text = execute(["lift", "--automaton", str(auto)])
    assert code == 1
    assert "NotPeriodic" in text


def test_find_morphism_deterministic(tmp_path):
    out = tmp_path / "m.json"
    argv = ["find-morphism", "--sigma", "1,2", "--radius", "1", "--degree", "4",
            "--seed", "9", "--out", str(out)]
    code1, text1 = execute(argv)
    first_bytes = out.read_bytes()
    code2, text2 = execute(argv)
    assert code1 == code2 == 0
    assert "found: true" in text1
    assert text1 == text2
    assert out.read_bytes() == first_bytes


def test_find_morphism_budget_exhausted():
    code, text = execute(
        ["find-morphism", "--sigma", "1,2", "--radius", "2", "--degree", "2",
         "--seed", "1", "--budget", "10"]
    )
    assert code == 1
    assert "found: false" in text


def test_find_morphism_zero_generator_exits_two():
    code, text = execute(
        ["find-morphism", "--sigma", "1,0", "--radius", "1", "--degree", "4",
         "--seed", "9"]
    )
    assert code == 2
    assert text == "error: ParseError: --sigma: signed generator value must be nonzero"


def test_find_morphism_requires_seed():
    with pytest.raises(SystemExit) as exc:
        execute(["find-morphism", "--sigma", "1,2", "--radius", "1",
                 "--degree", "4"])
    assert exc.value.code == 2


def test_distance(tmp_path, chain_file, swap_file):
    fair = tmp_path / "fair.json"
    write_json(
        fair,
        {"kind": "bernoulli", "d": 2, "sigma": [1, 2], "alphabet": [0, 1],
         "probs": ["1/2", "1/2"]},
    )
    code, text = execute(
        ["distance", "--first", str(fair), "--second", str(swap_file),
         "--radius", "1"]
    )
    assert code == 0
    assert "distance: 3/2" in text


def test_ball_scans_run_at_radius_nine(tmp_path):
    # a one-symbol chain has one pattern per ball, but a 1023-vertex hull
    chain = tmp_path / "one.json"
    write_json(
        chain,
        {"kind": "chain", "d": 2, "sigma": [1, 2], "alphabet": [0], "p": ["1"],
         "P": {"1": [["1"]], "2": [["1"]]}},
    )
    extended = tmp_path / "ext.json"
    assert execute(["extend", "--chain", str(chain), "--out", str(extended)])[0] == 0
    code, text = execute(
        ["distance", "--first", str(chain), "--second", str(chain), "--radius", "9"]
    )
    assert (code, "distance: 0/1" in text) == (0, True)
    code, text = execute(
        ["pushforward-check", "--extended", str(extended), "--chain", str(chain),
         "--radius", "9"]
    )
    assert (code, "agree: true" in text) == (0, True)


def test_window_eval(tmp_path):
    measure = tmp_path / "lattice.json"
    write_json(
        measure,
        {"kind": "lattice-markov", "alphabet": [0, 1],
         "p": ["1/3", "2/3"],
         "P": [["1/2", "1/2"], ["1/4", "3/4"]]},
    )
    pat = tmp_path / "win.json"
    write_json(pat, {"entries": [[[-1], 0], [[0], 1]]})
    code, text = execute(
        ["window-eval", "--measure", str(measure), "--pattern", str(pat)]
    )
    assert code == 0
    assert "mass: 1/6" in text


def test_window_eval_rejects_tree_measure(chain_file, tmp_path):
    pat = tmp_path / "win.json"
    write_json(pat, {"entries": [[[0], 0]]})
    code, text = execute(
        ["window-eval", "--measure", str(chain_file), "--pattern", str(pat)]
    )
    assert code == 2


def test_missing_file_exits_two(tmp_path):
    code, text = execute(
        ["validate-chain", "--chain", str(tmp_path / "missing.json")]
    )
    assert code == 2
    assert "error" in text


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, text = execute(["validate-chain", "--chain", str(path)])
    assert code == 2


def test_main_prints_report(capsys, chain_file):
    code = main(["validate-chain", "--chain", str(chain_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "invariant: true" in out


def run_main(argv) -> object:
    """main's exit code, or the one argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["bogus"],
        ["eval"],
        ["eval", "-h"],
        ["eva", "--measure", "x"],
        ["--format", "csv", "eval", "--measure", "{chain}", "--pattern", "{pattern}"],
        ["eval", "--format", "csv", "--human", "--measure", "{chain}", "--pattern", "{pattern}"],
        ["validate-chain", "--chain", "{chain}", "extra"],
        ["invariance-check", "--measure", "{chain}", "--radius", "-1"],
        ["validate-chain", "--chain", "{chain}"],
    ],
)
def test_one_subparser_reads_and_refuses_as_the_full_parser(argv, chain_file, tmp_path, capsys,
                                                            monkeypatch):
    """``execute`` builds only the named command's subparser; every exit code,
    report, usage and error line must be the full parser's."""
    pattern = pattern_file(tmp_path, {"": 0, "a1": 1})
    argv = [a.format(chain=chain_file, pattern=pattern) for a in argv]
    seen = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: seen.append(command) or real(command))
    one = run_main(argv), *capsys.readouterr()
    monkeypatch.setattr(cli, "build_parser", lambda command=None: real())
    full = run_main(argv), *capsys.readouterr()
    assert one == full
    assert seen == [argv[0] if argv and argv[0] in cli.COMMANDS else None]


@pytest.mark.parametrize(
    "argv",
    [
        ["invariance-check", "--measure", "{chain}", "--radius", "-1"],
        ["distance", "--first", "{chain}", "--second", "{chain}", "--radius", "-1"],
        ["pushforward-check", "--extended", "{chain}", "--chain", "{chain}",
         "--radius", "-1"],
        ["find-morphism", "--sigma", "1,2", "--radius", "-1", "--degree", "4",
         "--seed", "9"],
        ["find-morphism", "--sigma", "1,2", "--radius", "1", "--degree", "4",
         "--seed", "9", "--budget", "-1"],
        ["markovize", "--measure", "{chain}", "--order", "-1"],
        ["consistency", "--measure", "{chain}", "--order", "-1", "--pattern", "{chain}"],
    ],
)
def test_negative_count_argument_exits_two(argv, chain_file):
    with pytest.raises(SystemExit) as exc:
        execute([a.format(chain=chain_file) for a in argv])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, role, data",
    [
        ("validate-chain", "--chain", {**measure_out(worked_chain(2)), "P": "oops"}),
        ("orbit-analyze", "--automaton",
         {**automaton_out(swap_orbit()), "delta": {"1": [[1], 0], "2": [1, 0]}}),
        ("thm-a-construct", "--morphism", {"k": 2, "theta": {"1": [[1], 0], "2": [1, 0]}}),
    ],
)
def test_malformed_shape_exits_two(tmp_path, command, role, data):
    path = tmp_path / "input.json"
    write_json(path, data)
    argv = [command, role, str(path)]
    if command == "thm-a-construct":
        argv += ["--pattern", str(pattern_file(tmp_path, {"": 0}))]
    code, text = execute(argv)
    assert code == 2
    assert text.startswith("error: ParseError: ")


LATTICE_CHAIN = {
    "kind": "lattice-markov", "alphabet": [0, 1],
    "p": ["1/3", "2/3"], "P": [["1/2", "1/2"], ["1/4", "3/4"]],
}


def test_window_eval_far_apart_sites(tmp_path):
    measure = tmp_path / "lattice.json"
    write_json(measure, LATTICE_CHAIN)
    pat = tmp_path / "win.json"
    write_json(pat, {"entries": [[[0], 0], [[3000], 1]]})
    code, text = execute(
        ["window-eval", "--measure", str(measure), "--pattern", str(pat)]
    )
    assert code == 0
    # P has eigenvalues 1 and 1/4, so P^n[0][1] = p[1] (1 - 4^-n).
    mass = F(1, 3) * F(2, 3) * (1 - F(1, 4**3000))
    assert f"mass: {mass.numerator}/{mass.denominator}" in text.splitlines()


def _int_digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def test_window_eval_prints_a_mass_past_the_int_digit_limit(tmp_path, capsys):
    measure = tmp_path / "lattice.json"
    write_json(measure, LATTICE_CHAIN)
    pat = tmp_path / "win.json"
    write_json(pat, {"entries": [[[0], 0], [[8000], 1]]})
    argv = ["window-eval", "--measure", str(measure), "--pattern", str(pat)]
    limit = _int_digit_limit()
    assert main(argv) == 0
    assert _int_digit_limit() == limit  # the CLI restores the interpreter's limit
    lines = capsys.readouterr().out.splitlines()
    mass = window_measure(
        measure_in(read_json(measure)), LatticePattern.of({(0,): 0, (8000,): 1})
    )
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert len(str(mass.numerator)) > 4300
        assert lines == ["sites: 2", f"mass: {mass.numerator}/{mass.denominator}"]
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert main(argv + ["--human"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(f" (~ {float(mass):.6f})")


def test_extend_reads_and_writes_rationals_past_the_int_digit_limit(tmp_path):
    # an identity chain is invariant for any p; N has 5001 digits
    big = "1" + "0" * 5000
    chain = {
        "kind": "chain", "d": 1, "sigma": [1], "alphabet": [0, 1],
        "p": [f"1/{big}", f"{'9' * 5000}/{big}"], "P": {"1": [["1", "0"], ["0", "1"]]},
    }
    write_json(tmp_path / "chain.json", chain)
    out = tmp_path / "ext.json"
    code, text = execute(["extend", "--chain", str(tmp_path / "chain.json"), "--out", str(out)])
    assert code == 0, text
    assert read_json(out)["p"] == chain["p"]
    code, text = execute(
        ["eval", "--measure", str(out), "--pattern", str(pattern_file(tmp_path, {"": 0}))]
    )
    assert (code, text) == (0, f"sites: 1\nmass: 1/{big}")


def test_a_20000_digit_rational_exits_two_at_once(tmp_path):
    big = "1" + "0" * 19999
    chain = {
        "kind": "chain", "d": 1, "sigma": [1], "alphabet": [0, 1],
        "p": [f"1/{big}", f"{'9' * 19999}/{big}"], "P": {"1": [["1", "0"], ["0", "1"]]},
    }
    write_json(tmp_path / "chain.json", chain)
    argv = ["eval", "--measure", str(tmp_path / "chain.json"),
            "--pattern", str(pattern_file(tmp_path, {"": 0}))]
    start = time.process_time()
    code, text = execute(argv)
    assert time.process_time() - start < 1.0
    assert code == 2
    assert text.startswith("error: ParseError: ") and "20002 characters" in text
    assert len(text) < 200


def test_a_400000_digit_json_integer_exits_two_at_once(tmp_path):
    # int() reads a literal in time quadratic in its digits, and the CLI
    # lifts Python's digit limit: an unused key must not be read at all.
    measure = tmp_path / "bern.json"
    head = json.dumps(measure_out(BernoulliMeasure(GS2, (0, 1), (F(1, 2), F(1, 2)))))
    measure.write_text(head[:-1] + ', "note": ' + "7" * 400_000 + "}")
    argv = ["eval", "--measure", str(measure),
            "--pattern", str(pattern_file(tmp_path, {"": 0}))]
    start = time.process_time()
    code, text = execute(argv)
    assert time.process_time() - start < 0.5
    assert (code, text) == (
        2, f"error: ParseError: {measure}: integer of 400000 characters is longer than 16000"
    )


BIG = "9" * 400_000
LONG = f"integer of {len(BIG)} characters is longer than 16000"


def over_long_integer_argv(path, tmp_path):
    """A command whose input holds the 400000-digit integer BIG at ``path``."""
    files = {
        "P": {"kind": "chain", "d": 1, "sigma": [1], "alphabet": [0], "p": ["1"],
              "P": {BIG: [["1"]]}},
        "delta": {"d": 1, "sigma": [1], "alphabet": [0], "labels": [0], "base": 0,
                  "delta": {BIG: [0]}},
        "theta": {"k": 1, "theta": {BIG: [0]}},
        "morphism": {"k": 1, "theta": {"1": [0]}},
        "bernoulli": measure_out(BernoulliMeasure(GS2, (0, 1), (F(1, 2), F(1, 2)))),
    }
    for name, data in files.items():
        write_json(tmp_path / f"{name}.json", data)
    pattern = str(pattern_file(tmp_path, {"a1": 0}))
    long_site = str(pattern_file(tmp_path, {f"a1.a{BIG}": 0}, "long.json"))
    thm_a = ["thm-a-construct", "--pattern", pattern, "--morphism", str(tmp_path / "morphism.json")]
    return {
        "P": ["eval", "--measure", str(tmp_path / "P.json"), "--pattern", pattern],
        "delta": ["orbit-analyze", "--automaton", str(tmp_path / "delta.json")],
        "theta": ["thm-a-construct", "--pattern", pattern, "--morphism",
                  str(tmp_path / "theta.json")],
        "word": ["eval", "--measure", str(tmp_path / "bernoulli.json"), "--pattern", long_site],
        "--sigma": ["find-morphism", "--sigma", f"1,{BIG}", "--radius", "1",
                    "--degree", "3", "--seed", "1"],
        "--matrices": ["counterexample", "--matrices", f"[[[1,1],[0,1]],{BIG}]",
                       "--word", "a1", "--prime", "5"],
        "--alphabet": [*thm_a, "--alphabet", f"0,{BIG}"],
        "--fill": [*thm_a, "--alphabet", "0,1", "--fill", BIG],
    }[path]


@pytest.mark.parametrize(
    "path", ["P", "delta", "theta", "word", "--sigma", "--matrices", "--alphabet", "--fill"]
)
def test_an_over_long_integer_exits_two_before_it_is_read(path, tmp_path):
    """Generator keys, letter indices and integers typed on the command line
    are held to the rational bound before int() reads them."""
    argv = over_long_integer_argv(path, tmp_path)
    start = time.process_time()
    code, text = execute(argv)
    assert time.process_time() - start < 0.5
    assert code == 2
    assert text.startswith("error: ParseError: ") and text.endswith(LONG)
    if path.startswith("--"):
        assert text == f"error: ParseError: {path}: {LONG}"


def test_a_long_word_is_quoted_in_part():
    code, text = execute(
        ["counterexample", "--matrices", "[[[1,1],[0,1]]]", "--word", "a" + "1" * 400_000,
         "--prime", "5"]
    )
    assert (code, text) == (
        2, f"error: ParseError: cannot tokenize word 'a{'1' * 63}'... (400001 characters)"
    )


def test_a_long_malformed_rational_is_quoted_in_part(tmp_path):
    measure = tmp_path / "bern.json"
    probs = ["0." + "5" * 15_000, "1/2"]
    write_json(measure, {"kind": "bernoulli", "d": 2, "sigma": [1, 2],
                         "alphabet": [0, 1], "probs": probs})
    argv = ["eval", "--measure", str(measure),
            "--pattern", str(pattern_file(tmp_path, {"": 0}))]
    code, text = execute(argv)
    assert code == 2
    assert text == (
        f"error: ParseError: {measure}: probs: cannot read rational "
        f"'0.{'5' * 62}'... (15002 characters)"
    )


def test_window_eval_unknown_symbol_exits_two(tmp_path):
    measure = tmp_path / "lattice.json"
    write_json(measure, LATTICE_CHAIN)
    pat = tmp_path / "win.json"
    write_json(pat, {"entries": [[[0], 0], [[2], 7]]})
    code, text = execute(
        ["window-eval", "--measure", str(measure), "--pattern", str(pat)]
    )
    assert code == 2
    assert text.startswith("error: ValidationError: symbol 7")


@pytest.mark.parametrize(
    "matrices",
    ["[[[1]]]", "[[1,2],[0,1]]", "[[[1,2],[0,1],[1,1]]]", "[[[1,2],[0,true]]]"],
)
def test_counterexample_bad_matrix_shape_exits_two(matrices):
    code, text = execute(
        ["counterexample", "--matrices", matrices, "--word", "a1", "--prime", "5"]
    )
    assert code == 2
    assert text.startswith("error: ParseError: --matrices: ")


@pytest.mark.parametrize(
    "command, role, data",
    [
        ("orbit-analyze", "--automaton",
         {**automaton_out(swap_orbit()), "delta": {"1": [1.7, 0.2], "2": [1, 0]}}),
        ("orbit-analyze", "--automaton", {**automaton_out(swap_orbit()), "base": 0.0}),
        ("orbit-analyze", "--automaton", {**automaton_out(swap_orbit()), "base": False}),
        ("thm-a-construct", "--morphism", {"k": 2, "theta": {"1": [1.0, 0], "2": [1, 0]}}),
        ("thm-a-construct", "--morphism", {"k": 2, "theta": {"1": [True, 0], "2": [1, 0]}}),
    ],
)
def test_non_integer_entry_exits_two(tmp_path, command, role, data):
    path = tmp_path / "input.json"
    write_json(path, data)
    argv = [command, role, str(path)]
    if command == "thm-a-construct":
        argv += ["--pattern", str(pattern_file(tmp_path, {"": 0}))]
    code, text = execute(argv)
    assert code == 2
    assert text.startswith(f"error: ParseError: {path}: ")
    assert "is not an integer" in text


OBJECT = {"a": 1}
BERNOULLI = {"kind": "bernoulli", "d": 2, "sigma": [1, 2], "alphabet": [0, 1],
             "probs": ["1/2", "1/2"]}
LATTICE_BERNOULLI = {"kind": "lattice-bernoulli", "d": 1, "alphabet": [0, 1],
                     "probs": ["1/2", "1/2"]}


@pytest.mark.parametrize(
    "command, measure, pattern",
    [
        ("eval", measure_out(worked_chain(2)), {"entries": [["", OBJECT]]}),
        ("eval", BERNOULLI, {"entries": [["", OBJECT]]}),
        ("eval", {"kind": "mixture", "components": [BERNOULLI], "weights": ["1/1"]},
         {"entries": [["", OBJECT]]}),
        ("window-eval", LATTICE_BERNOULLI, {"entries": [[[0], OBJECT]]}),
        ("window-eval", LATTICE_CHAIN, {"entries": [[[0], OBJECT]]}),
        ("window-eval", {**LATTICE_BERNOULLI, "alphabet": [0, OBJECT]},
         {"entries": [[[0], 0]]}),
        ("invariance-check", {**BERNOULLI, "alphabet": [0, OBJECT]}, None),
        ("thm-a-construct", None, {"entries": [["", OBJECT]]}),
    ],
    ids=["chain", "bernoulli", "mixture", "lattice-bernoulli", "lattice-markov",
         "lattice-alphabet", "alphabet", "thm-a-construct"],
)
def test_json_object_symbol_exits_two(tmp_path, command, measure, pattern):
    argv = [command]
    if measure is not None:
        write_json(tmp_path / "measure.json", measure)
        argv += ["--measure", str(tmp_path / "measure.json")]
    if pattern is not None:
        write_json(tmp_path / "pattern.json", pattern)
        argv += ["--pattern", str(tmp_path / "pattern.json")]
    if command == "thm-a-construct":
        write_json(tmp_path / "theta.json", {"k": 2, "theta": {"1": [1, 0], "2": [1, 0]}})
        argv += ["--morphism", str(tmp_path / "theta.json")]
    code, text = execute(argv)
    assert code == 2
    assert text.startswith("error: ParseError: ")
    assert 'a JSON object cannot be a symbol: {"a": 1}' in text


LONG_SYMBOL = "x" * 100_000


@pytest.mark.parametrize(
    "command, measure, pattern",
    [
        ("eval", measure_out(worked_chain(2)), {"entries": [["", LONG_SYMBOL]]}),
        ("eval", BERNOULLI, {"entries": [["", LONG_SYMBOL]]}),
        ("eval", {"kind": "mixture", "components": [BERNOULLI], "weights": ["1/1"]},
         {"entries": [["", LONG_SYMBOL]]}),
        ("window-eval", LATTICE_BERNOULLI, {"entries": [[[0], LONG_SYMBOL]]}),
        ("window-eval", LATTICE_CHAIN, {"entries": [[[0], LONG_SYMBOL]]}),
        ("thm-a-construct", None, {"entries": [["", 0]]}),
    ],
    ids=["chain", "bernoulli", "mixture", "lattice-bernoulli", "lattice-markov", "fill"],
)
def test_a_long_symbol_is_quoted_in_part(tmp_path, command, measure, pattern):
    argv = [command]
    if measure is not None:
        write_json(tmp_path / "measure.json", measure)
        argv += ["--measure", str(tmp_path / "measure.json")]
    write_json(tmp_path / "pattern.json", pattern)
    argv += ["--pattern", str(tmp_path / "pattern.json")]
    if command == "thm-a-construct":
        write_json(tmp_path / "theta.json", {"k": 2, "theta": {"1": [1, 0], "2": [1, 0]}})
        argv += ["--morphism", str(tmp_path / "theta.json"), "--alphabet", "0,1", "--fill", LONG_SYMBOL]
    code, text = execute(argv)
    assert code == 2
    assert text.startswith("error: ValidationError: ")
    assert f"'{'x' * 64}'... (100000 characters) is not in the" in text
    assert max(map(len, text.splitlines())) < 200


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_cli(*argv):
    """One ``semishift`` process with a short timeout and 1 GiB of address
    space: a scan that starts its work runs far past both."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "semishift", *argv],
        env=env, capture_output=True, text=True, timeout=20, preexec_fn=limit_memory,
    )


def test_a_scan_past_the_pattern_budget_exits_two_before_it_starts(tmp_path):
    bern = tmp_path / "bern.json"
    write_json(bern, BERNOULLI)
    chain = tmp_path / "chain.json"
    write_json(chain, measure_out(worked_chain(2)))
    extended = tmp_path / "ext.json"
    assert execute(["extend", "--chain", str(chain), "--out", str(extended)])[0] == 0
    pattern = pattern_file(tmp_path, {"": 0})
    # |B_4| = 31 over Sigma = {a1, a2}: 2^31 patterns, past MAX_PATTERNS = 2^22.
    refused = "a scan of the radius-{r} ball is refused: its first 31 sites give 2^31 full patterns"
    for r in (4, 5, 6):
        out = run_cli("invariance-check", "--measure", str(bern), "--radius", str(r))
        assert (out.returncode, out.stdout) == (
            2, f"error: ValidationError: {refused.format(r=r)}, more than 4194304\n"
        )
    for argv in (
        ["distance", "--first", str(bern), "--second", str(chain), "--radius", "4"],
        ["pushforward-check", "--extended", str(extended), "--chain", str(chain), "--radius", "4"],
        ["markovize", "--measure", str(bern), "--order", "4"],
        ["consistency", "--measure", str(bern), "--order", "4", "--pattern", str(pattern)],
    ):
        out = run_cli(*argv)
        assert out.returncode == 2, out
        assert out.stdout.startswith(f"error: ValidationError: {refused.format(r=4)}")
    out = run_cli("counterexample", "--matrices", "[[[1,1],[0,1]]]", "--word", "a1",
                  "--prime", "47", "--delta", "1/10000000")
    assert (out.returncode, out.stdout) == (
        2, "error: ValidationError: p = 47 gives p^4 = 4879681 matrix entries per generator, "
        "more than 4194304\n"
    )


def test_work_the_pattern_budget_does_not_see_exits_two(tmp_path):
    bern = tmp_path / "bern.json"
    write_json(bern, BERNOULLI)
    pattern = pattern_file(tmp_path, {"": 0})
    # |B_3| = 15 over Sigma = {a1, a2}: 2^15 blocks give 2^31 block pairs.
    refused = ("error: ValidationError: markovize at order 3 is refused: 32768 blocks "
               "give 2147483648 block pairs over 2 generators, more than 4194304\n")
    for argv in (
        ["markovize", "--measure", str(bern), "--order", "3"],
        ["consistency", "--measure", str(bern), "--order", "3", "--pattern", str(pattern)],
    ):
        out = run_cli(*argv)
        assert (out.returncode, out.stdout) == (2, refused)
    search = ["find-morphism", "--sigma", "1,2", "--seed", "1"]
    out = run_cli(*search, "--radius", "1", "--degree", str(10**20))
    assert (out.returncode, out.stdout) == (
        2, f"error: ValidationError: degree k must be between 1 and 4194304, got {10**20}\n"
    )
    # A degree at the bound is searched without forming its factorial.
    out = run_cli(*search, "--radius", "1", "--degree", "4194304", "--budget", "0")
    assert out.returncode == 1, out
    assert out.stdout.endswith("reason: no separating morphism found in 0 trials\n")
    # B_30 holds 2^31 - 1 words; its spheres pass 2^22 letters at radius 17.
    out = run_cli(*search, "--radius", "30", "--degree", "4")
    assert (out.returncode, out.stdout) == (
        2, "error: ValidationError: a scan of the radius-30 ball is refused: its first "
        "262143 sites give 4194306 letters, more than 4194304\n"
    )


def test_a_find_morphism_trial_past_the_budget_exits_two_at_once():
    start = time.process_time()
    code, text = execute(["find-morphism", "--sigma", "1,2", "--radius", "1",
                          "--degree", "3000000", "--budget", "1", "--seed", "1"])
    assert (code, text) == (
        2, "error: ValidationError: a trial of degree 3000000 on the 1-ball is refused: "
        "it takes 3000000 x (words + letters) = 15000000 steps, more than 4194304"
    )
    assert time.process_time() - start < 1.0


def test_find_morphism_builds_its_ball_once_and_only_for_a_trial(monkeypatch):
    built, factorials = [], []
    reduced, factorial = algebra._reduced, math.factorial
    monkeypatch.setattr(algebra, "_reduced", lambda letters: built.append(letters) or reduced(letters))
    monkeypatch.setattr(math, "factorial", lambda k: factorials.append(k) or factorial(k))
    search = ["find-morphism", "--sigma", "1,2", "--seed", "1"]
    for flags, code in (
        (["--radius", "30", "--degree", "3"], 2),  # a ball past 2^22 letters
        (["--radius", "16", "--degree", "2", "--budget", "1"], 1),  # 2! < |B_16|
        (["--radius", "16", "--degree", "200"], 2),  # a trial past the budget
        (["--radius", "1", "--degree", "4", "--budget", "0"], 1),  # no trial
        (["--radius", "16", "--degree", "131070", "--budget", "0"], 1),  # 131070! is not formed
    ):
        assert execute([*search, *flags])[0] == code
        assert built == []
    assert factorials and max(factorials) <= 10
    # B_2 over Sigma = {a1, a2} has 7 words; the identity is not built.
    assert execute([*search, "--radius", "2", "--degree", "5"])[0] == 0
    assert len(built) == 6


def test_a_group_past_the_budget_is_refused_during_its_closure(tmp_path):
    # A transposition and a 20-cycle generate Sym(20): 20! states without a bound.
    swap, cycle = [1, 0, *range(2, 20)], [*range(1, 20), 0]
    write_json(tmp_path / "theta.json", {"k": 20, "theta": {"1": swap, "2": cycle}})
    pattern = pattern_file(tmp_path, {"": 0})
    out = run_cli("thm-a-construct", "--pattern", str(pattern),
                  "--morphism", str(tmp_path / "theta.json"), "--alphabet", "0,1")
    assert (out.returncode, out.stdout) == (
        2, "error: ValidationError: the group theta generates is refused: it has more than "
        "209715 permutations of degree 20, more than 4194304 entries\n"
    )


def test_a_monoid_past_the_budget_is_refused_during_its_closure(tmp_path):
    # A transposition and a 64-cycle act on 64 points as Sym(64), which is not
    # regular, so its maps are listed; with a merge of states 0 and 1 they
    # generate all 64^64 maps of 64 states.  Labels 1 then 0s keep the 64
    # states apart.
    n = 64
    group = {"1": [1, 0, *range(2, n)], "2": [*range(1, n), 0]}
    for delta in (group, {**group, "3": [0, 0, *range(2, n)]}):
        write_json(tmp_path / "auto.json", {
            "d": len(delta), "sigma": [int(s) for s in delta], "alphabet": [0, 1],
            "labels": [1] + [0] * (n - 1), "base": 0, "delta": delta,
        })
        out = run_cli("orbit-analyze", "--automaton", str(tmp_path / "auto.json"))
        assert (out.returncode, out.stdout) == (
            2, "error: ValidationError: the monoid of orbit maps is refused: it has more than "
            "65536 transformations of degree 64, more than 4194304 entries\n"
        )


def test_a_regular_orbit_past_the_budget_is_certified(tmp_path):
    # The Theorem-A point of Sym(7): 5040 states on which Sym(7) acts regularly.
    # Listing its 5040 maps of 5040 states would pass the budget.
    theta = {Symbol(1, 1): (1, 0, *range(2, 7)), Symbol(2, 1): (*range(1, 7), 0)}
    point = theorem_a_point(Pattern.of({parse_word(""): 1}), theta, GS2, (0, 1))
    write_json(tmp_path / "auto.json", automaton_out(point))
    code, text = execute(["orbit-analyze", "--automaton", str(tmp_path / "auto.json")])
    assert code == 0
    for row in ("states_minimized: 5040", "periodic: true", "transitive: true",
                "monoid_size: 5040", "monoid_is_group: true"):
        assert row in text.splitlines()


def test_a_lattice_chain_window_past_the_bit_budget_is_refused_at_once(tmp_path):
    write_json(tmp_path / "chain.json", LATTICE_CHAIN)
    write_json(tmp_path / "far.json", {"entries": [[[0], 0], [[HUGE], 1]]})
    out = run_cli("window-eval", "--measure", str(tmp_path / "chain.json"),
                  "--pattern", str(tmp_path / "far.json"))
    assert (out.returncode, out.stdout) == (
        2, f"error: ValidationError: a window spanning {HUGE} steps is refused: at 2 bits a "
        f"step its mass may need {2 * HUGE} bits, more than 65536\n"
    )
    # 2^16 bits exactly is accepted; a 0/1 matrix adds no bits and is never refused.
    edge = {"entries": [[[0], 0], [[2**15], 1]]}
    assert run_on(tmp_path, WINDOW_EVAL, measure=LATTICE_CHAIN, pattern=edge)[0] == 0
    swap = {**LATTICE_CHAIN, "p": ["1/2", "1/2"], "P": [["0/1", "1/1"], ["1/1", "0/1"]]}
    # HUGE is even, so the swap chain shows the same symbol at both ends.
    same = {"entries": [[[0], 0], [[HUGE], 0]]}
    assert run_on(tmp_path, WINDOW_EVAL, measure=swap, pattern=same) == (0, "sites: 2\nmass: 1/2")


def test_repeated_alphabet_symbol_exits_two(tmp_path):
    orbit = {**automaton_out(swap_orbit()), "alphabet": [0, 0], "labels": [0, 0]}
    periodic = {"kind": "periodic", "orbits": [orbit], "weights": ["1/1"]}
    bernoulli = {**BERNOULLI, "alphabet": [0, 0]}
    pat = pattern_file(tmp_path, {"": 0})
    for name, data in (("bernoulli", bernoulli), ("periodic", periodic)):
        path = tmp_path / f"{name}.json"
        write_json(path, data)
        for argv in (["eval", "--pattern", str(pat)], ["markovize", "--order", "1"]):
            code, text = execute([*argv, "--measure", str(path)])
            assert code == 2
            assert text.endswith("alphabet must be nonempty without repeats")


def run_on(tmp_path, argv, **files):
    """Write each keyword's JSON, unless None, to ``<name>.json`` and run argv on those paths."""
    paths = {}
    for name, data in files.items():
        if data is not None:
            paths[name] = tmp_path / f"{name}.json"
            write_json(paths[name], data)
    return execute([a.format(**paths) for a in argv])


HUGE = 10**8
FAIR_CHAIN = {"kind": "chain", "d": 1, "sigma": [1], "alphabet": [0, 1],
              "p": ["1/2", "1/2"], "P": {"1": [["1/2", "1/2"]] * 2}}
LATTICE_TABLE = {"kind": "lattice-table", "d": 1, "alphabet": [0, 1], "box": [1],
                 "table": [[{"entries": [[[0], 0]]}, "1/2"], [{"entries": [[[0], 1]]}, "1/2"]]}
ROOT = {"entries": [[[0], 0]]}
EXTEND = ["extend", "--chain", "{measure}"]
WINDOW_EVAL = ["window-eval", "--measure", "{measure}", "--pattern", "{pattern}"]


def test_extend_refuses_a_huge_rank_at_once(tmp_path):
    start = time.process_time()
    code, text = run_on(tmp_path, EXTEND, measure={**measure_out(worked_chain(2)), "d": HUGE})
    assert time.process_time() - start < 1
    assert code == 2
    assert text == (
        "error: SigmaIncomplete: Sigma lacks positive generators: "
        f"a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, ... ({HUGE - 2} in all)"
    )


def test_window_eval_refuses_a_huge_box_at_once(tmp_path):
    table = {**LATTICE_TABLE, "box": [HUGE], "table": [[ROOT, "1/1"]]}
    start = time.process_time()
    code, text = run_on(tmp_path, WINDOW_EVAL, measure=table, pattern=ROOT)
    assert time.process_time() - start < 1
    assert code == 2
    assert text.endswith("table pattern {(0,)=0} must fill the box")


@pytest.mark.parametrize(
    "argv, measure, pattern, message",
    [
        (EXTEND, {**FAIR_CHAIN, "d": 1.9}, None, "d 1.9"),
        (EXTEND, {**FAIR_CHAIN, "d": "1"}, None, "d '1'"),
        (EXTEND, {**FAIR_CHAIN, "sigma": [1.0]}, None, "sigma entry 1.0"),
        (EXTEND, {**FAIR_CHAIN, "sigma": [True]}, None, "sigma entry True"),
        (WINDOW_EVAL, {**LATTICE_BERNOULLI, "d": 1.0}, ROOT, "d 1.0"),
        (WINDOW_EVAL, LATTICE_BERNOULLI, {"entries": [[[0.7], 0]]}, "site coordinate 0.7"),
        (WINDOW_EVAL, {**LATTICE_TABLE, "box": [1.5]}, ROOT, "box extent 1.5"),
    ],
    ids=["d-float", "d-string", "sigma-float", "sigma-bool", "lattice-d", "lattice-site",
         "box"],
)
def test_integer_fields_are_read_exactly(tmp_path, argv, measure, pattern, message):
    code, text = run_on(tmp_path, argv, measure=measure, pattern=pattern)
    assert code == 2
    assert text.startswith("error: ParseError: ")
    assert text.endswith(f"{message} is not an integer")


def assert_one_parse_error_line(out, path):
    assert (out.returncode, out.stderr) == (2, "")
    assert out.stdout.startswith(f"error: ParseError: {path}: ")
    assert out.stdout.count("\n") == 1


def nested_mixture(levels):
    measure = {**FAIR_CHAIN, "kind": "bernoulli", "probs": ["1/2", "1/2"]}
    del measure["p"], measure["P"]
    for _ in range(levels):
        measure = {"kind": "mixture", "components": [measure], "weights": ["1"]}
    return measure


def test_a_json_file_nested_past_the_recursion_limit_exits_two(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert_one_parse_error_line(run_cli("validate-chain", "--chain", str(deep)), deep)


def test_a_mixture_nested_past_the_recursion_limit_exits_two(tmp_path):
    shallow, deep = tmp_path / "shallow.json", tmp_path / "deep.json"
    write_json(shallow, nested_mixture(100))
    write_json(deep, nested_mixture(200))
    out = run_cli("invariance-check", "--measure", str(shallow), "--radius", "1")
    assert (out.returncode, out.stdout) == (0, "method: ball\nradius: 1\ninvariant: true\n")
    out = run_cli("invariance-check", "--measure", str(deep), "--radius", "1")
    assert_one_parse_error_line(out, deep)
    # The file and the depth are named once, not one prefix per level.
    assert len(out.stdout.encode()) < 200
    assert re.search(r" at nesting level \d+\n$", out.stdout)


def test_a_symbol_nested_past_the_recursion_limit_exits_two(tmp_path):
    symbol = 0
    for _ in range(600):
        symbol = [symbol]
    measure = tmp_path / "bern.json"
    write_json(measure, {**nested_mixture(0), "alphabet": [symbol, 1]})
    out = run_cli("invariance-check", "--measure", str(measure), "--radius", "1")
    assert_one_parse_error_line(out, measure)
