"""Golden reports: exact stdout, exit code and ``--out`` bytes of every subcommand.

Each case writes the same fixture files into an empty directory, runs
``semishift.cli.main`` there with relative file names (so no temporary
path reaches a report), and compares the result with the record in
``golden_cli.json``.  The records pin the report bytes; a change to any
of them is a change to the command-line contract and must be intended.

``python3 tests/test_cli_golden.py`` rewrites ``golden_cli.json`` from
the current code.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import (  # noqa: E402
    random_invariant_chain,
    swap_orbit,
    two_point_orbit,
    worked_chain,
)
from semishift import (  # noqa: E402
    BernoulliMeasure,
    GeneratorSet,
    LatticeBernoulli,
    LatticeMarkov,
    LatticePattern,
    LatticeTable,
    MixtureMeasure,
    PeriodicMeasure,
)
from semishift.cli import main  # noqa: E402
from semishift.serialize import automaton_out, measure_out  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
F = Fraction
GS2 = GeneratorSet.from_signed((1, 2))
MATRICES = "[[[1,2],[0,1]],[[1,0],[2,1]]]"
FLAT = [["1/2", "1/2"], ["1/2", "1/2"]]
SKEW = {
    "kind": "chain", "d": 2, "sigma": [1, 2], "alphabet": [0, 1],
    "p": ["1/4", "3/4"], "P": {"1": FLAT, "2": FLAT},
}


def fixtures() -> dict[str, object]:
    """File name -> JSON content for every input the cases read."""
    bern = BernoulliMeasure(GS2, (0, 1), (F(1, 3), F(2, 3)))
    swap = PeriodicMeasure((swap_orbit(),), (F(1),))
    chain2 = worked_chain(2)
    bad_p = measure_out(chain2)
    bad_p["p"] = ["1/2", "1/3"]
    box = [(0,), (1,)]
    table_masses = (F(1, 8), F(3, 8), F(1, 4), F(1, 4))
    table = tuple(
        (LatticePattern.of({s: (i >> b) & 1 for b, s in enumerate(box)}), table_masses[i])
        for i in range(4)
    )
    return {
        "chain.json": measure_out(chain2),
        "chain1.json": measure_out(worked_chain(1)),
        "signed.json": measure_out(random_invariant_chain(random.Random(7), (1, -1, 2), 2)),
        "skew.json": SKEW,
        "bad_p.json": bad_p,
        "bern.json": measure_out(bern),
        "swap.json": measure_out(swap),
        "mix.json": measure_out(MixtureMeasure((bern, chain2), (F(1, 3), F(2, 3)))),
        "mix_skew.json": {"kind": "mixture", "components": [SKEW, measure_out(bern)],
                          "weights": ["1/2", "1/2"]},
        "auto.json": automaton_out(swap_orbit()),
        "two_point.json": automaton_out(two_point_orbit()),
        "theta.json": {"k": 2, "theta": {"1": [1, 0], "2": [1, 0]}},
        "pat.json": {"entries": [["", 0], ["a2", 1], ["a1a2", 1]]},
        "root.json": {"entries": [["", 0]]},
        "pair.json": {"entries": {"": 0, "a1": 1}},
        "thm_pat.json": {"entries": [["", 0], ["a1", 1], ["a2", 1]]},
        "outside.json": {"entries": [["A1", 0]]},
        "lmarkov.json": measure_out(LatticeMarkov(
            (0, 1), (F(1, 3), F(2, 3)), ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))))),
        "lbern.json": measure_out(LatticeBernoulli(2, (0, 1, 2), (F(1, 6), F(1, 3), F(1, 2)))),
        "ltable.json": measure_out(LatticeTable(1, (0, 1), (2,), table)),
        "win.json": {"entries": [[[-1], 0], [[0], 1], [[4], 1]]},
        "win2.json": {"entries": [[[-2, 1], 0], [[0, -1], 2], [[3, 2], 1]]},
        "win_table.json": {"entries": [[[-1], 1], [[0], 0]]},
        # malformed inputs, one group per reader
        "bad_kind.json": {"kind": "mystery"},
        "bern_no_probs.json": {"kind": "bernoulli", "d": 2, "sigma": [1, 2], "alphabet": [0, 1]},
        "bern_decimal.json": {"kind": "bernoulli", "d": 2, "sigma": [1, 2], "alphabet": [0, 1],
                              "probs": ["0.5", "1/2"]},
        "chain_no_P.json": {k: v for k, v in SKEW.items() if k != "P"},
        "chain_bad_key.json": {**SKEW, "P": {"x": FLAT}},
        "auto_bad_key.json": {**automaton_out(swap_orbit()), "delta": {"z": [1, 0]}},
        "auto_no_base.json": {k: v for k, v in automaton_out(swap_orbit()).items()
                              if k != "base"},
        "pat_unreduced.json": {"entries": [["a1A1", 0]]},
        "pat_repeat.json": {"entries": [["a1", 0], ["a1", 1]]},
        "theta_empty.json": {"k": 2, "theta": {}},
        "theta_bad_key.json": {"k": 2, "theta": {"x": [1, 0]}},
        "win_repeat.json": {"entries": [[[0], 0], [[0], 1]]},
        "win_mixed.json": {"entries": [[[0], 0], [[0, 1], 1]]},
        "broken.json": "{not json",
    }


CASES: dict[str, list[str]] = {
    "validate-chain": ["validate-chain", "--chain", "chain.json"],
    "validate-chain-signed": ["validate-chain", "--chain", "signed.json"],
    "validate-chain-skew": ["validate-chain", "--chain", "skew.json"],
    "validate-chain-bad-p": ["validate-chain", "--chain", "bad_p.json"],
    "validate-chain-csv": ["validate-chain", "--chain", "skew.json", "--format", "csv"],
    "invariance-chain": ["invariance-check", "--measure", "chain.json"],
    "invariance-skew": ["invariance-check", "--measure", "skew.json"],
    "invariance-bern": ["invariance-check", "--measure", "bern.json", "--radius", "1"],
    "invariance-periodic": ["invariance-check", "--measure", "swap.json", "--radius", "2"],
    "invariance-mix": ["invariance-check", "--measure", "mix.json", "--radius", "1"],
    "invariance-mix-skew": ["invariance-check", "--measure", "mix_skew.json", "--radius", "1"],
    "invariance-lattice": ["invariance-check", "--measure", "lmarkov.json"],
    "eval-chain": ["eval", "--measure", "chain.json", "--pattern", "pat.json"],
    "eval-chain-human": ["eval", "--measure", "chain.json", "--pattern", "pat.json", "--human"],
    "eval-chain-csv": ["eval", "--measure", "chain.json", "--pattern", "pat.json",
                       "--format", "csv"],
    "eval-chain-csv-human": ["eval", "--measure", "chain.json", "--pattern", "pat.json",
                             "--format", "csv", "--human"],
    "eval-bern": ["eval", "--measure", "bern.json", "--pattern", "pair.json", "--human"],
    "eval-periodic": ["eval", "--measure", "swap.json", "--pattern", "pair.json"],
    "eval-mix": ["eval", "--measure", "mix.json", "--pattern", "pat.json"],
    "eval-outside": ["eval", "--measure", "chain.json", "--pattern", "outside.json"],
    "eval-lattice": ["eval", "--measure", "lmarkov.json", "--pattern", "root.json"],
    "extend": ["extend", "--chain", "chain.json", "--out", "out_ext.json"],
    "extend-missing-dir": ["extend", "--chain", "chain.json", "--out", "nodir/x.json"],
    "extend-signed": ["extend", "--chain", "signed.json"],
    "extend-skew": ["extend", "--chain", "skew.json"],
    "pushforward": ["pushforward-check", "--extended", "chain.json", "--chain", "chain.json",
                    "--radius", "1"],
    "pushforward-skew": ["pushforward-check", "--extended", "chain.json", "--chain",
                         "skew.json", "--radius", "1"],
    "markovize-periodic": ["markovize", "--measure", "swap.json", "--order", "1",
                           "--out", "out_blocks.json"],
    "markovize-chain": ["markovize", "--measure", "chain1.json", "--order", "1",
                        "--out", "out_chain_blocks.json", "--human"],
    "markovize-skew": ["markovize", "--measure", "skew.json", "--order", "1",
                       "--out", "out_skew_blocks.json"],
    "consistency": ["consistency", "--measure", "swap.json", "--order", "1",
                    "--pattern", "pair.json"],
    "consistency-chain": ["consistency", "--measure", "chain1.json", "--order", "1",
                          "--pattern", "root.json", "--format", "csv", "--human"],
    "orbit-analyze": ["orbit-analyze", "--automaton", "auto.json"],
    "orbit-analyze-two-point": ["orbit-analyze", "--automaton", "two_point.json",
                                "--format", "csv"],
    "thm-a": ["thm-a-construct", "--pattern", "thm_pat.json", "--morphism", "theta.json",
              "--alphabet", "0,1", "--out", "out_point.json"],
    "thm-a-default-alphabet": ["thm-a-construct", "--pattern", "thm_pat.json",
                               "--morphism", "theta.json", "--fill", "0"],
    "find-morphism": ["find-morphism", "--sigma", "1,2", "--radius", "1", "--degree", "4",
                      "--seed", "9", "--out", "out_theta.json"],
    "find-morphism-budget-out": ["find-morphism", "--sigma", "1,2", "--radius", "1",
                                 "--degree", "4", "--seed", "9", "--budget", "0",
                                 "--out", "out_theta.json"],
    "find-morphism-budget": ["find-morphism", "--sigma", "1,2", "--radius", "2",
                             "--degree", "2", "--seed", "1", "--budget", "10"],
    "find-morphism-bad-sigma": ["find-morphism", "--sigma", "1,x", "--radius", "1",
                                "--degree", "4", "--seed", "9"],
    "lift": ["lift", "--automaton", "auto.json", "--out", "out_lift.json"],
    "lift-two-point": ["lift", "--automaton", "two_point.json"],
    "distance": ["distance", "--first", "bern.json", "--second", "swap.json",
                 "--radius", "1", "--human"],
    "distance-lattice": ["distance", "--first", "bern.json", "--second", "lbern.json"],
    "counterexample": ["counterexample", "--matrices", MATRICES, "--word", "a1a2A1A2",
                       "--prime", "5"],
    "counterexample-delta": ["counterexample", "--matrices", MATRICES, "--word",
                             "a1a2A1A2", "--prime", "5", "--delta", "1/100000",
                             "--out", "out_cx.json"],
    "counterexample-large-delta": ["counterexample", "--matrices", MATRICES, "--word",
                                   "a1a2A1A2", "--prime", "5", "--delta", "1/100",
                                   "--human"],
    "counterexample-large-delta-out": ["counterexample", "--matrices", MATRICES, "--word",
                                       "a1a2A1A2", "--prime", "5", "--delta", "1/100",
                                       "--out", "out_cx.json"],
    "counterexample-no-delta-out": ["counterexample", "--matrices", MATRICES, "--word",
                                    "a1a2A1A2", "--prime", "5", "--out", "out_cx.json"],
    "counterexample-bad-matrices": ["counterexample", "--matrices", "[[[1,2],[0,x]]]",
                                    "--word", "a1", "--prime", "5"],
    "counterexample-bad-delta": ["counterexample", "--matrices", MATRICES, "--word",
                                 "a1a2A1A2", "--prime", "5", "--delta", "0.01"],
    "window-markov": ["window-eval", "--measure", "lmarkov.json", "--pattern", "win.json",
                      "--human"],
    "window-bern": ["window-eval", "--measure", "lbern.json", "--pattern", "win2.json"],
    "window-table": ["window-eval", "--measure", "ltable.json", "--pattern",
                     "win_table.json", "--format", "csv"],
    "window-tree-measure": ["window-eval", "--measure", "chain.json", "--pattern",
                            "win.json"],
    # exit 2 from each reader
    "measure-missing-file": ["eval", "--measure", "absent.json", "--pattern", "pat.json"],
    "measure-broken-json": ["eval", "--measure", "broken.json", "--pattern", "pat.json"],
    "measure-unknown-kind": ["invariance-check", "--measure", "bad_kind.json"],
    "measure-missing-key": ["eval", "--measure", "bern_no_probs.json", "--pattern",
                            "pat.json"],
    "measure-decimal": ["eval", "--measure", "bern_decimal.json", "--pattern", "pat.json",
                        "--format", "csv"],
    "chain-missing-key": ["validate-chain", "--chain", "chain_no_P.json"],
    "chain-bad-key": ["extend", "--chain", "chain_bad_key.json"],
    "automaton-bad-key": ["orbit-analyze", "--automaton", "auto_bad_key.json"],
    "automaton-missing-base": ["lift", "--automaton", "auto_no_base.json"],
    "pattern-unreduced": ["eval", "--measure", "chain.json", "--pattern",
                          "pat_unreduced.json"],
    "pattern-repeat": ["consistency", "--measure", "swap.json", "--order", "1",
                       "--pattern", "pat_repeat.json"],
    "morphism-empty": ["thm-a-construct", "--pattern", "thm_pat.json", "--morphism",
                       "theta_empty.json"],
    "morphism-bad-key": ["thm-a-construct", "--pattern", "thm_pat.json", "--morphism",
                         "theta_bad_key.json"],
    "lattice-pattern-repeat": ["window-eval", "--measure", "lmarkov.json", "--pattern",
                               "win_repeat.json"],
    "lattice-pattern-mixed": ["window-eval", "--measure", "lbern.json", "--pattern",
                              "win_mixed.json", "--human"],
}


def run_case(argv: list[str]) -> dict:
    """Run one command in the current (empty) directory.

    Returns the argv, exit code, stdout and the bytes of every file the
    command wrote.
    """
    names = fixtures()
    for name, content in names.items():
        text = content if isinstance(content, str) else json.dumps(content, indent=2)
        Path(name).write_text(text)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = main(argv)
    files = {p.name: p.read_text() for p in sorted(Path().iterdir()) if p.name not in names}
    return {"argv": argv, "code": code, "stdout": sink.getvalue(), "files": files}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_subcommand_has_a_case():
    from semishift.cli import build_parser

    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(commands) == {argv[0] for argv in CASES.values()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[name]) == golden[name]


if __name__ == "__main__":
    records = {}
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            records[case] = run_case(argv)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
