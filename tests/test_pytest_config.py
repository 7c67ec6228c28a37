"""The repository's pytest configuration reports a failing Hypothesis
property as a test failure that shows its falsifying example.

``filterwarnings = ["error"]`` would turn any warning raised while
Hypothesis reports a failure into an ``INTERNALERROR``: with libcst
installed, its reporter imports ``mypy_extensions.TypedDict``, which warns.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_false_property(x):
    assert x < 10
"""


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    pytest.importorskip("hypothesis")
    (tmp_path / "test_false.py").write_text(PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_false.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = run.stdout + run.stderr
    assert "Falsifying example" in report, report
    assert "INTERNALERROR" not in report, report
    assert run.returncode == 1, report
