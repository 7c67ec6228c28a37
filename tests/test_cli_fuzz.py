"""The exit-code contract under mutated inputs.

Each example takes a golden case from ``test_cli_golden`` and one JSON file
it reads, then either replaces one leaf of that file with a value from a
fixed list or deletes one object key, and runs the command in an empty
directory.  Whatever the mutation, nothing may escape ``cli.execute``, the
exit code is 0, 1 or 2, and a report whose error is a ``ParseError`` or a
``ValidationError`` exits 2.  A file whose bytes are not UTF-8 exits 2 too.
"""

import json
import os
import re
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from semishift import errors
from semishift.cli import execute
from test_cli_golden import CASES, fixtures

FIXTURES = fixtures()
REPLACEMENTS = (1.5, True, None, "x", -1, 10**8, [], {})
DELETE = object()
# (case, file name) for every JSON file a golden case reads
INPUTS = sorted(
    (case, name)
    for case, argv in CASES.items()
    for name in argv
    if name in FIXTURES and not isinstance(FIXTURES[name], str)
)
# the error row in text ("error: Kind: ...") or csv ("error,Kind: ..." or quoted) form
ERROR_ROW = re.compile(r'^error(?:: |,"?)(\w+): ', re.MULTILINE)
# an error row that names an input file
FILE_ERROR = re.compile(r'^error(?:: |,"?)\w+: ([\w.]+\.json):', re.MULTILINE)


def mutations(value, path=()):
    """(path, replacement) for every leaf and (path, DELETE) for every object key."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield path + (key,), DELETE
            yield from mutations(item, path + (key,))
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from mutations(item, path + (i,))
    else:
        for replacement in REPLACEMENTS:
            yield path, replacement


def mutated(value, path, replacement):
    if not path:
        return replacement
    value = json.loads(json.dumps(value))
    *parents, last = path
    container = value
    for step in parents:
        container = container[step]
    if replacement is DELETE:
        del container[last]
    else:
        container[last] = replacement
    return value


@st.composite
def mutated_cases(draw):
    case, name = draw(st.sampled_from(INPUTS))
    path, replacement = draw(st.sampled_from(list(mutations(FIXTURES[name]))))
    return case, name, mutated(FIXTURES[name], path, replacement)


def run_in_empty_directory(argv, files):
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            if isinstance(content, bytes):
                (Path(tmp) / name).write_bytes(content)
            else:
                text = content if isinstance(content, str) else json.dumps(content)
                (Path(tmp) / name).write_text(text)
        os.chdir(tmp)
        try:
            return execute(argv)
        finally:
            os.chdir(home)


@given(mutated_cases())
def test_mutated_golden_input_keeps_the_exit_contract(example):
    case, name, content = example
    code, text = run_in_empty_directory(CASES[case], {**FIXTURES, name: content})
    assert code in (0, 1, 2)
    match = ERROR_ROW.search(text)
    kind = getattr(errors, match.group(1), None) if match else None
    if isinstance(kind, type) and issubclass(kind, (errors.ParseError, errors.ValidationError)):
        assert code == 2, text


# Two byte strings that are not UTF-8: the file as UTF-16 (it starts with
# the byte-order mark 0xFF 0xFE), and the file with one stray 0xE9 byte.
UNDECODABLE = {
    "utf-16": lambda text: text.encode("utf-16"),
    "stray-e9": lambda text: text[:1].encode() + b"\xe9" + text[1:].encode(),
}


@pytest.mark.parametrize("encoding", sorted(UNDECODABLE))
def test_an_input_that_is_not_utf8_exits_two(encoding):
    """Every JSON file a golden case reads, made undecodable, gives exit 2 and
    one ``ParseError`` row that names the file; nothing escapes ``execute``.
    A case that fails on another file first never reads it: its report
    must stay as it was."""
    wrong = []
    for case, name in INPUTS:
        raw = UNDECODABLE[encoding](json.dumps(FIXTURES[name]))
        code, text = run_in_empty_directory(CASES[case], {**FIXTURES, name: raw})
        rows = [line for line in text.splitlines() if ERROR_ROW.match(line)]
        if code == 2 and len(rows) == 1 and f"ParseError: {name}: not valid UTF-8 at byte " in rows[0]:
            continue
        before = run_in_empty_directory(CASES[case], FIXTURES)
        other = FILE_ERROR.search(before[1])
        if not (other and other.group(1) != name and (code, text) == before):
            wrong.append((case, name, code, text))
    assert wrong == []


def test_mutations_cover_every_leaf_and_key():
    sample = {"a": [1, {"b": "x"}], "c": []}
    found = list(mutations(sample))
    assert (("a",), DELETE) in found and (("a", 1, "b"), DELETE) in found
    assert {p for p, r in found if r is not DELETE} == {("a", 0), ("a", 1, "b"), ("c",)}
    assert mutated(sample, ("a", 1, "b"), DELETE) == {"a": [1, {}], "c": []}
    assert mutated(sample, ("a", 0), None) == {"a": [None, {"b": "x"}], "c": []}
    assert sample == {"a": [1, {"b": "x"}], "c": []}
