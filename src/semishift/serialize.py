"""JSON reading and writing for every object the command line touches.

Rationals are always written as ``num/den`` strings, never as decimals.
Words use the letter syntax from ``algebra`` (empty string for the
identity).  Alphabet symbols are strings, integers, or tuples of symbols,
which are written as lists; no other JSON value is a symbol.  Every
record file is read and written field by field (``_record``); measure
files carry a ``kind`` tag, which ``MEASURE_KINDS`` maps to its codec.
``_by_generator`` reads every object keyed by signed generator.

Every public ``*_in`` reader raises ``ParseError`` for malformed input,
prefixed with the ``where`` it was given.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .algebra import GeneratorSet, Symbol, Word, parse_word, word_to_string
from .errors import MAX_RATIONAL_CHARS, ParseError, SemishiftError, bounded_int, shown
from .markovize import BlockAlphabet
from .measure import (
    BernoulliMeasure,
    MarkovTreeChain,
    MixtureMeasure,
    Pattern,
)
from .orbit import OrbitAutomaton, PeriodicMeasure
from .reversible import (
    LatticeBernoulli,
    LatticeMarkov,
    LatticePattern,
    LatticeTable,
)


def fraction_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_fraction(text: Any, where: str = "value") -> Fraction:
    # only "num" or "num/den"; decimals would hide rounding in the files
    if isinstance(text, str) and len(text) > MAX_RATIONAL_CHARS:
        raise ParseError(
            f"{where}: rational of {len(text)} characters is longer than {MAX_RATIONAL_CHARS}"
        )
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ParseError(f"{where}: cannot read rational {shown(text)}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ParseError(f"{where}: cannot read rational {shown(text)}: {exc}") from exc


def _symbol_out(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_symbol_out(v) for v in value]
    return value


def _symbol_in(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_symbol_in(v) for v in value)
    if isinstance(value, str) or type(value) is int:
        return value
    if isinstance(value, dict):
        raise ParseError(f"a JSON object cannot be a symbol: {json.dumps(value)}")
    raise ParseError(f"a symbol is a string, an integer or a list of symbols, not {json.dumps(value)}")


def read_json(path: str | Path) -> Any:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 at byte {exc.start}: {exc.reason}") from None
    try:
        return json.loads(text, parse_int=bounded_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ParseError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_json(path: str | Path, data: Any) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _need(data: dict, key: str, where: str) -> Any:
    if key not in data:
        raise ParseError(f"{where}: missing key {key!r}")
    return data[key]


_SIGNED = re.compile(r"-?[0-9]+")


def _int_in(value: Any, what: str, where: str) -> int:
    """A JSON integer; a bool, a float or a string is refused, not converted."""
    if type(value) is not int:
        raise ParseError(f"{where}: {what} {value!r} is not an integer")
    return value


def _reader(default_where: str):
    """Make every error of a reader a ParseError prefixed with its ``where``.

    A ParseError that already names ``where`` passes through unchanged, so
    nested readers add no second prefix.  Input nested past the recursion
    limit is named once instead: each reader the error leaves puts its own
    ``where`` in place of the inner one's and counts one more level.
    """

    def wrap(read):
        @functools.wraps(read)
        def checked(data: Any, where: str = default_where):
            try:
                return read(data, where)
            except RecursionError as exc:
                raise _too_deep(where, 1, str(exc)) from None
            except (ValueError, TypeError, KeyError, AttributeError, SemishiftError) as exc:
                if (deep := getattr(exc, "too_deep", None)) is not None:
                    raise _too_deep(where, deep[0] + 1, deep[1]) from None
                if isinstance(exc, ParseError) and str(exc).startswith(f"{where}:"):
                    raise
                raise ParseError(f"{where}: {exc}") from exc

        return checked

    return wrap


def _too_deep(where: str, levels: int, reason: str) -> ParseError:
    """The error for input nested past the recursion limit ``levels`` readers below ``where``."""
    error = ParseError(f"{where}: {reason}" + (f" at nesting level {levels}" if levels > 1 else ""))
    error.too_deep = levels, reason
    return error


def generator_set_out(gs: GeneratorSet) -> dict:
    return {"d": gs.d, "sigma": [s.signed for s in gs.symbols()]}


@_reader("generator set")
def generator_set_in(data: dict, where: str) -> GeneratorSet:
    sigma = [_int_in(v, "sigma entry", where) for v in _need(data, "sigma", where)]
    return GeneratorSet.from_signed(sigma, d=_int_in(_need(data, "d", where), "d", where))


def pattern_out(pattern: Pattern, d: int) -> dict:
    return {
        "entries": [
            [word_to_string(w, d), _symbol_out(c)] for w, c in pattern.items()
        ]
    }


@_reader("pattern")
def pattern_in(data: dict, where: str) -> Pattern:
    entries = _need(data, "entries", where)
    if isinstance(entries, dict):
        items = entries.items()
    else:
        items = ((k, v) for k, v in entries)
    return Pattern.of([(parse_word(k), _symbol_in(v)) for k, v in items])


def lattice_pattern_out(pattern: LatticePattern) -> dict:
    return {"entries": [[list(v), _symbol_out(c)] for v, c in pattern.items()]}


@_reader("lattice pattern")
def lattice_pattern_in(data: dict, where: str) -> LatticePattern:
    entries = _need(data, "entries", where)
    return LatticePattern.of(
        [(tuple(_int_in(x, "site coordinate", where) for x in v), _symbol_in(c))
         for v, c in entries]
    )


class Codec(NamedTuple):
    """How one kind of record file is read and written: its class, its
    ``read(data, where)`` and its ``write(obj)``, which leaves out a measure
    file's ``kind`` tag.  Lattice kinds live on orthants of Z^d, not on S."""

    cls: type
    read: Callable[[dict, str], Any]
    write: Callable[[Any], dict]
    lattice: bool = False


class Field(NamedTuple):
    """One attribute: ``read(data, where)`` and ``write(value) -> fields``."""

    attr: str
    read: Callable[[dict, str], Any]
    write: Callable[[Any], dict]


def _seq(key: str, read_item: Callable[[Any, str, int], Any], write_item) -> Field:
    """A list field whose items read as read_item(item, where, index)."""

    def read(data: dict, where: str) -> tuple:
        return tuple(read_item(x, where, i) for i, x in enumerate(_need(data, key, where)))

    return Field(key, read, lambda values: {key: [write_item(x) for x in values]})


def _fractions(key: str) -> Field:
    return _seq(key, lambda x, where, i: parse_fraction(x, f"{where}: {key}"), fraction_to_str)


def _symbols(key: str) -> Field:
    return _seq(key, lambda c, where, i: _symbol_in(c), _symbol_out)


def _int(key: str) -> Field:
    return Field(
        key, lambda data, where: _int_in(_need(data, key, where), key, where), lambda v: {key: v}
    )


def _by_generator(
    key: str, bad_key: str, read_row: Callable[[Any, str, str], Any], write_row: Callable,
    attr: str = "",
) -> Field:
    """Rows keyed by signed generator index, read into a dict of symbols to
    ``read_row(row, where, name)``, each key before its row (``name`` is e.g.
    ``P[-1]``).  A key that is no signed integer is refused as a ``bad_key``."""

    def read(data: dict, where: str) -> dict:
        out = {}
        for name, row in _need(data, key, where).items():
            if not _SIGNED.fullmatch(str(name)):
                raise ParseError(f"{where}: {bad_key} {shown(name)}")
            sym = Symbol.from_signed(bounded_int(name))
            out[sym] = read_row(row, where, f"{key}[{name}]")
        return out

    def write(rows: dict) -> dict:
        return {key: {str(sym.signed): write_row(row) for sym, row in rows.items()}}

    return Field(attr or key, read, write)


def _int_row(row: Any, where: str, name: str) -> tuple[int, ...]:
    return tuple(_int_in(q, f"{name} entry", where) for q in row)


def _table_entry_in(entry: Any, where: str, i: int) -> tuple[LatticePattern, Fraction]:
    pat, mass = entry
    return lattice_pattern_in(pat, f"{where}: table"), parse_fraction(mass)


_GS = Field("gs", generator_set_in, generator_set_out)
_ALPHABET = _symbols("alphabet")
_THETA = _by_generator("theta", "bad permutation for", _int_row, list)
_P = _by_generator(
    "P", "bad generator key",
    lambda rows, where, name: [[parse_fraction(x, f"{where}: {name}") for x in r] for r in rows],
    lambda rows: [[fraction_to_str(x) for x in row] for row in rows],
    attr="matrix",
)


def _record(cls: type, *fields: Field, lattice: bool = False, make: Callable | None = None) -> Codec:
    """Codec whose file holds the class's attributes field by field; ``make``
    (the class itself by default) builds the object from their values."""

    def read(data: dict, where: str) -> Any:
        return (make or cls)(*(field.read(data, where) for field in fields))

    def write(obj: Any) -> dict:
        out: dict = {}
        for field in fields:
            out.update(field.write(getattr(obj, field.attr)))
        return out

    return Codec(cls, read, write, lattice)


_AUTOMATON = _record(
    OrbitAutomaton, _GS, _ALPHABET, _symbols("labels"),
    _by_generator("delta", "bad delta entry", _int_row, list), _int("base"),
)
automaton_in = _reader("automaton")(_AUTOMATON.read)
automaton_out = _AUTOMATON.write


@_reader("morphism")
def morphism_in(data: dict, where: str) -> dict[Symbol, tuple[int, ...]]:
    out = _THETA.read(data, where)
    if not out:
        raise ParseError(f"{where}: empty morphism")
    return out


def morphism_out(theta: dict[Symbol, tuple[int, ...]]) -> dict:
    return {"k": len(next(iter(theta.values()))), **_THETA.write(theta)}


def measure_out(measure: Any) -> dict:
    # By exact type: a periodic measure is also a mixture.
    for tag, kind in MEASURE_KINDS.items():
        if type(measure) is kind.cls:
            return {"kind": tag, **kind.write(measure)}
    wrap = "; wrap the orbits in a PeriodicMeasure" if type(measure) is OrbitAutomaton else ""
    raise ParseError(f"cannot serialize measure of type {type(measure).__name__}{wrap}")


@_reader("measure")
def measure_in(data: dict, where: str) -> Any:
    kind = _need(data, "kind", where)
    if kind not in MEASURE_KINDS:
        raise ParseError(f"{where}: unknown measure kind {kind!r}")
    return MEASURE_KINDS[kind].read(data, where)


MEASURE_KINDS: dict[str, Codec] = {
    "chain": _record(
        MarkovTreeChain, _GS, _ALPHABET, _fractions("p"), _P, make=MarkovTreeChain.make
    ),
    "bernoulli": _record(BernoulliMeasure, _GS, _ALPHABET, _fractions("probs")),
    "periodic": _record(
        PeriodicMeasure,
        _seq("orbits", lambda o, where, i: automaton_in(o, f"{where}: orbit {i}"), automaton_out),
        _fractions("weights"),
    ),
    "mixture": _record(
        MixtureMeasure,
        _seq(
            "components",
            lambda m, where, i: measure_in(m, f"{where}: component {i}"),
            measure_out,
        ),
        _fractions("weights"),
    ),
    "lattice-bernoulli": _record(
        LatticeBernoulli, _int("d"), _ALPHABET, _fractions("probs"), lattice=True
    ),
    "lattice-markov": _record(
        LatticeMarkov,
        _ALPHABET,
        _fractions("p"),
        _seq(
            "P",
            lambda row, where, i: tuple(parse_fraction(x, f"{where}: P") for x in row),
            lambda row: [fraction_to_str(x) for x in row],
        ),
        lattice=True,
    ),
    "lattice-table": _record(
        LatticeTable,
        _int("d"),
        _ALPHABET,
        _seq("box", lambda b, where, i: _int_in(b, "box extent", where), int),
        _seq(
            "table",
            _table_entry_in,
            lambda entry: [lattice_pattern_out(entry[0]), fraction_to_str(entry[1])],
        ),
        lattice=True,
    ),
}
chain_in = _reader("chain")(MEASURE_KINDS["chain"].read)
chain_out = MEASURE_KINDS["chain"].write


def block_alphabet_out(blocks: BlockAlphabet, d: int) -> dict:
    return {
        "order": blocks.order,
        "sites": [word_to_string(w, d) for w in blocks.sites],
        "blocks": [pattern_out(b, d) for b in blocks.blocks],
        "masses": [fraction_to_str(m) for m in blocks.masses],
    }
