"""JSON reading and writing for every object the command line touches.

Rationals are always written as ``num/den`` strings, never as decimals.
Words use the letter syntax from ``algebra`` (empty string for the
identity).  Alphabet symbols may be strings, integers, or integer pairs;
pairs are written as two-element lists, and a JSON object is never a
symbol.  Measure files carry a ``kind``
tag; ``MEASURE_KINDS`` maps each tag to its class and to the readers and
writers of its fields.

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
    if isinstance(value, dict):
        raise ParseError(f"a JSON object cannot be a symbol: {json.dumps(value)}")
    return value


def read_json(path: str | Path) -> Any:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return json.loads(text, parse_int=bounded_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_json(path: str | Path, data: Any) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _need(data: dict, key: str, where: str) -> Any:
    if key not in data:
        raise ParseError(f"{where}: missing key {key!r}")
    return data[key]


_SIGNED = re.compile(r"-?[0-9]+")


def _signed_key(key: str, what: str, where: str) -> int:
    if not _SIGNED.fullmatch(str(key)):
        raise ParseError(f"{where}: {what} {shown(key)}")
    return bounded_int(key)


def _int_in(value: Any, what: str, where: str) -> int:
    """A JSON integer; a bool, a float or a string is refused, not converted."""
    if type(value) is not int:
        raise ParseError(f"{where}: {what} {value!r} is not an integer")
    return value


def _reader(default_where: str):
    """Make every error of a reader a ParseError prefixed with its ``where``.

    A ParseError that already names ``where`` passes through unchanged, so
    nested readers add no second prefix.
    """

    def wrap(read):
        @functools.wraps(read)
        def checked(data: Any, where: str = default_where):
            try:
                return read(data, where)
            except (ValueError, TypeError, KeyError, AttributeError, SemishiftError) as exc:
                if isinstance(exc, ParseError) and str(exc).startswith(f"{where}:"):
                    raise
                raise ParseError(f"{where}: {exc}") from exc

        return checked

    return wrap


def generator_set_out(gs: GeneratorSet) -> dict:
    return {"d": gs.d, "sigma": [s.signed for s in gs.symbols()]}


@_reader("generator set")
def generator_set_in(data: dict, where: str) -> GeneratorSet:
    sigma = [_int_in(v, "sigma entry", where) for v in _need(data, "sigma", where)]
    return GeneratorSet.from_signed(sigma, d=_int_in(_need(data, "d", where), "d", where))


def chain_out(chain: MarkovTreeChain) -> dict:
    return {
        **generator_set_out(chain.gs),
        "alphabet": [_symbol_out(c) for c in chain.alphabet],
        "p": [fraction_to_str(x) for x in chain.p],
        "P": {
            str(sym.signed): [[fraction_to_str(x) for x in row] for row in rows]
            for sym, rows in chain.transitions
        },
    }


@_reader("chain")
def chain_in(data: dict, where: str) -> MarkovTreeChain:
    gs = generator_set_in(data, where)
    alphabet = tuple(_symbol_in(c) for c in _need(data, "alphabet", where))
    p = [parse_fraction(x, f"{where}: p") for x in _need(data, "p", where)]
    matrices = {
        _signed_key(key, "bad generator key", where): [
            [parse_fraction(x, f"{where}: P[{key}]") for x in row] for row in rows
        ]
        for key, rows in _need(data, "P", where).items()
    }
    return MarkovTreeChain.make(gs, alphabet, p, matrices)


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


def automaton_out(o: OrbitAutomaton) -> dict:
    return {
        **generator_set_out(o.gs),
        "alphabet": [_symbol_out(c) for c in o.alphabet],
        "labels": [_symbol_out(c) for c in o.labels],
        "base": o.base,
        "delta": {
            str(sym.signed): list(o.delta[sym]) for sym in o.gs.symbols()
        },
    }


@_reader("automaton")
def automaton_in(data: dict, where: str) -> OrbitAutomaton:
    gs = generator_set_in(data, where)
    alphabet = tuple(_symbol_in(c) for c in _need(data, "alphabet", where))
    labels = tuple(_symbol_in(c) for c in _need(data, "labels", where))
    delta = {
        Symbol.from_signed(_signed_key(key, "bad delta entry", where)): tuple(
            _int_in(q, f"delta[{key}] entry", where) for q in row
        )
        for key, row in _need(data, "delta", where).items()
    }
    return OrbitAutomaton(
        gs=gs,
        alphabet=alphabet,
        labels=labels,
        delta=delta,
        base=_int_in(_need(data, "base", where), "base", where),
    )


def morphism_out(theta: dict[Symbol, tuple[int, ...]]) -> dict:
    degree = len(next(iter(theta.values())))
    return {
        "k": degree,
        "theta": {
            str(sym.signed): list(p)
            for sym, p in sorted(theta.items(), key=lambda kv: kv[0].key())
        },
    }


@_reader("morphism")
def morphism_in(data: dict, where: str) -> dict[Symbol, tuple[int, ...]]:
    out = {
        Symbol.from_signed(_signed_key(key, "bad permutation for", where)): tuple(
            _int_in(i, f"theta[{key}] entry", where) for i in p
        )
        for key, p in _need(data, "theta", where).items()
    }
    if not out:
        raise ParseError(f"{where}: empty morphism")
    return out


def lattice_pattern_out(pattern: LatticePattern) -> dict:
    return {"entries": [[list(v), _symbol_out(c)] for v, c in pattern.items()]}


@_reader("lattice pattern")
def lattice_pattern_in(data: dict, where: str) -> LatticePattern:
    entries = _need(data, "entries", where)
    return LatticePattern.of(
        [(tuple(_int_in(x, "site coordinate", where) for x in v), _symbol_in(c))
         for v, c in entries]
    )


class MeasureKind(NamedTuple):
    """One ``kind`` tag of a measure file: its class, reader and writer.

    ``read(data, where)`` builds the measure from the file's fields and
    ``write(measure)`` returns them without the tag.  Lattice kinds live on
    orthants of Z^d rather than on a semigroup.
    """

    cls: type
    read: Callable[[dict, str], Any]
    write: Callable[[Any], dict]
    lattice: bool = False


# (attribute, read(data, where), write(value) -> fields) for one attribute
Field = tuple[str, Callable[[dict, str], Any], Callable[[Any], dict]]


def _seq(key: str, read_item: Callable[[Any, str, int], Any], write_item) -> Field:
    """A list field whose items read as read_item(item, where, index)."""

    def read(data: dict, where: str) -> tuple:
        return tuple(read_item(x, where, i) for i, x in enumerate(_need(data, key, where)))

    return key, read, lambda values: {key: [write_item(x) for x in values]}


def _fractions(key: str) -> Field:
    return _seq(key, lambda x, where, i: parse_fraction(x, f"{where}: {key}"), fraction_to_str)


def _table_entry_in(entry: Any, where: str, i: int) -> tuple[LatticePattern, Fraction]:
    pat, mass = entry
    return lattice_pattern_in(pat, f"{where}: table"), parse_fraction(mass)


_GS: Field = ("gs", generator_set_in, generator_set_out)
_D: Field = (
    "d", lambda data, where: _int_in(_need(data, "d", where), "d", where), lambda d: {"d": d}
)
_ALPHABET = _seq("alphabet", lambda c, where, i: _symbol_in(c), _symbol_out)


def _record(cls: type, *fields: Field, lattice: bool = False) -> MeasureKind:
    """Kind whose file holds the class's attributes field by field."""

    def read(data: dict, where: str) -> Any:
        return cls(*(read_field(data, where) for _, read_field, _ in fields))

    def write(measure: Any) -> dict:
        out: dict = {}
        for attr, _, write_field in fields:
            out.update(write_field(getattr(measure, attr)))
        return out

    return MeasureKind(cls, read, write, lattice)


def measure_out(measure: Any) -> dict:
    # By exact type: a periodic measure is also a mixture.
    for tag, kind in MEASURE_KINDS.items():
        if type(measure) is kind.cls:
            return {"kind": tag, **kind.write(measure)}
    raise ParseError(f"cannot serialize measure of type {type(measure).__name__}")


@_reader("measure")
def measure_in(data: dict, where: str) -> Any:
    kind = _need(data, "kind", where)
    if kind not in MEASURE_KINDS:
        raise ParseError(f"{where}: unknown measure kind {kind!r}")
    return MEASURE_KINDS[kind].read(data, where)


MEASURE_KINDS: dict[str, MeasureKind] = {
    "chain": MeasureKind(MarkovTreeChain, chain_in, chain_out),
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
        LatticeBernoulli, _D, _ALPHABET, _fractions("probs"), lattice=True
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
        _D,
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


def block_alphabet_out(blocks: BlockAlphabet, d: int) -> dict:
    return {
        "order": blocks.order,
        "sites": [word_to_string(w, d) for w in blocks.sites],
        "blocks": [pattern_out(b, d) for b in blocks.blocks],
        "masses": [fraction_to_str(m) for m in blocks.masses],
    }
