"""Reduced words, generator sets, Cayley balls, and rooted trees.

``Record`` gives the package's value classes frozen field semantics.

Sites of a configuration are reduced words over free-group generators
``a_1 .. a_d`` and their inverses.  A generator set Sigma picks out the
subsemigroup S of all products of Sigma-letters, always taken with the
empty word adjoined, so S is a monoid.

The Cayley neighbours of a site t are the reduced products ``g * t`` for
g in Sigma.  Multiplying on the left changes the reduced length by
exactly one, so a nonempty word has a single shorter neighbour: the word
with its leading letter removed.  Every finite connected set of sites is
therefore a tree, rooted at its unique shortest word, with each edge
oriented away from the root and labelled by the longer endpoint's
leading letter.  All tree operations below use this convention.
"""

from __future__ import annotations

import functools
import itertools
import re
from operator import attrgetter
from typing import Any, Iterable, Iterator

from .errors import (MAX_PATTERNS, MembershipError, ParseError, ValidationError, bounded_int, shown,
                     too_many_patterns)


class Record:
    """A frozen value: its annotated fields, set once by the constructor.

    A subclass lists its fields as class annotations, in order, with an
    optional default as the class attribute; ``ClassVar`` annotations are
    no fields, and a subclass inherits its base's fields before its own.
    The constructor takes them by position or keyword, then runs
    ``__post_init__``.  Instances compare equal only within one class,
    hash over their fields and refuse assignment and deletion.  Fields
    live in the instance ``__dict__``, so ``cached_property``, pickle and
    ``copy`` work unchanged.  Classes are built without ``dataclasses``,
    whose import and generated methods cost every process start-up.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = [
            name
            for name, note in cls.__annotations__.items()
            if not str(note).startswith(("ClassVar", "typing.ClassVar"))
            and name not in cls._fields
        ]
        cls._fields = names = (*cls._fields, *own)
        cls._defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
        # attrgetter of one name returns the value itself, which is key enough.
        cls._key = attrgetter(*names)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        # object.__setattr__, not __dict__.update: touching __dict__ would turn
        # the instance's inline attribute values into a dict, and every later
        # attribute read would take a slower path.
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict[str, Any]) -> tuple:
        """Every field's value, in order, from the arguments and the defaults."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields, got {len(args)}")
        for name in names[len(args) :]:
            if name in kwargs:
                args += (kwargs.pop(name),)
            elif name in cls._defaults:
                args += (cls._defaults[name],)
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated fields {', '.join(kwargs)}")
        return args

    def __post_init__(self) -> None:
        """Check the fields; a subclass overrides it."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


class Symbol:
    """A signed generator: a_i for sign +1, its inverse for sign -1.

    Symbols are interned: ``Symbol(i, s)`` always returns the same object,
    which holds its inverse.  Hashing and ``==`` are therefore ``object``'s
    identity slots, which run in C in every dict, set and tuple of symbols.
    """

    __slots__ = ("index", "sign", "_inverse")
    _interned: dict[int, tuple["Symbol", "Symbol"]] = {}

    def __new__(cls, index: int, sign: int) -> "Symbol":
        # Validate before the lookup: True and 1.0 hash equal to 1.
        if type(index) is not int:
            raise ValueError(f"generator index must be an int, got {index!r}")
        if index < 1:
            raise ValueError(f"generator index must be >= 1, got {index}")
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"generator sign must be +1 or -1, got {sign}")
        pair = cls._interned.get(index)
        if pair is None:
            pos, neg = object.__new__(cls), object.__new__(cls)
            for sym, s, inv in ((pos, 1, neg), (neg, -1, pos)):
                object.__setattr__(sym, "index", index)
                object.__setattr__(sym, "sign", s)
                object.__setattr__(sym, "_inverse", inv)
            # setdefault is atomic, so threads that race here agree on one pair.
            pair = cls._interned.setdefault(index, (pos, neg))
        return pair[0] if sign == 1 else pair[1]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an interned Symbol")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an interned Symbol")

    def __reduce__(self) -> tuple:
        return (Symbol, (self.index, self.sign))

    def __repr__(self) -> str:
        return f"Symbol(index={self.index}, sign={self.sign})"

    @classmethod
    def from_signed(cls, value: int) -> "Symbol":
        if type(value) is not int:
            raise ValueError(f"signed generator value must be an int, got {value!r}")
        if value == 0:
            raise ValueError("signed generator value must be nonzero")
        return cls(abs(value), 1 if value > 0 else -1)

    @property
    def signed(self) -> int:
        return self.index * self.sign

    def inverse(self) -> "Symbol":
        return self._inverse

    def key(self) -> tuple[int, int]:
        return (self.index, 0 if self.sign > 0 else 1)

    def __str__(self) -> str:
        return ("a" if self.sign > 0 else "A") + str(self.index)


def _is_reduced(letters: tuple[Symbol, ...]) -> bool:
    return all(a is not b.inverse() for a, b in zip(letters, letters[1:]))


class Word(Record):
    """A reduced word; the empty tuple is the identity."""

    letters: tuple[Symbol, ...] = ()

    # Words are built, hashed and compared on every hot path, so these three
    # are written out instead of taken from Record's generic ones.
    def __init__(self, letters: tuple[Symbol, ...] = ()) -> None:
        if not _is_reduced(letters):
            raise ValueError(f"word is not reduced: {letters}")
        object.__setattr__(self, "letters", letters)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def key(self) -> tuple:
        return (len(self.letters), tuple(s.key() for s in self.letters))

    def __str__(self) -> str:
        sep = "." if any(s.index > 9 for s in self.letters) else ""
        return sep.join(str(s) for s in self.letters)


def _reduced(letters: tuple[Symbol, ...], _new=object.__new__, _set=object.__setattr__) -> Word:
    """The Word of letters already known to be reduced, built without checking them."""
    w = _new(Word)
    _set(w, "letters", letters)
    return w


EPSILON = Word()

_LETTER = re.compile(r"([aA])([1-9][0-9]*)")


def parse_word(text: str) -> Word:
    """Parse ``a1b1A2`` / ``a1.a12`` syntax; the empty string is the identity."""
    if text == "":
        return EPSILON
    if "." in text:
        tokens = text.split(".")
    else:
        tokens = re.findall(r"[aA][0-9]", text)
        if "".join(tokens) != text:
            raise ParseError(f"cannot tokenize word {shown(text)}")
    letters = []
    for tok in tokens:
        m = _LETTER.fullmatch(tok)
        if m is None:
            raise ParseError(f"bad letter {shown(tok)} in word {shown(text)}")
        letters.append(Symbol(bounded_int(m.group(2)), 1 if m.group(1) == "a" else -1))
    if not _is_reduced(tuple(letters)):
        raise ParseError(f"word {shown(text)} is not reduced")
    return Word(tuple(letters))


def word_to_string(w: Word, d: int) -> str:
    sep = "." if d > 9 else ""
    return sep.join(str(s) for s in w.letters)


def word_mul(u: Word, v: Word) -> Word:
    """Concatenate and cancel at the seam; the result is reduced by construction."""
    stack = list(u.letters)
    for s in v.letters:
        if stack and stack[-1] is s.inverse():
            stack.pop()
        else:
            stack.append(s)
    return _reduced(tuple(stack))


def sorted_words(words: Iterable[Word]) -> tuple[Word, ...]:
    return tuple(sorted(words, key=Word.key))


class GeneratorSet(Record):
    """Sigma together with the ambient rank d; generates S = <Sigma>+."""

    d: int
    sigma: frozenset[Symbol]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"rank d must be >= 1, got {self.d}")
        if not self.sigma:
            raise ValueError("Sigma must be nonempty")
        for s in self.sigma:
            if not isinstance(s, Symbol):
                raise ValueError(f"Sigma entries must be Symbols, got {s!r}")
        # Symbols hash by identity, so name the offender in a fixed order.
        for s in self.symbols():
            if s.index > self.d:
                raise ValueError(f"generator {s} exceeds rank d={self.d}")

    @classmethod
    def from_signed(cls, values: Iterable[int], d: int | None = None) -> "GeneratorSet":
        syms = frozenset(Symbol.from_signed(v) for v in values)
        if d is None:
            d = max((s.index for s in syms), default=0)
        return cls(d, syms)

    def symbols(self) -> tuple[Symbol, ...]:
        return tuple(sorted(self.sigma, key=Symbol.key))

    def inverse_pairs(self) -> tuple[tuple[Symbol, Symbol], ...]:
        """(a, a^-1) for each positive a in Sigma whose inverse is too, in ``symbols()`` order."""
        return tuple(
            (s, s.inverse()) for s in self.symbols() if s.sign > 0 and s.inverse() in self.sigma
        )

    @property
    def symmetric(self) -> bool:
        """Sigma = Sigma^-1."""
        return all(s.inverse() in self.sigma for s in self.sigma)

    def missing_positive(self) -> tuple[int, Iterator[Symbol]]:
        """How many of a_1 .. a_d Sigma lacks, and those generators in order, lazily:
        reading k of them costs O(k + |Sigma|), never O(d)."""
        present = {s.index for s in self.sigma if s.sign > 0}
        lacking = (Symbol(i, 1) for i in range(1, self.d + 1) if i not in present)
        return self.d - len(present), lacking

    def extended(self) -> "GeneratorSet":
        return GeneratorSet(self.d, self.sigma | {s.inverse() for s in self.sigma})


def in_semigroup(w: Word, gs: GeneratorSet) -> bool:
    """True iff w is a product of Sigma-letters.

    Exact test: free reduction of a Sigma-letter product only deletes
    letters, so the reduced word consists of Sigma-letters; conversely
    the letters of w, read in order, are such a product.
    """
    return gs.sigma.issuperset(w.letters)


def require_in_semigroup(w: Word, gs: GeneratorSet) -> None:
    """Raise MembershipError unless the site w lies in S = <Sigma>+."""
    if not in_semigroup(w, gs):
        raise MembershipError(f"site {w or 'the empty word'} is not in <Sigma>+")


def ball_count(gs: GeneratorSet, r: int, symbols: int = 1) -> tuple[int, int]:
    """The sites of B_r and the letters in them, counted sphere by sphere without
    building a word: a letter g leads |S_k| words of length k + 1, less those g^-1
    leads at length k.  ValidationError, naming the sites, refuses the first sphere
    that takes a scan of every full pattern on ``symbols`` symbols past MAX_PATTERNS
    patterns, or its sites past MAX_PATTERNS letters (all a one-symbol scan can pass)."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    leads, size, sites, letters = dict.fromkeys(gs.sigma, 0), 1, 0, 0
    for k in range(r + 1):
        sites, letters = sites + size, letters + k * size
        if letters > MAX_PATTERNS or too_many_patterns(symbols, sites):
            held = f"{letters} letters" if letters > MAX_PATTERNS else f"{symbols}^{sites} full patterns"
            raise ValidationError(f"a scan of the radius-{r} ball is refused: its first {sites} "
                                  f"sites give {held}, more than {MAX_PATTERNS}")
        leads = {g: size - leads.get(g.inverse(), 0) for g in leads}
        size = sum(leads.values())
    return sites, letters


def spheres(gs: GeneratorSet, r: int, symbols: int = 1) -> Iterator[list[Word]]:
    """The elements of S of reduced length 0, 1, .., r, one list per length, lazily.

    A word of length k + 1 is g * w for exactly one g in Sigma and one w of
    length k (its leading letter and its tail), so no word repeats.  Each
    list is sorted by ``Word.key``: it runs over Sigma in ``Symbol.key``
    order, and for each g over the previous sorted list.  The first ``next()``
    refuses, before any word is built, a ball that ``ball_count`` refuses.
    """
    ball_count(gs, r, symbols)
    pairs = [(g, g.inverse()) for g in gs.symbols()]
    sphere = [EPSILON]
    yield sphere
    for _ in range(r):
        sphere = [
            _reduced((g,) + w.letters)
            for g, inverse in pairs
            for w in sphere
            if not w.letters or w.letters[0] is not inverse
        ]
        yield sphere


def sorted_ball(gs: GeneratorSet, r: int, symbols: int = 1) -> tuple[Word, ...]:
    """B_r sorted by ``Word.key``: its spheres joined in turn, refused as ``ball_count`` refuses it."""
    return tuple(itertools.chain.from_iterable(spheres(gs, r, symbols)))


def ball(gs: GeneratorSet, r: int) -> frozenset[Word]:
    """All elements of S within r steps of the identity, held to MAX_PATTERNS letters."""
    return frozenset(itertools.chain.from_iterable(spheres(gs, r)))


def _hull(words: Iterable[Word]) -> tuple[list[int], list, list[int]]:
    """The sites' hull, closed under removing leading letters, as ``(parent, letter, site)``.

    Vertex 0 is the identity and vertex i > 0 is ``letter[i]`` times vertex
    ``parent[i] < i``; ``site[j]`` is the j-th word's vertex.  Each site is
    read once, right to left, one lookup per letter keyed by (parent, letter),
    and a vertex joins ``parent`` and ``letter`` as that lookup creates it.
    """
    vertex: dict[tuple[int, Symbol], int] = {}
    parent: list[int] = [-1]
    letter: list = [None]
    site = []
    for w in words:
        v = 0
        for g in reversed(w.letters):
            new = len(parent)
            child = vertex.setdefault((v, g), new)
            if child == new:
                parent.append(v)
                letter.append(g)
            v = child
        site.append(v)
    return parent, letter, site


class Sites(tuple):
    """Sites in order, as a tuple of words, with their hull as ``_hull`` builds it.

    ``parent``, ``letter`` and ``site`` are the hull's tuples, ``letters`` the
    set of letters the words use, ``repeated`` whether two sites are one hull
    vertex, and ``plans`` holds what a measure derives from the hull alone,
    keyed as that measure chooses.  Vertices are made in site order, so the
    first k sites' hull is the first vertices of this one.  Building one
    refuses nothing: a measure reading it calls ``within`` on its own
    generator set.  As with ``tuple``, the Sites of a Sites is itself.
    """

    def __new__(cls, words: Iterable[Word]) -> "Sites":
        if type(words) is cls:
            return words
        self = tuple.__new__(cls, words)
        parent, letter, site = _hull(self)
        self.parent, self.letter, self.site = tuple(parent), tuple(letter), tuple(site)
        self.letters = frozenset(letter[1:])
        self.repeated = len(set(site)) != len(site)  # distinct sites are distinct hull vertices
        self.plans = {}
        return self

    def within(self, gs: GeneratorSet) -> "Sites":
        """The sites, once MembershipError has refused the first outside S and
        ValueError a repeated one."""
        if not gs.sigma.issuperset(self.letters):
            for w in self:
                require_in_semigroup(w, gs)
        if self.repeated:
            raise ValueError("pattern has a repeated site")
        return self


# At most _MEMO_ENTRIES scan layouts are kept, least recently used out first.
_MEMO_ENTRIES = 64


def scan_layout(gs: GeneratorSet, r: int, symbols: int, a: Symbol | None = None) -> tuple:
    """The sites of a scan of every full pattern on B_r: its spheres joined in turn,
    the size of each B_rr in it, and its a-translate (None without a), refused as
    ``ball_count`` refuses them, before any word is built.  Memoized unless over
    one symbol, where a ball may hold MAX_PATTERNS letters; a kept layout keeps
    the hulls and plans of its Sites."""
    return (_kept_layout if symbols > 1 else _kept_layout.__wrapped__)(gs, r, symbols, a)


@functools.lru_cache(_MEMO_ENTRIES)
def _kept_layout(gs: GeneratorSet, r: int, symbols: int, a: Symbol | None) -> tuple:
    if a is not None:
        # Translated from the kept ball, so every translate of it shares its Sites.
        sites, sizes, _ = scan_layout(gs, r, symbols)
        return sites, sizes, Sites(word_mul(w, Word((a,))) for w in sites)
    layers = list(spheres(gs, r, symbols))
    sizes = tuple(itertools.accumulate(map(len, layers)))
    return Sites(itertools.chain.from_iterable(layers)), sizes, None


# Edge, Tree and tree_hull remain only because the benchmark tracer wraps tree_hull by name.
# An edge (parent, child, g) satisfies child == g * parent with
# len(child) == len(parent) + 1; g is the child's leading letter.
Edge = tuple[Word, Word, Symbol]


class Tree(Record):
    """A finite connected set of sites with its induced rooted edges."""

    vertices: frozenset[Word]
    root: Word
    edges: frozenset[Edge]


def tree_hull(words: Iterable[Word], gs: GeneratorSet) -> Tree:
    """The smallest tree rooted at the identity that contains the sites: their hull."""
    for w in (words := list(words)):
        require_in_semigroup(w, gs)
    parent, letter, _ = _hull(words)
    vertices, edges = [EPSILON], set()
    for up, g in zip(parent[1:], letter[1:]):
        vertices.append(Word((g,) + vertices[up].letters))
        edges.add((vertices[up], vertices[-1], g))
    return Tree(frozenset(vertices), EPSILON, frozenset(edges))
