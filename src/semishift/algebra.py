"""Reduced words, generator sets, Cayley balls, and rooted trees.

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

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import MembershipError, ParseError

# Vectors in Z^d, used by the lattice-window operations; membership in
# N^d means every coordinate is nonnegative.
LatticeVector = tuple[int, ...]


def vec_add(u: LatticeVector, v: LatticeVector) -> LatticeVector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: LatticeVector, v: LatticeVector) -> LatticeVector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_min(vectors: Iterable[LatticeVector]) -> LatticeVector:
    vs = list(vectors)
    if not vs:
        raise ValueError("need at least one vector")
    return tuple(min(col) for col in zip(*vs, strict=True))


@dataclass(frozen=True)
class Symbol:
    """A signed generator: a_i for sign +1, its inverse for sign -1."""

    index: int
    sign: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"generator index must be >= 1, got {self.index}")
        if self.sign not in (1, -1):
            raise ValueError(f"generator sign must be +1 or -1, got {self.sign}")

    @classmethod
    def from_signed(cls, value: int) -> "Symbol":
        if value == 0:
            raise ValueError("signed generator value must be nonzero")
        return cls(abs(value), 1 if value > 0 else -1)

    @property
    def signed(self) -> int:
        return self.index * self.sign

    def inverse(self) -> "Symbol":
        return Symbol(self.index, -self.sign)

    def key(self) -> tuple[int, int]:
        return (self.index, 0 if self.sign > 0 else 1)

    def __str__(self) -> str:
        return ("a" if self.sign > 0 else "A") + str(self.index)


def _is_reduced(letters: tuple[Symbol, ...]) -> bool:
    return all(letters[i] != letters[i + 1].inverse() for i in range(len(letters) - 1))


@dataclass(frozen=True)
class Word:
    """A reduced word; the empty tuple is the identity."""

    letters: tuple[Symbol, ...] = ()

    def __post_init__(self) -> None:
        if not _is_reduced(self.letters):
            raise ValueError(f"word is not reduced: {self.letters}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return word_mul(self, other)

    def inverse(self) -> "Word":
        return Word(tuple(s.inverse() for s in reversed(self.letters)))

    def key(self) -> tuple:
        return (len(self.letters), tuple(s.key() for s in self.letters))

    def __str__(self) -> str:
        sep = "." if any(s.index > 9 for s in self.letters) else ""
        return sep.join(str(s) for s in self.letters)


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
            raise ParseError(f"cannot tokenize word {text!r}")
    letters = []
    for tok in tokens:
        m = _LETTER.fullmatch(tok)
        if m is None:
            raise ParseError(f"bad letter {tok!r} in word {text!r}")
        letters.append(Symbol(int(m.group(2)), 1 if m.group(1) == "a" else -1))
    if not _is_reduced(tuple(letters)):
        raise ParseError(f"word {text!r} is not reduced")
    return Word(tuple(letters))


def word_to_string(w: Word, d: int) -> str:
    sep = "." if d > 9 else ""
    return sep.join(str(s) for s in w.letters)


def word_mul(u: Word, v: Word) -> Word:
    """Concatenate and cancel at the seam."""
    stack = list(u.letters)
    for s in v.letters:
        if stack and stack[-1] == s.inverse():
            stack.pop()
        else:
            stack.append(s)
    return Word(tuple(stack))


def prepend(g: Symbol, w: Word) -> Word:
    """The reduced product g * w, a Cayley neighbour of w."""
    if w.letters and w.letters[0] == g.inverse():
        return Word(w.letters[1:])
    return Word((g,) + w.letters)


def sorted_words(words: Iterable[Word]) -> tuple[Word, ...]:
    return tuple(sorted(words, key=Word.key))


@dataclass(frozen=True)
class GeneratorSet:
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

    def covers_positive(self) -> bool:
        return all(Symbol(i, 1) in self.sigma for i in range(1, self.d + 1))

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


def ball(gs: GeneratorSet, r: int) -> frozenset[Word]:
    """All elements of S reachable from the identity in at most r steps."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    seen = {EPSILON}
    frontier = [EPSILON]
    for _ in range(r):
        nxt = []
        for w in frontier:
            for g in gs.sigma:
                v = prepend(g, w)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return frozenset(seen)


def _ancestor_closure(words: Iterable[Word], gs: GeneratorSet) -> set[tuple[Symbol, ...]]:
    """Letter tuples of the sites and every suffix of them, the identity included.

    Raises MembershipError for the first site outside S.
    """
    closure: set[tuple[Symbol, ...]] = {()}
    for w in words:
        require_in_semigroup(w, gs)
        letters = w.letters
        while letters not in closure:
            closure.add(letters)
            letters = letters[1:]
    return closure


# Edge, Tree and tree_hull remain only because the benchmark tracer wraps tree_hull by name.
# An edge (parent, child, g) satisfies child == g * parent with
# len(child) == len(parent) + 1; g is the child's leading letter.
Edge = tuple[Word, Word, Symbol]


@dataclass(frozen=True)
class Tree:
    """A finite connected set of sites with its induced rooted edges."""

    vertices: frozenset[Word]
    root: Word
    edges: frozenset[Edge]


def tree_hull(words: Iterable[Word], gs: GeneratorSet) -> Tree:
    """The smallest tree rooted at the identity that contains the sites: their ancestor closure."""
    vertices = frozenset(Word(t) for t in _ancestor_closure(words, gs))
    edges = frozenset((Word(v.letters[1:]), v, v.letters[0]) for v in vertices if v)
    return Tree(vertices, EPSILON, edges)
