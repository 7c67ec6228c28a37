"""Finite orbits of the shift action, encoded as labelled automata.

A state stands for a configuration in the orbit; following the a-arrow
moves to the a-shifted configuration, and the label is the symbol the
configuration shows at the identity.  Reading a word right to left from
the base state therefore recovers the base configuration's symbol at
that word.  All semantic questions (orbit size, periodicity,
transitivity, the transformation monoid) are asked of the minimized
automaton, where distinct states are distinct configurations; each
automaton computes that form once and keeps it as ``minimal``.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from .algebra import (
    GeneratorSet,
    Record,
    Sites,
    Symbol,
    Word,
    ball_count,
    require_in_semigroup,
    sorted_ball,
)
from .errors import (
    MAX_PATTERNS,
    BudgetExhausted,
    FactorizationError,
    NotPeriodic,
    ValidationError,
    shown,
)
from .measure import (
    MixtureMeasure,
    Pattern,
    require_distinct_symbols,
    require_pattern,
)

Perm = tuple[int, ...]


def _composer(inner: Perm) -> Callable[[Perm], Perm]:
    """The map ``outer -> compose(outer, inner)``."""
    if len(inner) > 1:
        return itemgetter(*inner)
    # itemgetter refuses no index and returns a bare point for one
    return lambda outer: tuple(outer[i] for i in inner)


def compose(outer: Perm, inner: Perm) -> Perm:
    """Apply inner first, then outer."""
    return _composer(inner)(outer)


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def _is_permutation(row: Sequence[int]) -> bool:
    return sorted(row) == list(range(len(row)))


def _closure(
    start: Hashable, step: Callable[[Any], Iterable[Hashable]], degree: int = 0,
    what: str = "", items: str = "",
) -> set:
    """Everything reachable from start by repeated steps, start included.

    Given a ``degree``, each element is a map of that many points, and
    ValidationError refuses ``what`` as soon as the walk finds more of
    those ``items`` than MAX_PATTERNS points hold.
    """
    most = MAX_PATTERNS // degree if degree else math.inf
    seen = {start}
    frontier = [start]
    while frontier and len(seen) <= most:
        for nxt in step(frontier.pop()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) > most:
        raise ValidationError(
            f"{what} is refused: it has more than {most} {items} of degree {degree}, "
            f"more than {MAX_PATTERNS} entries"
        )
    return seen


class OrbitAutomaton(Record):
    """Deterministic, fully reachable, label-carrying transition system.

    Over a Sigma closed under inverses (``gs.symmetric``) every row is a
    bijection and its partner row its inverse: a group orbit.
    """

    gs: GeneratorSet
    alphabet: tuple
    labels: tuple
    delta: dict[Symbol, tuple[int, ...]]
    base: int = 0

    def __post_init__(self) -> None:
        require_distinct_symbols(self.alphabet)
        n = len(self.labels)
        if n == 0:
            raise ValidationError("automaton needs at least one state")
        if set(self.delta) != set(self.gs.sigma):
            raise ValidationError("delta must cover Sigma exactly")
        for sym, row in self.delta.items():
            if len(row) != n or any(not (0 <= q < n) for q in row):
                raise ValidationError(f"delta[{sym}] is not a total map on {n} states")
        for c in self.labels:
            if c not in self.alphabet:
                raise ValidationError(f"label {c!r} is not in the alphabet")
        if not (0 <= self.base < n):
            raise ValidationError(f"base state {self.base} out of range")
        # When Sigma holds both signs of a generator, the two arrows must
        # be mutually inverse or the states cannot encode one orbit.
        for sym, inv in self.gs.inverse_pairs():
            fwd, bwd = self.delta[sym], self.delta[inv]
            if not _is_permutation(fwd) or perm_inverse(fwd) != bwd:
                raise ValidationError(f"delta[{sym}] and delta[{inv}] are not inverse bijections")
        rows = self.delta.values()
        if len(_closure(self.base, lambda q: [row[q] for row in rows])) != n:
            raise ValidationError("every state must be reachable from the base")

    def n_states(self) -> int:
        return len(self.labels)

    @cached_property
    def minimal(self) -> "OrbitAutomaton":
        """The minimized form, computed on first use and kept."""
        return minimized(self)

    def eval(self, pattern: Pattern) -> Fraction:
        """The uniform measure on the orbit: the share of its configurations showing the pattern."""
        require_pattern(pattern, self.gs, self.alphabet)
        m = self.minimal
        shown = tuple(c for _, c in pattern.items())
        return Fraction(_shown(m, pattern.sites).count(shown), m.n_states())

    def masses(self, sites: Sequence[Word]) -> tuple[list[int], int]:
        """Every full pattern's count of minimal states showing it, over their number."""
        sites = Sites(sites).within(self.gs)
        m = self.minimal
        index = {c: i for i, c in enumerate(self.alphabet)}
        out = [0] * len(index) ** len(sites)
        for shown, hits in Counter(_shown(m, sites)).items():
            code = 0
            for c in shown:
                code = code * len(index) + index[c]
            out[code] = hits
        return out, m.n_states()


def _shown(o: OrbitAutomaton, sites: Sites) -> list[tuple]:
    """What each state's configuration shows at the sites, state by state;
    the caller has checked them against o's S."""
    parent, letter, site = sites.parent, sites.letter, sites.site
    # reached[v][q]: the state whose label q's configuration shows at vertex v
    reached: list[Sequence[int]] = [range(o.n_states())]
    for up, g in zip(parent[1:], letter[1:]):
        row = o.delta[g]
        reached.append([row[q] for q in reached[up]])
    columns = [[o.labels[q] for q in reached[v]] for v in site]
    return list(zip(*columns)) if sites else [()] * o.n_states()


def readout(o: OrbitAutomaton, w: Word) -> object:
    """The base configuration's symbol at site w."""
    require_in_semigroup(w, o.gs)
    q = o.base
    for s in reversed(w.letters):
        q = o.delta[s][q]
    return o.labels[q]


def _numbered(keys: Iterable[Hashable]) -> list[int]:
    """Each key's class number, classes numbered by first appearance."""
    seen: dict = {}
    return [seen.setdefault(key, len(seen)) for key in keys]


def minimized(o: OrbitAutomaton) -> OrbitAutomaton:
    """Merge states indistinguishable by labels along every word."""
    syms = o.gs.symbols()
    n = o.n_states()
    block = _numbered(o.labels)
    # A state's key: its class and its successors' classes, one per generator.
    while (nxt := _numbered(zip(block, *([block[t] for t in o.delta[s]] for s in syms)))) != block:
        block = nxt
    classes = len(set(block))
    rep = {}
    for q in range(n):
        rep.setdefault(block[q], q)
    labels = tuple(o.labels[rep[b]] for b in range(classes))
    delta = {
        s: tuple(block[o.delta[s][rep[b]]] for b in range(classes)) for s in syms
    }
    return OrbitAutomaton(o.gs, o.alphabet, labels, delta, block[o.base])


def orbit_size(o: OrbitAutomaton) -> int:
    """Number of distinct configurations in the orbit of the base point."""
    return o.minimal.n_states()


def is_periodic(o: OrbitAutomaton) -> bool:
    """True iff every generator acts bijectively on the orbit."""
    return _non_bijective(o) is None


def _non_bijective(o: OrbitAutomaton) -> Symbol | None:
    """The first generator that does not act bijectively on the orbit, or None."""
    m = o.minimal
    return next((s for s in m.gs.symbols() if not _is_permutation(m.delta[s])), None)


def is_transitive(o: OrbitAutomaton) -> bool:
    """True iff every configuration in the orbit reaches every other."""
    m = o.minimal
    n = m.n_states()
    # All states are reachable from the base, so strong connectivity is
    # equivalent to the base being reachable from every state.
    reverse: dict[int, set[int]] = {q: set() for q in range(n)}
    for row in m.delta.values():
        for q, nxt in enumerate(row):
            reverse[nxt].add(q)
    return len(_closure(m.base, reverse.__getitem__)) == n


def _regular(m: OrbitAutomaton) -> bool:
    """Whether the group that m's bijective rows generate acts regularly.

    Every state is reachable from the base, so the group G is transitive.
    The maps commuting with G then form a semiregular group C, and C is
    transitive exactly when G is regular (Dixon and Mortimer, Permutation
    Groups, Thm 4.2A).  A map of C is fixed by its image of the base, so
    one pass along a spanning tree builds the only candidate sending the
    base to a state q, and the rows decide whether it commutes.  Each map
    found at least doubles the part of C found so far, so at most
    log2(n) + 1 maps of n points are built.
    """
    rows = [m.delta[s] for s in m.gs.symbols()]
    n = m.n_states()
    # (state, row, successor) arrows of a spanning tree, each state before its successors
    tree = []
    order = [m.base]
    seen = {m.base}
    for p in order:
        for row in rows:
            if row[p] not in seen:
                seen.add(row[p])
                order.append(row[p])
                tree.append((p, row, row[p]))
    maps: list[Perm] = []
    reached = {m.base}
    for q in range(n):
        if q in reached:
            continue
        image = [0] * n
        image[m.base] = q
        for p, row, nxt in tree:
            image[nxt] = row[image[p]]
        phi = tuple(image)
        if any(compose(phi, row) != compose(row, phi) for row in rows):
            return False
        maps.append(phi)
        reached = _closure(m.base, lambda p: [f[p] for f in maps])
    return True


def transformation_monoid(o: OrbitAutomaton) -> tuple[int, bool]:
    """Size of the monoid of orbit maps induced by S, and whether it is a group.

    The monoid is a group exactly when every generator is a bijection:
    each generator lies in the monoid, and bijections of a finite set
    compose to bijections whose inverses are positive powers.  A group
    that acts regularly on the n minimal states has n elements; ``_regular``
    certifies that with at most log2(n) + 1 maps commuting with every
    generator, and no element is listed.  Any other monoid is listed map
    by map, and ValidationError refuses it when its maps hold more than
    MAX_PATTERNS points in all, as soon as the walk that lists them finds
    one too many.
    """
    m = o.minimal
    group = _non_bijective(o) is None
    if group and _regular(m):
        return m.n_states(), True
    after = [_composer(m.delta[s]) for s in m.gs.symbols()]
    monoid = _closure(
        tuple(range(m.n_states())), lambda f: [g(f) for g in after],
        m.n_states(), "the monoid of orbit maps", "transformations",
    )
    return len(monoid), group


def _morphism_image(theta: Mapping[Symbol, Perm], w: Word, degree: int) -> Perm:
    img: Perm = tuple(range(degree))
    for s in w.letters:
        img = compose(img, theta[s])
    return img


def _validate_morphism(
    theta: Mapping[Symbol, Perm], gs: GeneratorSet
) -> tuple[dict[Symbol, Perm], int]:
    if set(theta) != set(gs.sigma):
        raise ValidationError("morphism must assign one permutation per generator")
    degrees = {len(p) for p in theta.values()}
    if len(degrees) != 1:
        raise ValidationError("morphism permutations must share one degree")
    (degree,) = degrees
    out = {}
    for sym, p in theta.items():
        p = tuple(p)
        if not _is_permutation(p):
            raise ValidationError(f"theta[{sym}] = {p} is not a permutation")
        out[sym] = p
    for sym, inv in gs.inverse_pairs():
        if out[inv] != perm_inverse(out[sym]):
            raise ValidationError(f"theta[{inv}] must be the inverse of theta[{sym}]")
    return out, degree


def theorem_a_point(
    pattern: Pattern,
    theta: Mapping[Symbol, Perm],
    gs: GeneratorSet,
    alphabet: Sequence,
    fill: object | None = None,
) -> OrbitAutomaton:
    """Periodic point through a finite pattern, via a permutation morphism.

    States are the finite group generated by the images of the
    generators; the a-arrow left-multiplies by theta(a).  Labels copy the
    pattern through theta and default to ``fill`` (the first alphabet
    symbol when omitted) elsewhere.  The construction requires the
    pattern to factor through theta: two sites with different symbols
    must not collapse to the same group element.  ValidationError refuses
    a group whose elements hold more than MAX_PATTERNS points in all, as
    soon as the walk that lists them finds one too many.
    """
    theta_map, degree = _validate_morphism(theta, gs)
    alphabet = tuple(alphabet)
    fill = alphabet[0] if fill is None else fill
    if fill not in alphabet:
        raise ValidationError(f"fill symbol {shown(fill)} is not in the alphabet")
    require_pattern(pattern, gs, alphabet)
    word_labels: dict[Perm, object] = {}
    for w, c in pattern.items():
        img = _morphism_image(theta_map, w, degree)
        if word_labels.get(img, c) != c:
            raise FactorizationError(
                f"pattern does not factor: sites {w} and an earlier site share "
                f"theta-image {img} but carry different symbols"
            )
        word_labels[img] = c
    identity = tuple(range(degree))
    gens = [theta_map[s] for s in gs.symbols()]
    group = _closure(
        identity, lambda f: [compose(g, f) for g in gens],
        degree, "the group theta generates", "permutations",
    )
    states = sorted(group)
    index = {f: i for i, f in enumerate(states)}
    labels = tuple(word_labels.get(f, fill) for f in states)
    delta = {
        s: tuple(index[compose(theta_map[s], f)] for f in states)
        for s in gs.symbols()
    }
    return OrbitAutomaton(
        gs=gs, alphabet=alphabet, labels=labels, delta=delta, base=index[identity]
    )


def find_separating_morphism(
    gs: GeneratorSet, r: int, k: int, seed: int, budget: int = 10000
) -> dict[Symbol, Perm]:
    """Search for a degree-k permutation morphism injective on the r-ball.

    Deterministic for a fixed seed.  One permutation is drawn per
    generator index; when Sigma holds both signs, the negative one is the
    inverse, as any morphism into a group requires.  ValidationError
    refuses a degree above MAX_PATTERNS, a ball ``ball_count`` refuses and a trial
    taking more steps before any word is built; B_r is built once, for the trials.
    """
    if not 1 <= k <= MAX_PATTERNS:
        raise ValidationError(f"degree k must be between 1 and {MAX_PATTERNS}, got {shown(k)}")
    size, letters = ball_count(gs, r)
    # Only k < |B_r| can have k! < |B_r|, and only k < 11: 11! > MAX_PATTERNS + 1 >= |B_r|.
    if k < min(size, 11) and math.factorial(k) < size:
        raise BudgetExhausted(
            f"no injection possible: the {r}-ball has {size} elements "
            f"but Sym({k}) has only {math.factorial(k)}"
        )
    if budget > 0 and (steps := k * (size + letters)) > MAX_PATTERNS:
        raise ValidationError(f"a trial of degree {k} on the {r}-ball is refused: it takes {k} x "
                              f"(words + letters) = {steps} steps, more than {MAX_PATTERNS}")
    words = sorted_ball(gs, r) if budget > 0 else ()
    rng = random.Random(seed)
    indices = sorted({s.index for s in gs.sigma})
    for _ in range(budget):
        chosen: dict[int, Perm] = {}
        for i in indices:
            p = list(range(k))
            rng.shuffle(p)
            chosen[i] = tuple(p)
        theta = {}
        for s in gs.sigma:
            theta[s] = chosen[s.index] if s.sign > 0 else perm_inverse(chosen[s.index])
        images = {_morphism_image(theta, w, k) for w in words}
        if len(images) == size:
            return {s: theta[s] for s in gs.symbols()}
    raise BudgetExhausted(f"no separating morphism found in {budget} trials")


def lift_to_group(o: OrbitAutomaton) -> OrbitAutomaton:
    """Extend a periodic orbit to moves by every signed generator.

    On a periodic orbit each generator acts bijectively, so the inverse
    generator must act as the inverse map; the lifted automaton reads out
    a configuration over the whole group whose restriction to S is the
    original configuration.  Its Sigma is closed under inverses.
    """
    bad = _non_bijective(o)
    if bad is not None:
        raise NotPeriodic(f"delta[{bad}] is not a bijection on the orbit")
    m = o.minimal
    full = m.gs.extended()
    delta = dict(m.delta)
    for sym in full.sigma - m.gs.sigma:
        delta[sym] = perm_inverse(m.delta[sym.inverse()])
    return OrbitAutomaton(full, m.alphabet, m.labels, delta, m.base)


class PeriodicMeasure(MixtureMeasure):
    """Convex combination of uniform measures on finite periodic orbits, its components."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not all(isinstance(o, OrbitAutomaton) for o in self.components):
            raise ValidationError("every component of a periodic measure must be an OrbitAutomaton")
        if any(_non_bijective(o) is not None for o in self.components):
            raise NotPeriodic("every orbit in a periodic measure must be periodic")

    @property
    def orbits(self) -> tuple[OrbitAutomaton, ...]:
        return self.components


def periodic_measure_eval(pm: PeriodicMeasure, pattern: Pattern) -> Fraction:
    """Weighted fraction of orbit points whose configuration shows the pattern."""
    return MixtureMeasure.eval(pm, pattern)
