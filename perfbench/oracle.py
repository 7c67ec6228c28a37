"""Brute-force cylinder masses, independent of the library.

Works on the raw chain data from ``fixtures``: words are tuples of
signed generator indices, symbols are alphabet indices.  The hull is
recomputed here as the ancestor closure under leading-letter removal,
and the mass is the sum over every completion of the unconstrained hull
sites of p at the root times one transition factor per edge.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def hull(sites) -> list[tuple[int, ...]]:
    out = {()}
    for w in sites:
        while w:
            out.add(w)
            w = w[1:]
    return sorted(out, key=lambda w: (len(w), w))


def completions(raw: dict, sites) -> int:
    """Number of terms the brute-force sum has for these fixed sites."""
    return len(raw["alphabet"]) ** (len(hull(sites)) - len(set(sites)))


def brute_force_mass(raw: dict, pattern: dict) -> Fraction:
    """Mass of the cylinder fixing ``pattern`` (word -> symbol index)."""
    sites = hull(pattern)
    free = [w for w in sites if w not in pattern]
    p, P = raw["p"], raw["P"]
    total = Fraction(0)
    for combo in itertools.product(range(len(raw["alphabet"])), repeat=len(free)):
        x = dict(pattern)
        x.update(zip(free, combo))
        term = p[x[()]]
        for w in sites:
            if w:
                term *= P[w[0]][x[w[1:]]][x[w]]
        total += term
    return total
