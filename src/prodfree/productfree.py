"""Deciding product-freeness exactly, with witnesses.

A set S is product-free when no x, y, z in S (not necessarily distinct)
satisfy x.y = z.  Explicit truncations treat the ball F_<=(N) as the
universe: products longer than N are unconstrained, so a truncation can
look denser than any genuinely infinite product-free set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .density import profile
from .sets import (
    DEFAULT_STATE_CAP,
    Dfa,
    LayeredSet,
    _first_split,
    _iter_bits,
    dfa_concat,
    dfa_intersect,
    dfa_is_empty,
)
from .words import Word, concat, unrank


@dataclass(frozen=True)
class WitnessTriple:
    """A violating triple: x.y = z with all three in the set."""

    x: Word
    y: Word
    z: Word

    def __post_init__(self) -> None:
        if concat(self.x, self.y) != self.z:
            raise ValueError("witness does not satisfy x.y = z")


def check_explicit(s: LayeredSet) -> WitnessTriple | None:
    """None if product-free within the horizon, else the least witness.

    The witness minimises (|z|, rank(z), |x|): scan products by their
    target layer, then by the target's rank, then by the split point.
    """
    q = s.alphabet.q
    for n in range(2, s.horizon + 1):
        layer = s.layers[n]
        if not layer:
            continue
        splits = [
            m for m in range(1, n) if s.layers[m] and s.layers[n - m]
        ]
        if not splits:
            continue
        for r in _iter_bits(layer):
            m = _first_split(s.layers, q, n, r, splits)
            if m:
                tail = q ** (n - m)
                return WitnessTriple(
                    unrank(s.alphabet, m, r // tail),
                    unrank(s.alphabet, n - m, r % tail),
                    unrank(s.alphabet, n, r),
                )
    return None


def check_regular(d: Dfa, state_cap: int = DEFAULT_STATE_CAP) -> WitnessTriple | None:
    """None iff (L.L) ∩ L is empty, over all lengths.

    Otherwise returns a shortest z in the intersection (lex-least among the
    shortest) with its earliest split into two members.
    """
    bad = dfa_intersect(dfa_concat(d, d, state_cap), d)
    empty, z = dfa_is_empty(bad)
    if empty:
        return None
    assert z is not None
    for m in range(1, len(z)):
        x = Word(d.alphabet, z.indices[:m])
        y = Word(d.alphabet, z.indices[m:])
        if d.accepts(x) and d.accepts(y):
            return WitnessTriple(x, y, z)
    raise AssertionError("witness from (L.L) ∩ L has no split; automaton bug")


@dataclass(frozen=True)
class PairwiseRecord:
    """One instance of d(m) d(n) + d(m+n), flagged when above 1."""

    m: int
    n: int
    lhs: Fraction
    violated: bool


def pairwise_inequality(s: LayeredSet | Dfa, horizon: int) -> list[PairwiseRecord]:
    """Evaluate d(m)d(n) + d(m+n) for all 1 <= m <= n with m+n <= horizon.

    Product-free sets never violate the bound of 1; violations are returned
    as a diagnostic for sets that are not product-free.
    """
    prof = profile(s, horizon)
    out = []
    for m in range(1, horizon // 2 + 1):
        for n in range(m, horizon - m + 1):
            lhs = prof.density(m) * prof.density(n) + prof.density(m + n)
            out.append(PairwiseRecord(m, n, lhs, lhs > 1))
    return out
