"""Exact density profiles and the three density notions.

Layer density d(n) = |S ∩ F(n)| / q**n is computed from big-integer layer
counts; the asymptotic and Banach values over a finite horizon are honest
estimates unless the profile is backed by an automaton whose counts already
fix their minimal linear recurrence, in which case both are the exact limit
read off the counts' generating function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable

from .sets import Dfa, LayeredSet, dfa_layer_counts, explicit_layer_counts

DEFAULT_REGULAR_HORIZON = 64
DEFAULT_MIN_WINDOW = 8


@dataclass(frozen=True)
class WindowSpec:
    """A closed integer interval [start, end] of layer indices."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 1 or self.end < self.start:
            raise ValueError(f"bad window [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class DensityProfile:
    """Layer counts |S ∩ F(n)| for n = 1..horizon over a q-symbol alphabet.

    num_states is the size of the automaton behind the profile, or 0 for an
    explicit truncation, whose counts say nothing past its horizon, so no
    limit claimed from it is ever flagged exact.  Densities and prefix sums
    are derived from the counts on first use and kept.
    """

    q: int
    counts: tuple[int, ...]
    num_states: int

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("profile must cover layers 1..horizon, horizon >= 1")

    @property
    def horizon(self) -> int:
        return len(self.counts)

    @property
    def extendable(self) -> bool:
        """Backed by an automaton, so counts are determined at every length."""
        return self.num_states > 0

    def density(self, n: int) -> Fraction:
        if not 1 <= n <= self.horizon:
            raise ValueError(f"layer {n} outside profile horizon {self.horizon}")
        return self.densities[n - 1]

    @cached_property
    def densities(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, t) for c, t in zip(self.counts, self.totals))

    @cached_property
    def totals(self) -> tuple[int, ...]:
        """q**n for n = 1..horizon."""
        return tuple(self.q**n for n in range(1, self.horizon + 1))

    @cached_property
    def prefix(self) -> tuple[int, ...]:
        """prefix[n] = (d(1) + ... + d(n)) * q**horizon, an exact integer."""
        out = [0]
        scale = self.q**self.horizon
        for count in self.counts:
            scale //= self.q
            out.append(out[-1] + count * scale)
        return tuple(out)

    def mean(self, window: WindowSpec) -> Fraction:
        """Mean layer density over the window."""
        total = self.prefix[window.end] - self.prefix[window.start - 1]
        return Fraction(total, window.length * self.q**self.horizon)

    @cached_property
    def limit(self) -> Fraction | None:
        """The limit of the density means, or None if the counts do not fix it.

        The counts of a k-state automaton obey a linear recurrence of order at
        most k.  Berlekamp-Massey finds the shortest one, of order L, and it
        holds at every length once it has generated L + k counts (Massey
        1969).  Then sum c(j+1) t**j = N/C, and the limit is 0 where
        C(1/q) != 0 and -N(1/q)/C'(1/q) at a simple root; a profile with a
        double root there is no automaton's, and gets None.  All of it is in
        integers: C <- last*C - gap*t**m*B is divided by its content, and
        C, C' and N are evaluated at 1/q times q**L.
        """
        k, q, s = self.num_states, self.q, self.counts
        if not k:
            return None
        c, b, last, m, order, n = [1], [1], 1, 1, 0, 0
        while n < order + k:
            if order + k > len(s):  # the order never falls: n cannot get there
                return None
            gap = sum(x * y for x, y in zip(c, s[n::-1]))
            if gap:
                new = [last * x for x in c] + [0] * (len(b) + m - len(c))
                for i, x in enumerate(b):
                    new[i + m] -= gap * x
                g = gcd(*new)
                if 2 * order <= n:
                    b, last, order, m = c, gap, n + 1 - order, 0
                c = [x // g for x in new]
            m, n = m + 1, n + 1
        pw = [q ** (order - i) for i in range(order + 1)]  # deg C <= L
        if sum(x * y for x, y in zip(c, pw)):
            return Fraction(0)
        slope = sum(i * x * y for i, (x, y) in enumerate(zip(c, pw)))  # q**(L-1) C'
        num = sum(sum(x * y for x, y in zip(c, s[i::-1])) * pw[i] for i in range(order))
        return Fraction(-num, q * slope) if slope else None


@dataclass(frozen=True)
class DensityLimit:
    """Result of an asymptotic/Banach evaluation over a finite profile.

    value is the exact limit when exact is set, and otherwise the best
    finite-horizon estimate; window is the window attaining that estimate.
    """

    value: Fraction
    exact: bool
    finite_max: Fraction
    window: WindowSpec


def layer_counts(s: LayeredSet | Dfa, horizon: int, ells: Iterable[int] = ()) -> list[int]:
    """[|S(n; the li below n)| for n = 1..horizon] from s's representation."""
    if isinstance(s, LayeredSet):
        return explicit_layer_counts(s, horizon, ells)
    return dfa_layer_counts(s, horizon, ells)


def profile(s: LayeredSet | Dfa, horizon: int | None = None) -> DensityProfile:
    """Exact density profile of s up to the horizon (an explicit set's own)."""
    explicit = isinstance(s, LayeredSet)
    if horizon is None:
        horizon = s.horizon if explicit else DEFAULT_REGULAR_HORIZON
    counts = tuple(layer_counts(s, horizon))
    return DensityProfile(s.alphabet.q, counts, 0 if explicit else s.num_states)


def _limit(p: DensityProfile, windows: Iterable[tuple[int, int]]) -> DensityLimit:
    """The first window (start, end) of largest mean, and the limit it
    estimates.

    The value is exact when the counts fix the profile's limit
    (DensityProfile.limit), which both limsups equal, and is the largest
    mean otherwise.
    """
    prefix = p.prefix
    # Means compared by cross-multiplication over the common q**horizon;
    # the -1 start loses to every window.
    best_sum, best_len, best = -1, 1, (1, 1)
    for m, n in windows:
        total = prefix[n] - prefix[m - 1]
        if total * best_len > best_sum * (n - m + 1):
            best_sum, best_len, best = total, n - m + 1, (m, n)
    window = WindowSpec(*best)
    finite_max = p.mean(window)
    if p.limit is None:
        return DensityLimit(finite_max, False, finite_max, window)
    return DensityLimit(p.limit, True, finite_max, window)


def upper_asymptotic(p: DensityProfile) -> DensityLimit:
    """limsup of prefix averages: exact once the counts fix the limit."""
    return _limit(p, ((1, n) for n in range(1, p.horizon + 1)))


def upper_banach(p: DensityProfile, min_window: int = DEFAULT_MIN_WINDOW) -> DensityLimit:
    """limsup of window means over windows of length >= min_window.

    Lengths below 2*min_window suffice: a longer window of largest mean splits
    into two of length >= min_window and the same mean, the first one earlier.
    """
    h = p.horizon
    if not 1 <= min_window <= h:
        raise ValueError(
            f"min window {min_window} outside 1..{h}"
        )
    return _limit(p, (
        (m, n) for m in range(1, h - min_window + 2)
        for n in range(m + min_window - 1, min(h, m + 2 * min_window - 2) + 1)
    ))
