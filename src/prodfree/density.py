"""Exact density profiles and the three density notions.

Layer density d(n) = |S ∩ F(n)| / q**n is computed from big-integer layer
counts; the asymptotic and Banach values over a finite horizon are honest
estimates unless the profile is backed by an automaton whose counts already
fix their minimal linear recurrence, in which case the profile carries the
exact limit, read off the counts' generating function, and both equal it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, repeat
from operator import mul, sub
from typing import Iterable, Iterator

from .sets import (
    REGULAR_HORIZON_CAP, Dfa, LayeredSet, _dfa_sweep, dfa_layer_counts, explicit_layer_counts,
)

DEFAULT_REGULAR_HORIZON = 64
DEFAULT_MIN_WINDOW = 8
# Berlekamp-Massey runs modulo these Mersenne primes, each about twice as wide
# as the one before, which it replaces when no recurrence holds exactly.
_PRIMES = tuple(2**e - 1 for e in (61, 127, 521, 1279, 2281, 4423, 9941, 19937, 44497))


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
    explicit truncation.  limit is the limit of the density means where
    profile certified the automaton's counts' recurrence, and None otherwise:
    an explicit truncation's counts say nothing past its horizon, so no limit
    claimed from it is ever flagged exact.  Densities and prefix sums are
    derived from the counts on first use and kept.
    """

    q: int
    counts: tuple[int, ...]
    num_states: int
    limit: Fraction | None = None

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
        return tuple(accumulate(repeat(self.q, self.horizon), mul))

    @cached_property
    def prefix(self) -> tuple[int, ...]:
        """prefix[n] = (d(1) + ... + d(n)) * q**horizon, an exact integer."""
        out = [0]
        scale = self.totals[-1]
        for count in self.counts:
            scale //= self.q
            out.append(out[-1] + count * scale)
        return tuple(out)

    def mean(self, window: WindowSpec) -> Fraction:
        """Mean layer density over the window."""
        total = self.prefix[window.end] - self.prefix[window.start - 1]
        return Fraction(total, window.length * self.totals[-1])


def _recurrence(s: list[int], k: int, most: int,
                sweep: Iterator[int] = iter(())) -> tuple[int, list[int]] | None:
    """(L, C) with sum C(i) s(n-i) = 0 for n >= L, the shortest recurrence of
    the counts s of a k-state automaton, or None once L passes most.

    Berlekamp-Massey modulo a prime stops once n reaches L + k (Massey 1969).
    The counts have a rational generating function, so by Fatou's lemma
    (Fatou 1906) the shortest C is an integer polynomial with C(0) = 1.  C
    is lifted as symmetric residues and kept only if it holds exactly on the
    first L + k counts; otherwise the next prime is tried.  s is extended
    from sweep when the run needs a count it does not hold.
    """
    for p in _PRIMES:
        c, b, inv, m, order, n, r = [1], [1], 1, 1, 0, 0, []
        while n < order + k:
            if order > most:
                return None
            if n == len(s):
                s.append(next(sweep))
            r.append(s[n] % p)
            gap = sum(map(mul, c, reversed(r))) % p
            if gap:
                f, new = gap * inv % p, c + [0] * (len(b) + m - len(c))
                new[m:m + len(b)] = [(x - f * y) % p for x, y in zip(new[m:], b)]
                if 2 * order <= n:
                    b, inv, order, m = c, pow(gap, -1, p), n + 1 - order, 0
                c = new
            m, n = m + 1, n + 1
        while not c[-1]:  # deg C <= L, so a check reads at most L + 1 counts
            c.pop()
        z = [x - p if 2 * x > p else x for x in c]
        if all(sum(map(mul, z, reversed(s[n - len(z) + 1:n + 1]))) == 0
               for n in range(order, order + k)):
            return order, z
    return None


def _exact_limit(q: int, s: list[int], order: int, c: list[int]) -> Fraction | None:
    """The limit of the density means of the counts s over q symbols, whose
    shortest recurrence _recurrence certified as C of order L.

    Then sum c(j+1) t**j = N/C, and the limit is 0 where C(1/q) != 0 and
    -N(1/q)/C'(1/q) at a simple root; counts with a double root there are
    no automaton's, and get None.  All of it is in integers: C, C' and N are
    evaluated at 1/q times q**L.
    """
    pw = [q ** (order - i) for i in range(order + 1)]  # deg C <= L
    if sum(map(mul, c, pw)):
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
    """Exact density profile of s up to the horizon (an explicit set's own).

    An automaton's counts feed _recurrence as they are swept, for as many
    as the horizon holds.  Once it certifies their recurrence, from L + k
    counts, the layers past them come from it and so does the limit;
    otherwise every layer is swept and there is no limit.
    """
    explicit = isinstance(s, LayeredSet)
    if horizon is None:
        horizon = s.horizon if explicit else DEFAULT_REGULAR_HORIZON
    q = s.alphabet.q
    if explicit:
        return DensityProfile(q, tuple(layer_counts(s, horizon)), 0)
    if horizon > REGULAR_HORIZON_CAP:
        raise ValueError(f"automaton horizon {horizon} over the enumeration budget")
    k, counts, sweep = s.num_states, [], _dfa_sweep(s)
    found = _recurrence(counts, k, horizon - k, sweep)
    if found is None:  # the run read at most horizon counts
        counts.extend(islice(sweep, horizon - len(counts)))
        return DensityProfile(q, tuple(counts), k)
    order, c = found  # C is an integer polynomial with C(0) = 1
    terms = [(i, x) for i, x in enumerate(c) if i and x]
    for n in range(len(counts), horizon):
        counts.append(-sum(x * counts[n - i] for i, x in terms))
    return DensityProfile(q, tuple(counts), k, _exact_limit(q, counts, order, c))


def _limit(p: DensityProfile, windows: Iterable[tuple[int, int]]) -> DensityLimit:
    """The first window (start, end) of largest mean, and the limit it
    estimates.

    The value is exact when the profile carries its limit, which both
    limsups equal, and is the largest mean otherwise.
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
    Windows of one length compare by their sums, so only the first of largest
    sum per length can be the first window of largest mean; _limit gets
    those, in (start, end) order.
    """
    h = p.horizon
    if not 1 <= min_window <= h:
        raise ValueError(
            f"min window {min_window} outside 1..{h}"
        )
    prefix, best = p.prefix, []
    for length in range(min_window, min(h, 2 * min_window - 1) + 1):
        sums = list(map(sub, prefix[length:], prefix[:h + 1 - length]))
        m = sums.index(max(sums)) + 1
        best.append((m, m + length - 1))
    return _limit(p, sorted(best))
