"""Inequality certificates for product-free sets.

Implements the chained refined-density inequality, the greedy extraction of
an increasing length sequence whose refined densities accumulate toward 1,
the resulting window bound, and the golden-ratio level-set argument.  The
threshold phi = (sqrt(5)-1)/2 is never touched as a float: every comparison
of a rational d against phi is exceeds_phi, the algebraic rule
d > phi <=> (2d+1)^2 > 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .density import DEFAULT_MIN_WINDOW, DensityProfile, WindowSpec, layer_counts, profile
from .sets import Dfa, LayeredSet, validate_ell_sequence

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# The golden-ratio threshold


def exceeds_phi(d: Fraction) -> bool:
    """d > phi for rational d >= 0, decided as (2d+1)^2 > 5."""
    if d < 0:
        raise ValueError(f"density must be nonnegative, got {d}")
    t = 2 * d + 1
    return t * t > 5


# ---------------------------------------------------------------------------
# The chained inequality


@dataclass(frozen=True)
class ChainedInequalityReport:
    """Both sides of the chained inequality at (n; l1,...,lk).

    lhs sums refined densities times complementary layer densities plus
    d(n); mid sums the refined densities plus the fully refined d(n; ls).
    For a product-free set, lhs <= mid <= 1.
    """

    n: int
    lengths: tuple[int, ...]
    refined_terms: tuple[Fraction, ...]
    lhs: Fraction
    mid: Fraction
    ok: bool


def chained_inequality_check(
    s: LayeredSet | Dfa, lengths: Sequence[int], n: int
) -> ChainedInequalityReport:
    """Every term from one sweep to n: the li below li are l1..l(i-1)."""
    lengths = tuple(lengths)
    validate_ell_sequence(lengths, n)
    refined = layer_counts(s, n, lengths)
    prof = profile(s, n)
    terms = tuple(Fraction(refined[ell - 1], prof.totals[ell - 1]) for ell in lengths)
    lhs = sum(
        (t * prof.density(n - ell) for t, ell in zip(terms, lengths)),
        prof.density(n),
    )
    mid = sum(terms, Fraction(refined[-1], prof.totals[-1]))
    return ChainedInequalityReport(
        n, lengths, terms, lhs, mid, ok=(lhs <= mid <= 1)
    )


# ---------------------------------------------------------------------------
# Greedy length-sequence extraction


@dataclass(frozen=True)
class LSequence:
    """Increasing lengths with their refined densities and partial sums."""

    lengths: tuple[int, ...]
    terms: tuple[Fraction, ...]
    cumulative: tuple[Fraction, ...]

    @property
    def k(self) -> int:
        return len(self.lengths)

    @property
    def total(self) -> Fraction:
        return self.cumulative[-1] if self.cumulative else Fraction(0)


@dataclass(frozen=True)
class WindowProbe:
    """One inspected window during extraction."""

    stage: int
    window: WindowSpec
    mean: Fraction
    qualifies: bool
    chosen: int | None


@dataclass(frozen=True)
class ExtractionTrace:
    policy: str
    probes: tuple[WindowProbe, ...]
    stop_reason: str


def _doubling_windows(lo: int, horizon: int, min_window: int):
    """Candidate windows: lengths doubling from min_window, starts ascending."""
    length = min_window
    while lo + length - 1 <= horizon:
        for start in range(lo, horizon - length + 2):
            yield WindowSpec(start, start + length - 1)
        length *= 2


def extract_lsequence(
    s: LayeredSet | Dfa,
    p: DensityProfile,
    eps: Fraction,
    min_window: int = DEFAULT_MIN_WINDOW,
) -> tuple[LSequence, ExtractionTrace]:
    """Greedily build lengths l1 < l2 < ... with cumulative refined densities
    reaching 1 - 1/2^k at every stage, up to the horizon of p, s's profile.

    Starts from the smallest l1 with d(l1) >= 1/2; each later stage scans
    windows above the current l for one with mean > 1/2 + eps and picks the
    smallest qualifying n inside it, reading the refined densities of a
    window from one sweep that stops at its end.  Running out of windows or
    candidates is a result (recorded in the trace), not an error.
    """
    horizon = p.horizon
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 1 <= min_window <= horizon:
        raise ValueError(f"min window {min_window} outside 1..{horizon}")
    dens = p.densities

    policy = f"doubling windows, min length {min_window}, starts ascending"
    probes: list[WindowProbe] = []
    lengths: list[int] = []
    terms: list[Fraction] = []
    cumulative: list[Fraction] = []

    first = next((n for n in range(1, horizon + 1) if dens[n - 1] >= HALF), None)
    stop_reason = "no_first_length"
    if first is not None:
        lengths.append(first)
        terms.append(dens[first - 1])
        cumulative.append(dens[first - 1])

    # lengths stays empty only when there is no first length.
    while lengths:
        k = len(lengths)
        if cumulative[-1] >= 1:
            stop_reason = "complete"
            break
        target = 1 - Fraction(1, 2 ** (k + 1))
        threshold = HALF + eps
        chosen: int | None = None
        chosen_term = Fraction(0)
        for window in _doubling_windows(lengths[-1] + 1, horizon, min_window):
            mean = p.mean(window)
            qualifies = mean > threshold
            picked: int | None = None
            if qualifies:
                refined = layer_counts(s, window.end, lengths)
                for n in range(window.start, window.end + 1):
                    t = Fraction(refined[n - 1], p.totals[n - 1])
                    if cumulative[-1] + t >= target:
                        picked = n
                        chosen_term = t
                        break
            probes.append(WindowProbe(k, window, mean, qualifies, picked))
            if picked is not None:
                chosen = picked
                break
        if chosen is None:
            stop_reason = "exhausted"
            break
        lengths.append(chosen)
        terms.append(chosen_term)
        cumulative.append(cumulative[-1] + chosen_term)
    return (
        LSequence(tuple(lengths), tuple(terms), tuple(cumulative)),
        ExtractionTrace(policy, tuple(probes), stop_reason),
    )


# ---------------------------------------------------------------------------
# Window bound


@dataclass(frozen=True)
class WindowCertificate:
    window: WindowSpec
    k: int
    bound: Fraction
    mean: Fraction
    holds: bool


def window_bound_certificate(
    p: DensityProfile, window: WindowSpec, lseq: LSequence
) -> WindowCertificate:
    """Certified window bound 2^k/(2^(k+1)-1) + 2(l_k+1)/|I|.

    p is the set's profile up to any horizon reaching the window's end, so
    one profile serves many windows.  Requires the sequence's cumulative sum
    to have reached 1 - 1/2^k and the window to sit entirely above l_k; the
    verdict asserts the window's mean layer density stays at or below the
    bound.
    """
    k = lseq.k
    if k < 1:
        raise ValueError("window bound needs a nonempty length sequence")
    if lseq.total < 1 - Fraction(1, 2**k):
        raise ValueError(
            f"cumulative refined density {lseq.total} below 1 - 1/2^{k}"
        )
    lk = lseq.lengths[-1]
    if window.start <= lk:
        raise ValueError(f"window must start above l_k = {lk}")
    if p.horizon < window.end:
        raise ValueError(f"window ends past the profile horizon {p.horizon}")
    mean = p.mean(window)
    bound = Fraction(2**k, 2 ** (k + 1) - 1) + Fraction(2 * (lk + 1), window.length)
    return WindowCertificate(window, k, bound, mean, mean <= bound)


# ---------------------------------------------------------------------------
# Level-set argument


@dataclass(frozen=True)
class LevelSetReport:
    """Layers whose density exceeds phi, with the sum-free verdict."""

    horizon: int
    level_set: tuple[int, ...]
    sum_free: bool
    violation: tuple[int, int, int] | None


def phi_level_set(p: DensityProfile) -> LevelSetReport:
    """The layers of p denser than phi, and whether they are sum-free: no
    a + b = c among them, a = b included."""
    level = tuple(n for n, d in enumerate(p.densities, 1) if exceeds_phi(d))
    members = set(level)
    for a in level:
        for b in level:
            if b < a:
                continue
            if a + b in members:
                return LevelSetReport(p.horizon, level, False, (a, b, a + b))
    return LevelSetReport(p.horizon, level, True, None)
