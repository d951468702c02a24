import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from prodfree.constructions import odd_occurrence
from prodfree.density import (
    DensityProfile,
    _limit,
    ball_density,
    detect_period,
    frac_str,
    limits_report,
    profile,
    profile_csv,
    refined_density,
    upper_asymptotic,
    upper_banach,
)
from prodfree.sets import (
    Dfa,
    dfa_full,
    dfa_layer_counts,
    dfa_truncate,
    explicit_empty,
    explicit_from_words,
    explicit_full,
)
from prodfree.words import Alphabet, layer_words

AB = Alphabet("ab")
ODD_A = odd_occurrence(AB, "a")
ODD_LEN = odd_occurrence(AB, "ab")
FULL = dfa_full(AB)
HALF = Fraction(1, 2)


def _full_banach(p, min_window):
    """upper_banach over every window of length >= min_window, in (start,
    end) order: the quadratic scan the bounded one must agree with."""
    h = p.horizon
    return _limit(p, (
        (m, n) for m in range(1, h - min_window + 2)
        for n in range(m + min_window - 1, h + 1)
    ))


@st.composite
def banach_cases(draw):
    """(profile, min_window) with counts from {0, q**n, q**n // 2, 0..3},
    so that equal means and long plateaus are common."""
    q = draw(st.sampled_from([2, 3]))
    h = draw(st.integers(1, 40))
    counts = tuple(
        draw(st.one_of(st.sampled_from([0, q**n, q**n // 2]),
                       st.integers(0, min(3, q**n))))
        for n in range(1, h + 1)
    )
    num_states = draw(st.sampled_from([0, 1, 3]))
    return DensityProfile(q, counts, num_states), draw(st.integers(1, h))


def _plateau(q, h, lo, hi, num_states=0):
    """Full layers lo..hi, empty elsewhere."""
    counts = tuple(q**n if lo <= n <= hi else 0 for n in range(1, h + 1))
    return DensityProfile(q, counts, num_states)


class TestProfile:
    def test_odd_a_all_half(self):
        prof = profile(ODD_A, 64)
        assert all(d == HALF for d in prof.densities)
        assert prof.extendable

    def test_odd_length_alternates(self):
        prof = profile(ODD_LEN, 10)
        assert list(prof.densities) == [Fraction(n % 2) for n in range(1, 11)]

    def test_empty_profile(self):
        prof = profile(explicit_empty(AB, 6))
        assert all(d == 0 for d in prof.densities)
        assert not prof.extendable

    def test_counts_are_consistent(self):
        prof = profile(ODD_A, 12)
        assert prof.counts == tuple(dfa_layer_counts(ODD_A, 12))
        for n, count, total, d in prof.rows():
            assert total == 2**n and d * total == count

    def test_horizon_exceeded(self):
        s = explicit_full(AB, 4)
        with pytest.raises(ValueError, match="exceeds"):
            profile(s, 5)


class TestRefinedDensity:
    def test_odd_length_covered(self):
        assert refined_density(ODD_LEN, 3, (1,)) == 0

    def test_half_remaining(self):
        s = explicit_from_words([AB.word("a")] + list(layer_words(AB, 3)), 3)
        assert refined_density(s, 3, (1,)) == HALF

    def test_empty_ell_list_is_plain_density(self):
        prof = profile(ODD_A, 6)
        for n in range(1, 7):
            assert refined_density(ODD_A, n, ()) == prof.density(n)

    def test_never_exceeds_layer_density(self):
        prof = profile(ODD_A, 8)
        for n in range(2, 9):
            assert refined_density(ODD_A, n, (1,)) <= prof.density(n)


class TestPeriodDetection:
    def test_odd_length(self):
        report = detect_period(profile(ODD_LEN, 16))
        assert (report.preperiod, report.period, report.holds) == (1, 2, True)

    def test_odd_a(self):
        report = detect_period(profile(ODD_A, 16))
        assert (report.preperiod, report.period, report.holds) == (1, 1, True)

    def test_generic_explicit_has_no_period(self):
        rng = random.Random(2)
        words = [w for w in layer_words(AB, 1) + layer_words(AB, 2)
                 + layer_words(AB, 3) + layer_words(AB, 4) if rng.random() < 0.4]
        prof = profile(explicit_from_words(words, 4))
        assert not detect_period(prof).holds

    def test_alternating_detected_once_period_fits_cap(self):
        # d = (1,0,1,0,1): period 2 is over the H/3 cap at H=5, so nothing
        # is detected; at H=6 the alternation is found from the start.
        words5 = [w for n in (1, 3, 5) for w in layer_words(AB, n)]
        assert not detect_period(profile(explicit_from_words(words5, 5))).holds
        words6 = [w for n in (1, 3, 5) for w in layer_words(AB, n)]
        report = detect_period(profile(explicit_from_words(words6, 6)))
        assert (report.preperiod, report.period, report.holds) == (1, 2, True)

    def test_requires_two_periods_of_evidence(self):
        # d = (1, 0, 0, 1): the final d(4) = d(3) match alone is only one
        # period of evidence for p = 1, so it must not count.
        words = [w for n in (1, 4) for w in layer_words(AB, n)]
        assert not detect_period(profile(explicit_from_words(words, 4))).holds

    def test_small_horizon_rejected(self):
        with pytest.raises(ValueError, match=">= 4"):
            detect_period(profile(explicit_empty(AB, 3)))


class TestAsymptotic:
    def test_odd_length_exact_half(self):
        limit = upper_asymptotic(profile(ODD_LEN, 64))
        assert limit.value == HALF and limit.exact

    def test_full_set(self):
        limit = upper_asymptotic(profile(FULL, 32))
        assert limit.value == 1 and limit.exact

    def test_explicit_finite_support_not_exact(self):
        s = explicit_from_words(list(layer_words(AB, 1)), 8)
        limit = upper_asymptotic(profile(s, 8))
        assert limit.finite_max == 1  # attained by the n=1 prefix
        assert limit.window.start == 1 and limit.window.end == 1
        assert not limit.exact  # explicit truncations never extrapolate


class TestBanach:
    def test_odd_a_exact_half(self):
        limit = upper_banach(profile(ODD_A, 64), 8)
        assert limit.value == HALF and limit.exact

    def test_odd_length_exact_half(self):
        limit = upper_banach(profile(ODD_LEN, 64), 8)
        assert limit.value == HALF and limit.exact

    def test_full(self):
        limit = upper_banach(profile(FULL, 16), 4)
        assert limit.value == 1

    def test_bad_window(self):
        with pytest.raises(ValueError, match="min window"):
            upper_banach(profile(FULL, 8), 9)

    def test_banach_dominates_asymptotic_with_all_prefixes(self):
        rng = random.Random(9)
        for seed in range(5):
            words = [
                w
                for n in range(1, 7)
                for w in layer_words(AB, n)
                if rng.random() < 0.5
            ]
            prof = profile(explicit_from_words(words, 6))
            banach = upper_banach(prof, 1)
            asym = upper_asymptotic(prof)
            assert banach.finite_max >= asym.finite_max

    def test_window_mean_bounded_by_max_density(self):
        prof = profile(ODD_LEN, 32)
        limit = upper_banach(prof, 4)
        assert limit.finite_max <= max(prof.densities)

    def test_periodic_banach_equals_asymptotic(self):
        for d in (ODD_A, ODD_LEN):
            prof = profile(d, 48)
            assert upper_banach(prof, 8).value == upper_asymptotic(prof).value

    @settings(deadline=None)
    @given(case=banach_cases())
    @example(case=(DensityProfile(2, tuple(2 ** (n - 1) for n in range(1, 31)), 2), 7))
    @example(case=(DensityProfile(3, (0,) * 12, 0), 5))
    @example(case=(_plateau(2, 30, 5, 20), 3))
    @example(case=(_plateau(3, 25, 2, 25, 4), 6))
    @example(case=(DensityProfile(2, (1, 0, 3, 8, 2, 64, 0, 128), 0), 1))
    @example(case=(DensityProfile(3, (2, 0, 27, 40, 0, 729), 1), 6))
    @example(case=(DensityProfile(2, (1,), 0), 1))
    def test_matches_full_scan(self, case):
        prof, min_window = case
        bounded = upper_banach(prof, min_window)
        assert bounded == _full_banach(prof, min_window)
        assert bounded.window.length < 2 * min_window
        if len(set(prof.densities)) == 1:
            assert (bounded.window.start, bounded.window.end) == (1, min_window)


class TestBallDensity:
    def test_full(self):
        assert ball_density(explicit_full(AB, 5), 5) == 1
        assert ball_density(FULL, 40) == 1

    def test_single_layer_at_least_half(self):
        # |F(n)| >= |F_<=(n)| / 2 at q = 2.
        s = explicit_from_words(list(layer_words(AB, 6)), 6)
        assert ball_density(s, 6) >= HALF

    def test_exact_value(self):
        s = explicit_from_words(list(layer_words(AB, 2)), 2)
        assert ball_density(s, 2) == Fraction(4, 6)

    def test_horizon_guard(self):
        s = explicit_full(AB, 3)
        with pytest.raises(ValueError, match="exceeds"):
            ball_density(s, 4)


class TestExactness:
    def test_periodic_evidence_must_cover_the_state_count(self):
        # "Length >= 70" needs 71 states and has limit 1; at H = 64 every
        # layer is empty, which looks periodic but proves nothing.
        delta = tuple((min(k + 1, 70),) * 2 for k in range(71))
        late = Dfa(AB, 71, 0, frozenset({70}), delta)
        for limit in (upper_asymptotic(profile(late, 64)),
                      upper_banach(profile(late, 64))):
            assert limit.value == 0 and not limit.exact
        for limit in (upper_asymptotic(profile(late, 256)),
                      upper_banach(profile(late, 256))):
            assert limit.value == 1 and limit.exact

    def test_summation_order_invariance(self):
        prof = profile(ODD_A, 20)
        forward = sum(prof.densities, Fraction(0))
        backward = sum(reversed(prof.densities), Fraction(0))
        rng = random.Random(3)
        shuffled = list(prof.densities)
        rng.shuffle(shuffled)
        assert forward == backward == sum(shuffled, Fraction(0))


def _csv_by_fractions(p):
    """profile_csv as one Fraction per layer: the reference the
    gcd-reduced emitter must match byte for byte."""
    lines = ["n,count,total,density_num,density_den"]
    for n, count in enumerate(p.counts, start=1):
        d = Fraction(count, p.q**n)
        lines.append(f"{n},{count},{p.q**n},{d.numerator},{d.denominator}")
    return "\n".join(lines) + "\n"


class TestEmitters:
    @pytest.mark.parametrize("prof", [
        # q = 2: every gcd is a power of two.
        profile(ODD_A, 200),
        profile(odd_occurrence(AB, "ab"), 40),
        # q = 3: odd occurrence of two of three symbols, (3^n - (-1)^n) / 2,
        # is prime to 3^n, so every gcd is 1.
        profile(odd_occurrence(Alphabet("abc"), "ab"), 300),
        # q = 6: gcds mixing the primes 2 and 3.
        profile(odd_occurrence(Alphabet("abcdef"), "abc"), 60),
        DensityProfile(6, (3, 12, 0, 6**4, 2 * 6**4, 5, 6**7 // 9, 1), 0),
        # Zero layers print 0/1 and full layers 1/1.
        profile(explicit_empty(AB, 6)),
        profile(explicit_full(Alphabet("abc"), 5)),
        profile(FULL, 50),
        DensityProfile(2, (0, 4, 0, 16, 1), 0),
    ], ids=["odd-a", "odd-length", "odd3", "odd6", "q6-mixed", "empty", "full3",
            "full-dfa", "zero-and-full"])
    def test_csv_matches_the_fraction_reduction(self, prof):
        assert profile_csv(prof) == _csv_by_fractions(prof)

    def test_csv_shape(self):
        text = profile_csv(profile(ODD_A, 4))
        lines = text.strip().splitlines()
        assert lines[0] == "n,count,total,density_num,density_den"
        assert lines[1] == "1,1,2,1,2"
        assert lines[4] == "4,8,16,1,2"

    def test_limits_report_fields(self):
        report = limits_report(profile(ODD_A, 64), 8)
        assert report["asymptotic"]["exact"] is True
        assert report["asymptotic"]["value"] == "1/2"
        assert report["banach"]["min_window"] == 8
        assert json.dumps(report)  # serialisable

    def test_frac_str(self):
        assert frac_str(Fraction(5, 8)) == "5/8"
        assert frac_str(Fraction(1)) == "1/1"
