import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from prodfree import density
from prodfree.cli import main
from prodfree.constructions import asymmetric_triple, odd_occurrence
from prodfree.density import (
    DensityProfile,
    _exact_limit,
    _limit,
    _recurrence,
    layer_counts,
    profile,
    upper_asymptotic,
    upper_banach,
)
from prodfree.sets import (
    Dfa,
    LayeredSet,
    _dfa_sweep,
    dfa_layer_counts,
    dfa_truncate,
    explicit_from_words,
    write_dfa,
    write_explicit,
)
from prodfree.words import Alphabet

from conftest import (
    DFA_ALPHABETS, ball_density, complete_dfas, dfa_full, explicit_empty, explicit_full,
    layer_words, limit_from_counts, refined_density,
)

AB = Alphabet("ab")
ODD_A = odd_occurrence(AB, "a")
ODD_LEN = odd_occurrence(AB, "ab")
FULL = dfa_full(AB)
HALF = Fraction(1, 2)
# Words containing "aa": state 1 has just read an "a", state 2 has seen "aa".
CONTAINS_AA = Dfa(AB, 3, 0, frozenset({2}), ((1, 0), (2, 0), (2, 2)))
# "Length >= 70": 71 states, every layer below 70 empty.
LATE = Dfa(AB, 71, 0, frozenset({70}), tuple((min(k + 1, 70),) * 2 for k in range(71)))


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
        for n, count, total, d in zip(range(1, 13), prof.counts, prof.totals,
                                      prof.densities):
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

    def test_both_representations_give_the_same_counts(self):
        t = dfa_truncate(ODD_A, 8)
        for ells in ((), (1,), (2, 5)):
            assert layer_counts(ODD_A, 8, ells) == layer_counts(t, 8, ells)


def _solve(rows):
    """Gauss-Jordan elimination over Fractions of a nonsingular system,
    each row its coefficients followed by its right-hand side."""
    k = len(rows)
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(k):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


def _markov_limit(d: Dfa) -> Fraction:
    """lim d(n) in mean, from the chain that reads a uniform random symbol
    at each step: the sum over closed classes of the absorption probability
    from the start times the stationary mass on accepting states.  Shares
    no code with DensityProfile.limit."""
    k, q, zero = d.num_states, d.alphabet.q, Fraction(0)
    reach = []
    for x in range(k):
        seen, todo = {x}, [x]
        while todo:
            for y in d.delta[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        reach.append(frozenset(seen))
    recurrent = [all(x in reach[y] for y in reach[x]) for x in range(k)]
    total = zero
    for closed in {reach[x] for x in range(k) if recurrent[x]}:
        states = sorted(closed)
        # pi P = pi on the class, the last equation replaced by sum(pi) = 1.
        rows = [[Fraction(d.delta[x].count(y), q) - (x == y) for x in states] + [zero]
                for y in states]
        rows[-1] = [Fraction(1)] * (len(states) + 1)
        pi = _solve(rows)
        # h = 1 on the class, 0 on the other closed classes, and the mean of
        # the successors' h on transient states.
        rows = [[Fraction(x == y) for y in range(k)] + [Fraction(x in closed)]
                for x in range(k)]
        for x in range(k):
            if not recurrent[x]:
                for y in d.delta[x]:
                    rows[x][y] -= Fraction(1, q)
        h = _solve(rows)
        total += h[d.start] * sum(p for x, p in zip(states, pi) if x in d.accepting)
    return total


class TestLimit:
    @pytest.mark.parametrize("dfa, first, value", [
        # d(n) = 1/2 - (-1)^n / (2 * 3^n) is never periodic.
        (odd_occurrence(Alphabet("abc"), "ab"), 4, HALF),
        (CONTAINS_AA, 6, 1),
        # Z of the asymmetric triple over ab at n = 7, 131 states.
        (asymmetric_triple(AB, 7, Fraction(1, 10)).z, 145, Fraction(10143, 16384)),
    ], ids=["odd3", "contains-aa", "z-ab-7"])
    def test_exact_from_the_first_horizon_with_order_plus_states_counts(
            self, dfa, first, value):
        before = profile(dfa, first - 1)
        assert before.limit is None
        assert not upper_asymptotic(before).exact
        p = profile(dfa, first)
        assert p.limit == value
        for limit in (upper_asymptotic(p), upper_banach(p, 4)):
            assert limit.exact and limit.value == value

    def test_double_root_at_one_over_q_has_no_limit(self):
        # n * 2^n is no bounded density: C = (1 - 2t)^2 has a double root
        # at 1/2, where C' vanishes.
        counts = [n * 2**n for n in range(1, 20)]
        assert _recurrence(list(counts), 3, len(counts) - 3) == (2, [1, -4, 4])
        assert _exact_limit(2, counts, 2, [1, -4, 4]) is None

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(d=st.sampled_from(DFA_ALPHABETS).flatmap(lambda a: complete_dfas(a, 8)),
           horizon=st.integers(4, 40))
    def test_matches_the_markov_chain_solve(self, d, horizon):
        expected = _markov_limit(d)
        # L <= k, so 2k counts always fix the limit.
        assert profile(d, 2 * d.num_states).limit == expected
        p = profile(d, horizon)
        if p.limit is not None:
            assert p.limit == expected and 0 <= p.limit <= 1
            asym, banach = upper_asymptotic(p), upper_banach(p, 4)
            assert asym.exact and banach.exact and asym.value == banach.value == p.limit


@st.composite
def sweep_cases(draw):
    """(automaton, horizon from 1 to 4k + 40, primes tried before the usual
    ones), so that profiles both sweep every layer and generate layers from
    a certified recurrence, and that tiny primes make the Berlekamp-Massey
    runs wrong and the exact check turn them down."""
    d = draw(st.sampled_from(DFA_ALPHABETS).flatmap(lambda a: complete_dfas(a, 12)))
    k = d.num_states
    return d, draw(st.integers(1, 4 * k + 40)), draw(st.sampled_from([(), (2,), (3, 251)]))


@st.composite
def recurrence_cases(draw):
    """(counts, k, whether an integer recurrence must be found): hand-built
    counts with any k up to their number, or a random automaton's first 2k
    to 2k + 20 layer counts, whose order L <= k recurrence is integral."""
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(0, 9), min_size=1, max_size=30))
        return counts, draw(st.integers(1, len(counts))), False
    d = draw(st.sampled_from(DFA_ALPHABETS).flatmap(lambda a: complete_dfas(a, 8)))
    k = d.num_states
    return dfa_layer_counts(d, draw(st.integers(2 * k, 2 * k + 20))), k, True


# Z of the asymmetric triple over ab at n = 4, 27 states: c(n) = 2c(n-1)
# from n = 9 on, a recurrence of order 8.
Z4 = asymmetric_triple(AB, 4, Fraction(1, 10)).z


class TestRecurrence:
    """The Berlekamp-Massey kernel modulo a prime, and the profile layers
    it generates."""

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(case=sweep_cases())
    @example(case=(Z4, 4 * 27, ()))
    @example(case=(Z4, 4 * 27 + 1, (2,)))
    @example(case=(odd_occurrence(Alphabet("abc"), "ab"), 8, (3, 251)))
    @example(case=(LATE, 4 * 71, ()))
    def test_profile_counts_match_the_sweep(self, case):
        d, horizon, small = case
        counts = tuple(dfa_layer_counts(d, horizon))
        limit = limit_from_counts(d.alphabet.q, counts, d.num_states)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "_PRIMES", small + density._PRIMES)
            p = profile(d, horizon)
        assert p.counts == counts and p.limit == limit

    @pytest.mark.parametrize("d, horizon, swept", [
        # L + k layers swept: order 8 of k = 27, below 4k too
        (Z4, 4 * 27 - 1, 8 + 27),
        (Z4, 2048, 8 + 27),
        (ODD_A, 8, 1 + 2),            # order 1 = k/2
        (ODD_LEN, 8, 2 + 2),          # order 2 = k
        (LATE, 4 * 71, 70 + 71),      # order 70 of k = 71
        (LATE, 70 + 71 - 1, 70 + 70),  # L + k past the horizon: every layer swept
    ], ids=["short", "generated", "order-half", "order-past-half", "late", "past-horizon"])
    def test_layers_swept(self, d, horizon, swept, monkeypatch):
        seen = []
        monkeypatch.setattr(density, "_dfa_sweep", lambda d: map(
            lambda x: seen.append(x) or x, _dfa_sweep(d)))
        assert profile(d, horizon).counts == tuple(dfa_layer_counts(d, horizon))
        assert len(seen) == swept

    def test_coefficients_wider_than_the_first_prime(self, monkeypatch):
        # All words over a = 3^40 symbols: C = 1 - a t, 64 bits wide, found
        # only modulo the second prime.
        a = 3**40
        counts = [a**n for n in range(1, 3)]
        assert _recurrence(list(counts), 1, 1) == (1, [1, -a])
        assert _exact_limit(a, counts, 1, [1, -a]) == 1
        monkeypatch.setattr(density, "_PRIMES", density._PRIMES[:1])
        assert _recurrence(list(counts), 1, 1) is None

    def test_prime_dividing_a_discrepancy(self, monkeypatch):
        # Words whose first symbol is one of 2^61 - 1 of 2^62 symbols: every
        # count is a multiple of 2^61 - 1, so modulo it the order-0
        # recurrence fits, and the exact check must turn it down.
        q, m = 2**62, 2**61 - 1
        counts = [m * q ** (n - 1) for n in range(1, 5)]
        assert _recurrence(list(counts), 3, 1) == (1, [1, -q])
        assert _exact_limit(q, counts, 1, [1, -q]) == Fraction(m, q)
        monkeypatch.setattr(density, "_PRIMES", (m,))
        assert _recurrence(list(counts), 3, 1) is None

    def test_rational_recurrence_of_counts_no_automaton_has(self):
        # The shortest C = 1 - t/8 + t^2/64 - t^3/512 is not integral, so by
        # Fatou's lemma no automaton has these counts, and no run lifts it.
        assert _recurrence([0, 0, 8, 1, 0, 0], 3, 3) is None

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(case=recurrence_cases())
    @example(case=([0, 0, 8, 1, 0, 0], 3, False))
    def test_integral_or_none(self, case):
        counts, k, must_find = case
        found = _recurrence(list(counts), k, len(counts) - k)
        assert found is not None or not must_find
        if found is not None:
            order, c = found
            assert all(type(x) is int for x in c) and c[0] == 1 and len(c) <= order + 1
            assert all(sum(x * counts[n - i] for i, x in enumerate(c)) == 0
                       for n in range(order, order + k))


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

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(case=banach_cases())
    @example(case=(DensityProfile(2, tuple(2 ** (n - 1) for n in range(1, 31)), 2), 7))
    @example(case=(DensityProfile(3, (0,) * 12, 0), 5))
    @example(case=(_plateau(2, 30, 5, 20), 3))
    @example(case=(_plateau(3, 25, 2, 25, 4), 6))
    @example(case=(DensityProfile(2, (1, 0, 3, 8, 2, 64, 0, 128), 0), 1))
    @example(case=(DensityProfile(3, (2, 0, 27, 40, 0, 729), 1), 6))
    @example(case=(DensityProfile(2, (1,), 0), 1))
    @example(case=(DensityProfile(2, tuple(n * 2**n for n in range(1, 20)), 3), 4))
    # Means 1/2 at [3, 6] and [3, 7], which tie at one start, and at [10, 12]:
    # the length-3 window comes first by length but last by (start, end).
    @example(case=(DensityProfile(2, (0, 0, 8, 4, 0, 48, 64, 0, 0, 512, 1024, 2048, 0), 0), 3))
    # Only the longest length, 2 * min_window - 1, reaches the largest mean.
    @example(case=(DensityProfile(2, (2, 0, 8), 0), 2))
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
    def test_recurrence_needs_num_states_more_counts_than_its_order(self):
        # "Length >= 70" has limit 1.  At H = 64 every layer is empty, which
        # fits the order-0 recurrence but proves nothing; the order-70
        # recurrence first generates 70 + 71 counts at H = 141.
        for horizon in (64, 140):
            for limit in (upper_asymptotic(profile(LATE, horizon)),
                          upper_banach(profile(LATE, horizon))):
                assert not limit.exact
        assert upper_asymptotic(profile(LATE, 64)).value == 0
        for limit in (upper_asymptotic(profile(LATE, 141)),
                      upper_banach(profile(LATE, 141))):
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
    """`density` CSV as one Fraction per layer: the reference the CLI's
    gcd-reduced rows must match byte for byte."""
    lines = ["n,count,total,density_num,density_den"]
    for n, count in enumerate(p.counts, start=1):
        d = Fraction(count, p.q**n)
        lines.append(f"{n},{count},{p.q**n},{d.numerator},{d.denominator}")
    return "\n".join(lines) + "\n"


def _first_ranks(alphabet, counts):
    """The explicit set of the first counts[n-1] words of each layer n."""
    return LayeredSet(alphabet, len(counts), (0, *((1 << c) - 1 for c in counts)))


def _density_stdout(s, horizon, tmp_path, capsys, *flags):
    """stdout of `prodfree density` on s, written to a file first."""
    if isinstance(s, Dfa):
        path, text, flag = tmp_path / "s.dfa", write_dfa(s), "--dfa"
    else:
        path, text, flag = tmp_path / "s.words", write_explicit(s), "--words"
    path.write_text(text)
    assert main(["density", flag, str(path), "--horizon", str(horizon), *flags]) == 0
    return capsys.readouterr().out


class TestEmitters:
    """The density output of the CLI, which alone formats it."""

    @pytest.mark.parametrize("s, horizon", [
        # q = 2: every gcd is a power of two.
        (ODD_A, 200),
        (odd_occurrence(AB, "ab"), 40),
        # q = 3: odd occurrence of two of three symbols, (3^n - (-1)^n) / 2,
        # is prime to 3^n, so every gcd is 1.
        (odd_occurrence(Alphabet("abc"), "ab"), 300),
        # q = 6: gcds mixing the primes 2 and 3.
        (odd_occurrence(Alphabet("abcdef"), "abc"), 60),
        (_first_ranks(Alphabet("abcdef"), (3, 12, 0, 6**4, 2 * 6**4, 5, 6**7 // 9, 1)), 8),
        # Zero layers print 0/1 and full layers 1/1.
        (explicit_empty(AB, 6), 6),
        (explicit_full(Alphabet("abc"), 5), 5),
        (FULL, 50),
        (_first_ranks(AB, (0, 4, 0, 16, 1)), 5),
    ], ids=["odd-a", "odd-length", "odd3", "odd6", "q6-mixed", "empty", "full3",
            "full-dfa", "zero-and-full"])
    def test_csv_matches_the_fraction_reduction(self, s, horizon, tmp_path, capsys):
        text = _density_stdout(s, horizon, tmp_path, capsys)
        assert text == _csv_by_fractions(profile(s, horizon))

    def test_csv_shape(self, tmp_path, capsys):
        text = _density_stdout(ODD_A, 4, tmp_path, capsys)
        lines = text.strip().splitlines()
        assert lines[0] == "n,count,total,density_num,density_den"
        assert lines[1] == "1,1,2,1,2"
        assert lines[4] == "4,8,16,1,2"

    def test_limits_report_fields(self, tmp_path, capsys):
        report = json.loads(_density_stdout(
            ODD_A, 64, tmp_path, capsys, "--format", "json", "--min-window", "8"))
        assert report["asymptotic"]["exact"] is True
        assert report["asymptotic"]["value"] == "1/2"
        assert report["banach"]["min_window"] == 8
        assert [row["n"] for row in report["profile"]] == list(range(1, 65))

    def test_frac_str(self, tmp_path, capsys):
        # Layer densities 0, 1, 5/8 and 1/16, each printed num/den.
        s = _first_ranks(AB, (0, 4, 5, 1))
        report = json.loads(_density_stdout(s, 4, tmp_path, capsys, "--format", "json"))
        assert [row["density"] for row in report["profile"]] == ["0/1", "1/1", "5/8", "1/16"]
