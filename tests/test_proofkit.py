import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st, target

from prodfree.constructions import greedy_random_productfree, odd_occurrence
from prodfree.density import WindowSpec, profile
from prodfree.proofkit import (
    WindowProbe,
    exceeds_phi,
    extract_lsequence,
    phi_level_set,
    chained_inequality_check,
    window_bound_certificate,
)
from prodfree.sets import Dfa, LayeredSet, dfa_truncate
from prodfree.words import Alphabet, Word

from conftest import (
    DFA_ALPHABETS, complete_dfas, dfa_full, refined_counts_by_word, set_contains, set_words,
)

AB = Alphabet("ab")
ODD_A = odd_occurrence(AB, "a")
ODD_LEN = odd_occurrence(AB, "ab")
# Words with a "b": d(n) = 1 - 1/2^n, so extraction takes l = 1, 2, 3, ...,
# each from a window, with refined terms 1/2^k meeting 1 - 1/2^k exactly.
HAS_B = Dfa(AB, 2, 0, frozenset({1}), ((0, 1), (1, 1)))


class TestSurd:
    """Comparisons of rationals against the surd phi = (sqrt(5)-1)/2."""

    def test_comparison_matches_high_precision_oracle(self):
        from decimal import Decimal, getcontext

        getcontext().prec = 60
        phi_hp = (Decimal(5).sqrt() - 1) / 2
        rng = random.Random(23)
        for _ in range(1000):
            d = Fraction(rng.randrange(0, 10**9 + 1), 10**9)
            oracle = Decimal(d.numerator) / Decimal(d.denominator) > phi_hp
            assert exceeds_phi(d) == oracle


class TestPhiGate:
    def test_five_eighths_via_81_over_80(self):
        d = Fraction(5, 8)
        lhs = (2 * d + 1) ** 2  # (9/4)^2 = 81/16
        assert lhs == Fraction(81, 16)
        assert lhs * 16 == 81 and 5 * 16 == 80 and 81 > 80
        assert exceeds_phi(d)

    def test_near_threshold(self):
        assert not exceeds_phi(Fraction(618, 1000))
        assert exceeds_phi(Fraction(619, 1000))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            exceeds_phi(Fraction(-1, 2))


class TestChainedInequality:
    def test_odd_length_example(self):
        rep = chained_inequality_check(ODD_LEN, (1,), 3)
        assert rep.lhs == 1 and rep.mid == 1 and rep.ok

    def test_odd_a_tight(self):
        rep = chained_inequality_check(ODD_A, (1,), 3)
        assert rep.lhs == Fraction(3, 4)
        assert rep.mid == Fraction(3, 4)
        assert rep.ok

    def test_full_set_flagged(self):
        rep = chained_inequality_check(dfa_full(AB), (1,), 2)
        assert rep.lhs == 2 and rep.mid == 1 and not rep.ok

    def test_random_product_free_sets(self):
        rng = random.Random(31)
        for seed in range(20):
            s = greedy_random_productfree(AB, 10, seed)
            for _ in range(10):
                n = rng.randint(2, 10)
                k = rng.randint(1, min(3, n - 1))
                ells = tuple(sorted(rng.sample(range(1, n), k)))
                rep = chained_inequality_check(s, ells, n)
                assert rep.lhs <= rep.mid <= 1

    def test_bad_lengths(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            chained_inequality_check(ODD_A, (2, 2), 4)


class TestExtraction:
    def test_odd_length_completes_immediately(self):
        lseq, trace = extract_lsequence(ODD_LEN, profile(ODD_LEN, 64), Fraction(1, 16))
        assert lseq.lengths == (1,)
        assert lseq.cumulative == (Fraction(1),)
        assert trace.stop_reason == "complete"

    def test_odd_a_exhausts(self):
        lseq, trace = extract_lsequence(ODD_A, profile(ODD_A, 64), Fraction(1, 16))
        assert lseq.lengths == (1,)
        assert lseq.total == Fraction(1, 2)
        assert trace.stop_reason == "exhausted"
        assert trace.probes and not any(p.qualifies for p in trace.probes)
        # Every window mean sits exactly at 1/2, never above 1/2 + eps.
        assert all(p.mean == Fraction(1, 2) for p in trace.probes)

    def test_cumulative_monotone_and_bounded(self):
        for seed in range(5):
            s = greedy_random_productfree(AB, 12, seed)
            lseq, _ = extract_lsequence(s, profile(s, 12), Fraction(1, 8), min_window=4)
            assert list(lseq.cumulative) == sorted(lseq.cumulative)
            if lseq.k:
                assert lseq.total <= 1

    def test_fixture_takes_a_second_length_from_a_window(self):
        s = greedy_random_productfree(AB, 12, seed=7)
        lseq, trace = extract_lsequence(s, profile(s, 12), Fraction(1, 16), min_window=4)
        assert lseq.lengths == (7, 9)
        # 80 of the 128 words of length 7; 84 of the 512 of length 9 have
        # no member as their length-7 prefix.
        assert lseq.terms == (Fraction(5, 8), Fraction(21, 128))
        assert lseq.cumulative == (Fraction(5, 8), Fraction(101, 128))
        assert sum(
            1 for w in set_words(s)
            if len(w) == 9 and not set_contains(s, Word(AB, w.indices[:7]))
        ) == 84
        # Stage 1 skips 8..11 (mean 1041/2048, not above 1/2 + 1/16), picks
        # 9 in 9..12, and stage 2 has no window of length 4 above 9.
        assert trace.probes == (
            WindowProbe(1, WindowSpec(8, 11), Fraction(1041, 2048), False, None),
            WindowProbe(1, WindowSpec(9, 12), Fraction(9459, 16384), True, 9),
        )
        assert trace.stop_reason == "exhausted"

    def test_words_with_a_b_take_every_length(self):
        lseq, trace = extract_lsequence(HAS_B, profile(HAS_B, 8), Fraction(1, 16), 1)
        assert lseq.lengths == tuple(range(1, 9))
        assert lseq.terms == tuple(Fraction(1, 2**k) for k in range(1, 9))
        assert [p.chosen for p in trace.probes] == list(range(2, 9))
        assert trace.stop_reason == "exhausted"

    def test_trace_is_deterministic(self):
        one = extract_lsequence(ODD_A, profile(ODD_A, 32), Fraction(1, 16))
        two = extract_lsequence(ODD_A, profile(ODD_A, 32), Fraction(1, 16))
        assert one == two

    def test_bad_eps(self):
        with pytest.raises(ValueError, match="positive"):
            extract_lsequence(ODD_A, profile(ODD_A, 16), Fraction(0))

    def test_min_window_below_one(self):
        with pytest.raises(ValueError, match=r"min window 0 outside 1\.\.16"):
            extract_lsequence(ODD_A, profile(ODD_A, 16), Fraction(1, 16), min_window=0)


@st.composite
def dfa_checks(draw):
    """A complete DFA over 1-3 symbols, a horizon of 2-8, lengths below a
    layer n up to the horizon, an eps and a min window for extraction.
    Half the automata accept all but the drawn accepting states, so that
    dense sets, whose windows can qualify, are drawn too."""
    d = draw(st.sampled_from(DFA_ALPHABETS).flatmap(complete_dfas))
    if draw(st.booleans()):
        d = Dfa(d.alphabet, d.num_states, d.start,
                frozenset(range(d.num_states)) - d.accepting, d.delta)
    horizon = draw(st.integers(2, 8))
    n = draw(st.integers(2, horizon))
    lengths = tuple(sorted(draw(st.sets(st.integers(1, n - 1), min_size=1))))
    eps = Fraction(1, draw(st.sampled_from([2, 4, 8, 16, 64])))
    return d, horizon, n, lengths, eps, draw(st.integers(1, horizon))


@pytest.mark.ci_profile
class TestRepresentations:
    @settings(deadline=None)
    @given(case=dfa_checks())
    @example(case=(HAS_B, 8, 8, (1, 3, 5), Fraction(1, 16), 1))
    @example(case=(HAS_B, 8, 7, (2, 6), Fraction(1, 64), 2))
    def test_automaton_and_truncation_agree(self, case):
        d, horizon, n, lengths, eps, min_window = case
        t = dfa_truncate(d, horizon)
        on_d = chained_inequality_check(d, lengths, n)
        on_t = chained_inequality_check(t, lengths, n)
        assert (on_d.refined_terms, on_d.lhs, on_d.mid, on_d.ok) == (
            on_t.refined_terms, on_t.lhs, on_t.mid, on_t.ok)
        # Term i is d(li; l1,...,l(i-1)), counted word by word.
        oracle = refined_counts_by_word(d.accepts, d.alphabet, n, lengths)
        q = d.alphabet.q
        assert on_d.refined_terms == tuple(
            Fraction(oracle[ell - 1], q**ell) for ell in lengths)
        seq_d, trace_d = extract_lsequence(d, profile(d, horizon), eps, min_window)
        seq_t, trace_t = extract_lsequence(t, profile(t), eps, min_window)
        assert (seq_d.lengths, seq_d.terms, trace_d.probes) == (
            seq_t.lengths, seq_t.terms, trace_t.probes)
        # Extraction's terms too are d(li; l1,...,l(i-1)).
        oracle = refined_counts_by_word(d.accepts, d.alphabet, horizon, seq_d.lengths[:-1])
        assert seq_d.terms == tuple(Fraction(oracle[ell - 1], q**ell) for ell in seq_d.lengths)
        # Steer generation toward sets whose windows yield lengths.
        target(float(seq_d.k))


class TestWindowBound:
    def test_k1_bound_formula(self):
        lseq, _ = extract_lsequence(ODD_LEN, profile(ODD_LEN, 101), Fraction(1, 16))
        cert = window_bound_certificate(profile(ODD_LEN, 101), WindowSpec(2, 101), lseq)
        assert cert.bound == Fraction(2, 3) + Fraction(4, 100)
        assert cert.mean == Fraction(1, 2)
        assert cert.holds

    def test_k2_bound_formula(self):
        # {a} and the full layers 2..17: l1 = 1 (d = 1/2), then the window
        # 2..5 picks l2 = 2, where S(2; 1) = {ba, bb} completes the sum.
        # a.a = aa, so the set is not product-free and the bound may fail.
        h = 17
        s = LayeredSet(AB, h, (0, 1) + tuple((1 << 2**n) - 1 for n in range(2, h + 1)))
        lseq, trace = extract_lsequence(s, profile(s, h), Fraction(1, 16), min_window=4)
        assert lseq.lengths == (1, 2)
        assert lseq.cumulative == (Fraction(1, 2), Fraction(1))
        assert [p.chosen for p in trace.probes] == [2]
        assert trace.stop_reason == "complete"
        prof = profile(s)
        for end, holds in ((6, True), (17, False)):
            cert = window_bound_certificate(prof, WindowSpec(3, end), lseq)
            assert (cert.k, cert.mean) == (2, 1)
            assert cert.bound == Fraction(4, 7) + Fraction(2 * 3, end - 2)
            assert cert.holds is holds

    def test_bound_approaches_half(self):
        # 2^k/(2^(k+1)-1) -> 1/2 from above as k grows.
        values = [Fraction(2**k, 2 ** (k + 1) - 1) for k in range(1, 12)]
        assert all(v > Fraction(1, 2) for v in values)
        assert values == sorted(values, reverse=True)
        assert values[-1] - Fraction(1, 2) < Fraction(1, 1000)

    def test_precondition_window_above_lk(self):
        lseq, _ = extract_lsequence(ODD_LEN, profile(ODD_LEN, 32), Fraction(1, 16))
        with pytest.raises(ValueError, match="above"):
            window_bound_certificate(profile(ODD_LEN, 16), WindowSpec(1, 16), lseq)

    def test_precondition_cumulative(self):
        from prodfree.proofkit import LSequence

        weak = LSequence((2,), (Fraction(1, 4),), (Fraction(1, 4),))
        with pytest.raises(ValueError, match="below"):
            window_bound_certificate(profile(ODD_A, 18), WindowSpec(3, 18), weak)

    def test_holds_on_product_free_fixtures(self):
        for seed in range(5):
            s = greedy_random_productfree(AB, 12, seed)
            lseq, _ = extract_lsequence(s, profile(s, 12), Fraction(1, 8), min_window=4)
            if lseq.k < 1:
                continue
            lk = lseq.lengths[-1]
            prof = profile(s)
            for start in range(lk + 1, 12):
                for end in range(start, 13):
                    window = WindowSpec(start, end)
                    assert window_bound_certificate(prof, window, lseq).holds

    def test_profile_must_reach_the_window(self):
        lseq, _ = extract_lsequence(ODD_LEN, profile(ODD_LEN, 32), Fraction(1, 16))
        with pytest.raises(ValueError, match="profile horizon"):
            window_bound_certificate(profile(ODD_LEN, 16), WindowSpec(10, 20), lseq)


class TestLevelSet:
    def test_odd_length_levels(self):
        report = phi_level_set(profile(ODD_LEN, 16))
        assert report.level_set == tuple(range(1, 17, 2))
        assert report.sum_free and report.violation is None

    def test_odd_a_empty(self):
        report = phi_level_set(profile(ODD_A, 16))
        assert report.level_set == ()
        assert report.sum_free

    def test_violation_reported(self):
        report = phi_level_set(profile(dfa_full(AB), 8))
        assert not report.sum_free
        a, b, c = report.violation
        assert a + b == c

    def test_product_free_fixtures_sum_free(self):
        for seed in range(10):
            s = greedy_random_productfree(AB, 10, seed)
            assert phi_level_set(profile(s)).sum_free
