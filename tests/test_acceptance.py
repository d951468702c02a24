"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every expected value here is either trivial, verified against an
independent oracle computed in-line, or a frozen regression constant
produced by the exhaustive reference implementation.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from prodfree.constructions import (
    asymmetric_triple,
    counting_pathology,
    greedy_random_productfree,
    odd_occurrence,
)
from prodfree.density import (
    WindowSpec,
    layer_counts,
    profile,
    upper_asymptotic,
    upper_banach,
)
from prodfree.productfree import check_explicit, check_regular
from prodfree.proofkit import (
    chained_inequality_check,
    exceeds_phi,
    extract_lsequence,
    phi_level_set,
    window_bound_certificate,
)
from prodfree.search import max_productfree
from prodfree.sets import (
    Dfa,
    dfa_complement,
    dfa_concat,
    dfa_layer_counts,
    dfa_truncate,
)
from prodfree.words import Alphabet

from conftest import (
    ball_density, dfa_difference, dfa_intersect, dfa_is_empty, dfa_union,
    exhaustive_max_productfree, refined_density,
)

AB = Alphabet("ab")
HALF = Fraction(1, 2)

GREEDY_COUNT = 100
GREEDY_HORIZON = 12


def _report(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num} PASS: {message}")


@pytest.fixture(scope="module")
def greedy_sets():
    return [
        greedy_random_productfree(AB, GREEDY_HORIZON, seed)
        for seed in range(GREEDY_COUNT)
    ]


def test_criterion_1_odd_occurrence_densities():
    started = time.monotonic()
    gammas = ["a", "b", "ab"]  # every nonempty subset of {a, b}
    for gamma in gammas:
        d = odd_occurrence(AB, gamma)
        assert check_regular(d) is None
        prof = profile(d, 64)
        asym = upper_asymptotic(prof)
        ban = upper_banach(prof, 8)
        assert asym.value == HALF and asym.exact
        assert ban.value == HALF and ban.exact
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, f"odd-occurrence sets: product-free, both densities exactly "
               f"1/2 at horizon 64 ({elapsed:.2f}s)")


def test_criterion_2_chained_inequality_suite(greedy_sets):
    started = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    for s in greedy_sets:
        assert check_explicit(s) is None
        for _ in range(20):
            n = rng.randint(2, GREEDY_HORIZON)
            k = rng.randint(1, min(3, n - 1))
            ells = tuple(sorted(rng.sample(range(1, n), k)))
            terms = [refined_density(s, ell, ells[:i]) for i, ell in enumerate(ells)]
            prof = profile(s, n)
            lhs = sum(
                (t * prof.density(n - ell) for t, ell in zip(terms, ells)),
                prof.density(n),
            )
            mid = sum(terms, refined_density(s, n, ells))
            assert lhs <= mid <= 1
            # proofkit reads every term from one sweep to n.
            rep = chained_inequality_check(s, ells, n)
            assert (rep.refined_terms, rep.lhs, rep.mid) == (tuple(terms), lhs, mid)
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == GREEDY_COUNT * 20
    assert elapsed < 30.0
    _report(2, f"{checked} chained-inequality checks over {GREEDY_COUNT} "
               f"greedy sets, zero violations ({elapsed:.1f}s)")


def test_criterion_3_window_bound_certificates(greedy_sets):
    started = time.monotonic()
    eps = Fraction(1, 8)
    extracted = 0
    windows_checked = 0
    long_windows_checked = 0
    for s in greedy_sets:
        lseq, _ = extract_lsequence(s, profile(s, GREEDY_HORIZON), eps, min_window=4)
        if lseq.k < 1:
            continue
        extracted += 1
        lk = lseq.lengths[-1]
        prof = profile(s, GREEDY_HORIZON)
        for start in range(lk + 1, GREEDY_HORIZON + 1):
            for end in range(start, GREEDY_HORIZON + 1):
                window = WindowSpec(start, end)
                cert = window_bound_certificate(prof, window, lseq)
                assert cert.holds
                windows_checked += 1
                if window.length >= 16:
                    long_windows_checked += 1
    # The stated horizon cannot host a length-16 window above l_k, so that
    # clause is vacuous here; regular sets at horizon 64 exercise it.
    for d in (odd_occurrence(AB, "ab"), odd_occurrence(AB, "a")):
        lseq, _ = extract_lsequence(d, profile(d, 64), Fraction(1, 16))
        assert lseq.k >= 1
        lk = lseq.lengths[-1]
        prof = profile(d, 64)
        for start in range(lk + 1, 64 - 16 + 2):
            for length in (16, 24, 40):
                if start + length - 1 > 64:
                    continue
                cert = window_bound_certificate(
                    prof, WindowSpec(start, start + length - 1), lseq
                )
                assert cert.holds
                long_windows_checked += 1
    elapsed = time.monotonic() - started
    assert extracted > 0
    assert long_windows_checked > 0
    _report(3, f"window bound holds on {windows_checked} truncation windows "
               f"({extracted} extracted sequences) and {long_windows_checked} "
               f"length>=16 windows, zero violations ({elapsed:.1f}s)")


def test_criterion_4_phi_level_sets(greedy_sets):
    started = time.monotonic()
    # The gate itself: 5/8 > phi because 81 > 80.
    d = Fraction(5, 8)
    assert (2 * d + 1) ** 2 == Fraction(81, 16)
    assert 81 > 80
    assert exceeds_phi(d)
    checked = 0
    for s in greedy_sets:
        report = phi_level_set(profile(s, GREEDY_HORIZON))
        assert report.sum_free, report.violation
        checked += 1
    for gamma in ("a", "b", "ab"):
        report = phi_level_set(profile(odd_occurrence(AB, gamma), 64))
        assert report.sum_free
        checked += 1
    report = phi_level_set(profile(counting_pathology(AB, 4), 20))
    assert report.sum_free
    checked += 1
    elapsed = time.monotonic() - started
    _report(4, f"phi level set sum-free for {checked} product-free sets, "
               f"gate certifies 5/8 > phi via 81 > 80 ({elapsed:.1f}s)")


def test_criterion_5_counting_pathology():
    started = time.monotonic()
    s = counting_pathology(AB, 4)
    assert check_explicit(s) is None
    density = ball_density(s, 2**4 + 4)
    # Big-integer oracle: full layers 17..20 over the geometric series.
    member = sum(2**n for n in range(17, 21))
    total = sum(2**n for n in range(1, 21))
    assert density == Fraction(member, total)
    assert density >= Fraction(3, 4)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(5, f"block construction at c=4: product-free at horizon 20, "
               f"ball density {density} >= 3/4 ({elapsed:.2f}s)")


def test_criterion_6_asymmetric_triple():
    started = time.monotonic()
    eps = Fraction(1, 10)
    triple = asymmetric_triple(AB, 4, eps)
    xy = dfa_concat(triple.x, triple.y)
    empty, witness = dfa_is_empty(dfa_intersect(xy, triple.z))
    assert empty and witness is None
    xc = dfa_layer_counts(triple.x, 20)
    yc = dfa_layer_counts(triple.y, 20)
    target = Fraction(9, 16)
    for n in range(4, 21):
        assert Fraction(xc[n - 1], 2**n) == target
        assert Fraction(yc[n - 1], 2**n) == target
    assert exceeds_phi(target + eps)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(6, f"asymmetric triple n=4: (X.Y) ∩ Z empty, X and Y layer "
               f"densities exactly 9/16 > phi - 1/10 ({elapsed:.2f}s)")


# Frozen ground truth from the exhaustive reference (N <= 3) and the proved
# branch-and-bound runs (N = 4..6); artifact-generated, not published values.
FROZEN_OPTIMA = {
    1: Fraction(1),
    2: Fraction(5, 8),
    3: Fraction(2, 3),
    4: Fraction(9, 16),
    5: Fraction(3, 5),
    6: Fraction(13, 24),
}


def test_criterion_7_search_ground_truth():
    started = time.monotonic()
    for alphabet, horizon in [(AB, 1), (AB, 2), (AB, 3),
                              (Alphabet("abc"), 1), (Alphabet("abc"), 2)]:
        brute = exhaustive_max_productfree(alphabet, horizon)
        found = max_productfree(alphabet, horizon)
        assert found.value == brute.value
        assert found.proved
    results = {}
    for horizon in range(1, 7):
        r = max_productfree(AB, horizon)
        assert check_explicit(r.best) is None
        results[horizon] = r
    assert results[2].value == Fraction(5, 8)
    values = {h: r.value for h, r in results.items()}
    assert values == FROZEN_OPTIMA
    # Trend toward 1/2: every optimum sits above 1/2, both parity
    # subsequences decrease strictly, and the minimum is at the far end.
    assert all(v >= HALF for v in values.values())
    assert values[1] > values[3] > values[5]
    assert values[2] > values[4] > values[6]
    assert min(values.values()) == values[6]
    proofs = {h: r.proved for h, r in results.items()}
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    _report(7, f"branch-and-bound matches brute force; optima "
               f"{ {h: str(v) for h, v in values.items()} } with proof flags "
               f"{proofs}, trending toward 1/2 ({elapsed:.1f}s)")


def _random_regular(rng: random.Random) -> Dfa:
    atoms = [odd_occurrence(AB, g) for g in ("a", "b", "ab")]
    d = rng.choice(atoms)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["union", "intersect", "difference", "complement"])
        if op == "complement":
            d = dfa_complement(d)
        else:
            other = rng.choice(atoms)
            ops = {
                "union": dfa_union,
                "intersect": dfa_intersect,
                "difference": dfa_difference,
            }
            d = ops[op](d, other)
    return d


def test_criterion_8_representation_agreement():
    started = time.monotonic()
    rng = random.Random(4096)
    horizon = 10
    for trial in range(50):
        d = _random_regular(rng)
        t = dfa_truncate(d, horizon)
        # Profiles agree layer by layer.
        reg_counts = dfa_layer_counts(d, horizon)
        for n in range(1, horizon + 1):
            assert t.layer_count(n) == reg_counts[n - 1]
        # Refined counts agree at every length up to n on sampled (n, ells).
        for _ in range(5):
            n = rng.randint(2, horizon)
            k = rng.randint(1, min(3, n - 1))
            ells = tuple(sorted(rng.sample(range(1, n), k)))
            assert layer_counts(d, n, ells) == layer_counts(t, n, ells)
        # Product-freeness verdicts agree.
        regular_witness = check_regular(d)
        explicit_witness = check_explicit(t)
        if regular_witness is None:
            assert explicit_witness is None
        else:
            assert len(regular_witness.z) <= horizon
            assert explicit_witness is not None
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(8, f"50 regular/explicit agreement trials at horizon 10, "
               f"exact ({elapsed:.1f}s)")
