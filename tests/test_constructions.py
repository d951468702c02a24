import hashlib
import random
import tracemalloc
from bisect import insort
from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from prodfree import constructions
from prodfree.constructions import (
    asymmetric_triple,
    counting_pathology,
    greedy_random_productfree,
    odd_occurrence,
    pathology_lengths,
    phi_floor,
)
from prodfree.density import profile, upper_banach
from prodfree.productfree import check_explicit, check_regular
from prodfree.proofkit import exceeds_phi
from prodfree.sets import (
    Dfa,
    dfa_complement,
    dfa_concat,
    dfa_layer_counts,
    dfa_truncate,
    write_explicit,
)
from prodfree.words import Alphabet

from conftest import (
    ball_density, dfa_intersect, dfa_is_empty, greedy_every_split, layer_words,
    prefix_set_by_rank, set_words, suffix_set_by_rank,
)

AB = Alphabet("ab")
ABC = Alphabet("abc")


class TestOddOccurrence:
    def test_gamma_a_counts(self):
        counts = dfa_layer_counts(odd_occurrence(AB, "a"), 10)
        assert counts == [2 ** (n - 1) for n in range(1, 11)]

    def test_gamma_full_is_odd_length(self):
        d = odd_occurrence(AB, "ab")
        counts = dfa_layer_counts(d, 8)
        assert counts == [2**n if n % 2 else 0 for n in range(1, 9)]

    def test_accept_examples(self):
        d = odd_occurrence(AB, "a")
        for text, expected in [("a", True), ("ab", True), ("ba", True),
                               ("aaa", True), ("aa", False), ("b", False)]:
            assert d.accepts(AB.word(text)) == expected

    @pytest.mark.parametrize("alphabet", [AB, ABC])
    def test_every_gamma_product_free(self, alphabet):
        symbols = alphabet.symbols
        for size in range(1, len(symbols) + 1):
            for combo in combinations(symbols, size):
                assert check_regular(odd_occurrence(alphabet, "".join(combo))) is None

    def test_profiles_and_banach(self):
        half = Fraction(1, 2)
        for gamma in ("a", "ab"):
            d = odd_occurrence(AB, gamma)
            limit = upper_banach(profile(d, 64), 8)
            assert limit.value == half and limit.exact
        assert all(x == half for x in profile(odd_occurrence(AB, "a"), 20).densities)

    def test_empty_gamma_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            odd_occurrence(AB, "")


class TestCountingPathology:
    def test_c2_lengths_at_horizon_20(self):
        assert pathology_lengths(2, 20) == [5, 6, 9, 10, 17, 18]

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_default_horizon_product_free(self, c):
        s = counting_pathology(AB, c)
        assert s.horizon == 2**c + c
        assert check_explicit(s) is None

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_ball_density_at_least_1_minus_1_over_c(self, c):
        s = counting_pathology(AB, c)
        n = 2**c + c
        assert ball_density(s, n) >= 1 - Fraction(1, c)

    def test_c4_exact_value(self):
        s = counting_pathology(AB, 4)
        got = ball_density(s, 20)
        # Big-integer oracle: layers 17..20 full over a geometric denominator.
        member = sum(2**n for n in range(17, 21))
        total = sum(2**n for n in range(1, 21))
        assert got == Fraction(member, total) == Fraction(65536, 69905)

    def test_longer_horizon_reveals_same_block_products(self):
        # Two block-5 words concatenate to a block-10 word, so the infinite
        # union is not product-free; the truncated check reports it honestly.
        s = counting_pathology(AB, 2, horizon=12)
        witness = check_explicit(s)
        assert witness is not None
        assert (len(witness.x), len(witness.y), len(witness.z)) == (5, 5, 10)

    def test_length_sum_oracle_at_default_horizon(self):
        for c in (2, 3, 4):
            lengths = set(pathology_lengths(c, 2**c + c))
            assert not any(a + b in lengths for a in lengths for b in lengths)

    def test_rejects_unary_and_small_horizon(self):
        with pytest.raises(ValueError, match="two symbols"):
            counting_pathology(Alphabet("a"), 3)
        with pytest.raises(ValueError, match="below"):
            counting_pathology(AB, 3, horizon=10)


@pytest.mark.parametrize("build", [
    lambda: counting_pathology(AB, 10**7),
    lambda: counting_pathology(AB, 10**7, horizon=40),
    lambda: asymmetric_triple(AB, 10**7, Fraction(1, 10)),
], ids=["pathology", "pathology-horizon", "asymmetric"])
def test_huge_argument_refused_before_exponentiating(build):
    # 2**(10**7) alone is 1.25 MB; the refusal must not build it.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the enumeration budget"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


class TestAsymmetricTriple:
    def test_phi_floor_oracle(self):
        # 9 = floor(16 phi): (2*9 + 16)^2 = 1156 < 1280 = 5*16^2 < 1296.
        assert (2 * 9 + 16) ** 2 < 5 * 16**2 < (2 * 10 + 16) ** 2
        assert phi_floor(16) == 9
        for total in range(1, 2000):
            s = phi_floor(total)
            assert (2 * s + total) ** 2 < 5 * total**2 < (2 * (s + 1) + total) ** 2

    def test_w_is_lex_least_block(self):
        triple = asymmetric_triple(AB, 4, Fraction(1, 10))
        assert triple.w_set.layer_count(4) == 9
        texts = {w.text for w in set_words(triple.w_set)}
        assert texts == {w.text for w in layer_words(AB, 4)[:9]}

    def test_x_and_y_densities(self):
        triple = asymmetric_triple(AB, 4, Fraction(1, 10))
        xc = dfa_layer_counts(triple.x, 20)
        yc = dfa_layer_counts(triple.y, 20)
        for n in range(4, 21):
            assert Fraction(xc[n - 1], 2**n) == Fraction(9, 16)
            assert Fraction(yc[n - 1], 2**n) == Fraction(9, 16)
        for n in range(1, 4):
            assert xc[n - 1] == 0 and yc[n - 1] == 0
        # Exceeds phi - eps under the exact (2d+1)^2 > 5 comparison.
        assert exceeds_phi(Fraction(9, 16) + Fraction(1, 10))

    def test_x_contains_w_itself(self):
        triple = asymmetric_triple(AB, 4, Fraction(1, 10))
        for w in set_words(triple.w_set):
            assert triple.x.accepts(w)
            assert triple.y.accepts(w)

    def test_membership_oracle(self):
        triple = asymmetric_triple(AB, 4, Fraction(1, 10))
        w_texts = {w.text for w in set_words(triple.w_set)}
        for n in (4, 5, 6, 7):
            for w in layer_words(AB, n):
                assert triple.x.accepts(w) == (w.text[:4] in w_texts)
                assert triple.y.accepts(w) == (w.text[-4:] in w_texts)

    def test_no_solutions(self):
        triple = asymmetric_triple(AB, 4, Fraction(1, 10))
        xy = dfa_concat(triple.x, triple.y)
        empty, _ = dfa_is_empty(dfa_intersect(xy, triple.z))
        assert empty

    @pytest.mark.parametrize("symbols,n", [
        ("ab", 4), ("ab", 5), ("ab", 6), ("ab", 7), ("abc", 3), ("abc", 4), ("abc", 5),
    ])
    def test_z_closed_form(self, symbols, n):
        # No word shorter than 2n is in X.Y; from length 2n on, a word is in
        # X.Y exactly when its first and last n symbols are in W, that is
        # when it is in both X and Y.  State k of `long` has read k symbols.
        alphabet = Alphabet(symbols)
        triple = asymmetric_triple(alphabet, n, Fraction(1, 10))
        top = 2 * n
        long = Dfa(alphabet, top + 1, 0, frozenset({top}),
                   tuple((min(k + 1, top),) * alphabet.q for k in range(top + 1)))
        xy = dfa_intersect(dfa_intersect(triple.x, triple.y), long)
        assert triple.z == dfa_complement(xy)

    def test_z_long_run_density(self):
        triple = asymmetric_triple(AB, 4, Fraction(1, 10))
        zc = dfa_layer_counts(triple.z, 24)
        target = 1 - Fraction(9, 16) * Fraction(9, 16)
        xc = dfa_layer_counts(triple.x, 24)
        yc = dfa_layer_counts(triple.y, 24)
        for n in range(8, 25):
            dz = Fraction(zc[n - 1], 2**n)
            assert dz == target
            # Cross-check against 1 - d_X * d_Y at the same length.
            assert dz == 1 - Fraction(xc[3], 2**4) * Fraction(yc[3], 2**4)
        for n in range(1, 8):
            assert Fraction(zc[n - 1], 2**n) == 1

    def test_eps_gap_error(self):
        with pytest.raises(ValueError, match="not above phi - 1/10"):
            asymmetric_triple(AB, 1, Fraction(1, 10))

    def test_gate_checks_the_count_it_builds(self):
        # floor(8 phi) = 4 words: density 1/2 is below phi - 1/10 ~ 0.518,
        # although 5 lies within eps/3 of 8 phi ~ 4.94.
        assert phi_floor(8) == 4
        with pytest.raises(ValueError, match="W holds 4 of the 8 words of layer 3"):
            asymmetric_triple(AB, 3, Fraction(1, 10))
        assert asymmetric_triple(AB, 3, Fraction(1, 8)).w_set.layer_count(3) == 4

    def test_gate_matches_decimal_oracle(self):
        from decimal import Decimal, getcontext

        getcontext().prec = 60
        phi_hp = (Decimal(5).sqrt() - 1) / 2
        for q in (2, 3, 4):
            alphabet = Alphabet("abcd"[:q])
            for n in range(1, 5):
                total = q**n
                density = Decimal(phi_floor(total)) / Decimal(total)
                for d in range(2, 40):
                    expected = density + 1 / Decimal(d) > phi_hp
                    try:
                        triple = asymmetric_triple(alphabet, n, Fraction(1, d))
                    except ValueError as exc:
                        assert not expected, (q, n, d, exc)
                        continue
                    assert expected, (q, n, d)
                    counts = dfa_layer_counts(triple.x, n)
                    assert counts[-1] == phi_floor(total)

    @pytest.mark.parametrize("symbols, top", [("ab", 12), ("abc", 7), ("abcd", 5)])
    def test_x_and_y_match_the_rank_oracles(self, symbols, top):
        # X's digit comparator against an exploration over (depth, rank), at
        # W's size and at sizes whose digits are all 0 or all q - 1, a power
        # of q, one digit off the end, and random; Y's table likewise, at
        # W's size and at q**n - 1.
        alphabet = Alphabet(symbols)
        q = alphabet.q
        rng = random.Random(top)
        for n in range(1, top + 1):
            total = q**n
            sizes = {0, 1, total - 1, total, phi_floor(total), q ** (n // 2),
                     total - q ** (n - 1), *rng.sample(range(total + 1), min(4, total + 1))}
            for size in sorted(sizes):
                x = constructions._prefix_set_dfa(alphabet, n, size)
                assert x == prefix_set_by_rank(alphabet, n, size), (n, size)
                assert x.num_states <= 2 * n + 2
            for size in (phi_floor(total), total - 1):
                y = constructions._suffix_set_dfa(alphabet, n, size)
                assert y == suffix_set_by_rank(alphabet, n, size), (n, size)

    def test_unary_rejected_by_gap(self):
        with pytest.raises(ValueError):
            asymmetric_triple(Alphabet("a"), 3, Fraction(1, 100))


class TestGreedyGenerator:
    def test_deterministic(self):
        one = greedy_random_productfree(AB, 10, seed=42)
        two = greedy_random_productfree(AB, 10, seed=42)
        assert one == two
        other = greedy_random_productfree(AB, 10, seed=43)
        assert one != other

    @pytest.mark.parametrize("seed", range(8))
    def test_always_product_free(self, seed):
        s = greedy_random_productfree(AB, 9, seed)
        assert check_explicit(s) is None

    def test_odd_first_recovers_odd_truncation(self):
        s = greedy_random_productfree(AB, 6, seed=3, schedule="odd-first")
        expected = dfa_truncate(odd_occurrence(AB, "ab"), 6)
        assert s == expected

    def test_unknown_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            greedy_random_productfree(AB, 4, 0, schedule="bogus")

    def test_q3_and_q1(self):
        s = greedy_random_productfree(ABC, 5, seed=1)
        assert check_explicit(s) is None
        u = greedy_random_productfree(Alphabet("a"), 12, seed=1)
        assert check_explicit(u) is None

    def test_one_letter_inserts_each_split_and_extension_once(self, monkeypatch):
        # Over one symbol each member is its layer's first, so the live
        # splits and extensions change at every insertion.  Each entry goes
        # in once, in order, and nothing is rebuilt: a split m of n for
        # members m and n - m, an extension of n to j for members n < j.
        calls = []
        monkeypatch.setattr(constructions, "insort",
                            lambda a, x: calls.append(x) or insort(a, x))
        s = greedy_random_productfree(Alphabet("a"), 300, seed=1)
        live = [n for n in range(1, 301) if s.layers[n]]
        assert len(live) == 41
        splits = sum(1 for n in live for j in live if n + j <= 300)
        assert len(calls) == splits + 41 * 40 // 2 == 577 + 820

    # The longest max_len per alphabet size that keeps the oracle's
    # every-split scan at a few milliseconds.
    MAX_LEN = {1: 40, 2: 10, 3: 6, 4: 5}

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(q=st.sampled_from(sorted(MAX_LEN)), data=st.data(),
           seed=st.integers(0, 2**64), schedule=st.sampled_from(["uniform", "odd-first"]))
    def test_matches_every_split_oracle(self, q, data, seed, schedule):
        alphabet = Alphabet("abcd"[:q])
        max_len = data.draw(st.integers(1, self.MAX_LEN[q]), label="max_len")
        assert (greedy_random_productfree(alphabet, max_len, seed, schedule)
                == greedy_every_split(alphabet, max_len, seed, schedule))


# sha256 of write_explicit of greedy fixtures, as (symbols, max_len, seed,
# schedule): the explicit benchmark's size (ab, 12) under both schedules,
# abc at 7, the unary ball at 30, and wider layers at ab 14 and abcd 6,
# where the extension tests read slices of q**m words at q = 4.  Every
# odd-first ab-12 fixture is the odd-length truncation, whatever the seed.
_ODD_AB_12 = "af0252254187b7d8802682bbea2b9f5f75f5f0943d783f3029434345cc7adf6c"
PINNED_FIXTURES = {
    ("ab", 12, 0, "uniform"): "b56ae6ee376357f99733de7348c5eb37d401c3022f659fc46c7aea63f92ebd3b",
    ("ab", 12, 1, "uniform"): "b7de8cf1a119565fca86150c94f7bba6623d3195549df765d2588a5a566c27ec",
    ("ab", 12, 2, "uniform"): "faf29dd2077536019e7616dbcc0137f2d2cf809b8bc0019569ec545930e9403a",
    ("ab", 12, 3, "uniform"): "80212c224ceff49b9c3234a29bc84745a6d23b55a2f81e64970e4cb4473ebedd",
    ("ab", 12, 4, "uniform"): "6cb4eff087e5ec6d9b4e5a230acda63e64ef8ec764f613548fcd1562f93458fd",
    ("ab", 12, 5, "uniform"): "67421c47e4562d7cac86110f10859273d686072ba1009f5d750a4dd92d9d1025",
    ("ab", 12, 6, "uniform"): "b279d58db9b33cd68781a8758bdf1800ec6eb3d30b4b185b1edf92d3b7c1242b",
    ("ab", 12, 7, "uniform"): "3df85cd21924b05dadedd5568e388d99deed6e743236e98538a205a55b71e2da",
    **{("ab", 12, seed, "odd-first"): _ODD_AB_12 for seed in range(8)},
    ("abc", 7, 0, "uniform"): "4ade1568eb8a038beb5d6cf4fe6edc3d72f1e27efcae823c8f1f7f760c458297",
    ("abc", 7, 1, "uniform"): "d981b311b6294488ceca8c5e396a6b103d917809bdf7e62484790dff3bb46244",
    ("abc", 7, 2, "uniform"): "b95df3cb3134976829748802937e4e3bd32e3d66378939260566065612be847b",
    ("a", 30, 1, "uniform"): "0b77bfa9bdff963728873ea1426582bb8aebdfe6412f5aa3d249aa6438e11986",
    ("ab", 14, 0, "uniform"): "41a8b3cd79aff82aa59962024ffb7cb5c8af557ae613ed6645c347cccc0e2a65",
    ("abcd", 6, 0, "uniform"): "76db16abbce6ea7b6961bbc4e05f26323bb014cd23f09722d74062876aafcdb2",
}


@pytest.mark.parametrize("key", sorted(PINNED_FIXTURES), ids=lambda key: "-".join(map(str, key)))
def test_greedy_fixture_pinned(key):
    symbols, max_len, seed, schedule = key
    s = greedy_random_productfree(Alphabet(symbols), max_len, seed, schedule)
    digest = hashlib.sha256(write_explicit(s).encode()).hexdigest()
    assert digest == PINNED_FIXTURES[key]
