import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from prodfree.constructions import (
    asymmetric_triple,
    greedy_random_productfree,
    odd_occurrence,
)
from prodfree import productfree
from prodfree.productfree import (
    WitnessTriple,
    check_explicit,
    check_regular,
)
from prodfree.proofkit import chained_inequality_check
from prodfree.sets import (
    Dfa,
    LayeredSet,
    _iter_bits,
    _live_splits,
    _spread,
    dfa_concat,
    dfa_truncate,
    explicit_from_words,
)
from prodfree.words import Alphabet, Word, concat

from conftest import (
    A_ONLY, dfa_full, dfa_intersect, dfa_is_empty, dfa_union, explicit_empty, explicit_full,
    layer_words, rank, set_contains, set_words,
)

AB = Alphabet("ab")
A = Alphabet("a")
ODD_A = odd_occurrence(AB, "a")
ODD_LEN = odd_occurrence(AB, "ab")


def naive_product_scan(s) -> WitnessTriple | None:
    """Independent oracle: double loop over all member pairs."""
    members = list(set_words(s))
    lookup = {(len(w), tuple(w.indices)) for w in members}
    found = []
    for x in members:
        for y in members:
            z = concat(x, y)
            if len(z) <= s.horizon and (len(z), tuple(z.indices)) in lookup:
                found.append(WitnessTriple(x, y, z))
    if not found:
        return None
    return min(found, key=lambda t: (len(t.z), rank(t.z), len(t.x)))


def spread_by_bits(left: int, block: int, width: int) -> int:
    """The per-bit loop sets._spread replaced: the reference for it."""
    out = 0
    for x in range(left.bit_length()):
        if left >> x & 1:
            out |= block << (x * width)
    return out


@st.composite
def dense_low_sparse_high(draw) -> LayeredSet:
    """Dense or empty layers up to a cut, then sparse or empty ones."""
    alphabet = draw(st.sampled_from([AB, Alphabet("abc")]))
    q = alphabet.q
    horizon = draw(st.integers(2, 10 if q == 2 else 6))
    cut = draw(st.integers(0, 5 if q == 2 else 3))
    layers = [0]
    for n in range(1, horizon + 1):
        if n <= cut:
            layers.append(draw(st.one_of(st.just(0), st.integers(0, (1 << q**n) - 1))))
        else:
            ranks = draw(st.sets(st.integers(0, q**n - 1), max_size=3))
            layers.append(sum(1 << r for r in ranks))
    return LayeredSet(alphabet, horizon, tuple(layers))


@pytest.mark.ci_profile
class TestSpread:
    @given(left=st.integers(0, 1 << 80),
           width=st.sampled_from([1, 2, 3, 4, 8, 9, 27, 64, 81, 128]),
           data=st.data())
    def test_matches_the_per_bit_loop(self, left, width, data):
        block = data.draw(st.integers(0, (1 << width) - 1))
        assert _spread(left, block, width) == spread_by_bits(left, block, width)

    @pytest.mark.parametrize("left,block,width", [
        (0, 0, 1), (0, 1, 1), (0, 5, 3), (1, 1, 1), (0b1011, 1, 1), (0b1011, 0, 1),
        (0b101, 0b11, 2), (0b110, 0b101, 3), (1 << 40, 1, 1), (1, 1 << 63, 64),
    ])
    def test_edges(self, left, block, width):
        assert _spread(left, block, width) == spread_by_bits(left, block, width)


@pytest.mark.ci_profile
class TestCheckExplicit:
    def test_full_ball_witness(self):
        s = explicit_full(AB, 2)
        witness = check_explicit(s)
        assert (witness.x.text, witness.y.text, witness.z.text) == ("a", "a", "aa")

    def test_odd_truncation_ok(self):
        assert check_explicit(dfa_truncate(ODD_LEN, 9)) is None

    def test_a_ab_ok(self):
        # Oracle: a.a, a.ab, ab.a, ab.ab all land outside {a, ab}.
        s = explicit_from_words([AB.word("a"), AB.word("ab")], 4)
        assert naive_product_scan(s) is None
        assert check_explicit(s) is None

    def test_agrees_with_naive_scan_on_random_sets(self):
        rng = random.Random(17)
        for trial in range(100):
            words = [
                w
                for n in range(1, 7)
                for w in layer_words(AB, n)
                if rng.random() < 0.25
            ]
            s = (
                explicit_from_words(words, 6)
                if words
                else explicit_empty(AB, 6)
            )
            expected = naive_product_scan(s)
            got = check_explicit(s)
            if expected is None:
                assert got is None
            else:
                assert got == expected  # same least witness

    @settings(deadline=None)
    @given(s=dense_low_sparse_high())
    def test_agrees_with_naive_scan_on_dense_low_sparse_high_layers(self, s):
        assert check_explicit(s) == naive_product_scan(s)

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_top_of_a_wide_ball(self, seed):
        # ab H=18: layers 7-9 about a quarter full, two words in each of
        # layers 16-18 (seed 0 adds a product of two members of layer 9 to
        # layer 18), nothing else.  Layers this sparse are probed member
        # by member.  Equality only, no timing.
        rng = random.Random(seed)
        layers = [0] * 19
        for n in (7, 8, 9):
            layers[n] = rng.getrandbits(2**n) & rng.getrandbits(2**n)
        for n in (16, 17, 18):
            for r in rng.sample(range(2**n), 2):
                layers[n] |= 1 << r
        if seed == 0:
            x, y = (next(_iter_bits(layers[9] >> k)) + k for k in (3, 7))
            layers[18] |= 1 << (x * 2**9 + y)
        s = LayeredSet(AB, 18, tuple(layers))
        assert check_explicit(s) == naive_product_scan(s)

    @pytest.mark.parametrize("lengths, horizon, witness", [
        ((1,), 2000, None),
        ((1, 5, 7), 300, None),
        ((1, 3, 4), 300, ("a", "aaa", "aaaa")),
    ])
    def test_live_splits_only_of_nonempty_layers(self, lengths, horizon, witness,
                                                  monkeypatch):
        # Over one symbol a layer holds one word.  A layer with no member
        # has no product to find, so its splits are never listed.
        calls = []
        monkeypatch.setattr(productfree, "_live_splits",
                            lambda layers, n: calls.append(n) or _live_splits(layers, n))
        s = LayeredSet(A, horizon, tuple(int(n in lengths) for n in range(horizon + 1)))
        w = check_explicit(s)
        assert (w and (w.x.text, w.y.text, w.z.text)) == witness
        assert len(calls) <= len(lengths) and all(n in lengths for n in calls)

    def test_witness_soundness(self):
        s = explicit_full(AB, 3)
        w = check_explicit(s)
        assert concat(w.x, w.y) == w.z
        assert set_contains(s, w.x) and set_contains(s, w.y) and set_contains(s, w.z)


class TestCheckRegular:
    @pytest.mark.parametrize("symbols", ["ab", "abc"])
    def test_odd_occurrence_always_ok(self, symbols):
        alphabet = Alphabet(symbols)
        gammas = [
            "".join(g)
            for size in range(1, alphabet.q + 1)
            for g in combinations_with_replacement(symbols, size)
            if len(set(g)) == size
        ]
        for gamma in gammas:
            assert check_regular(odd_occurrence(alphabet, gamma)) is None

    def test_left_closed_language_witness(self):
        starts_with_a = dfa_union(A_ONLY, dfa_concat(A_ONLY, dfa_full(AB)))
        witness = check_regular(starts_with_a)
        assert len(witness.z) == 2
        assert (witness.x.text, witness.y.text, witness.z.text) == ("a", "a", "aa")

    def test_full_witness_length_two(self):
        witness = check_regular(dfa_full(AB))
        assert len(witness.z) == 2

    def test_witness_soundness(self):
        witness = check_regular(dfa_full(AB))
        assert concat(witness.x, witness.y) == witness.z
        d = dfa_full(AB)
        assert d.accepts(witness.x) and d.accepts(witness.y) and d.accepts(witness.z)

    def test_regular_ok_implies_explicit_ok(self):
        for d in (ODD_A, ODD_LEN, odd_occurrence(AB, "b")):
            assert check_regular(d) is None
            for horizon in (4, 8, 12):
                assert check_explicit(dfa_truncate(d, horizon)) is None


def subset_construction_check(d: Dfa) -> WitnessTriple | None:
    """Independent oracle for check_regular: the lex-least shortest z of the
    determinised (L.L) ∩ L, split at the least |x| with x and y in L."""
    empty, z = dfa_is_empty(dfa_intersect(dfa_concat(d, d), d))
    if empty:
        return None
    for m in range(1, len(z)):
        x = Word(d.alphabet, z.indices[:m])
        y = Word(d.alphabet, z.indices[m:])
        if d.accepts(x) and d.accepts(y):
            return WitnessTriple(x, y, z)
    raise AssertionError("z has no split into two members")


@st.composite
def complete_dfas(draw) -> Dfa:
    """1-7 states over 1-3 symbols; any start state, accepting or not, and
    unreachable states are allowed."""
    alphabet = Alphabet(draw(st.sampled_from(["a", "ab", "abc"])))
    n = draw(st.integers(1, 7))
    state = st.integers(0, n - 1)
    delta = tuple(tuple(draw(state) for _ in range(alphabet.q)) for _ in range(n))
    return Dfa(alphabet, n, draw(state), frozenset(draw(st.sets(state))), delta)


class TestCheckRegularOracle:
    @settings(max_examples=300, deadline=None)
    @given(d=complete_dfas())
    # After aa, phase 1 in state 1 and phase 2 in (1, 2) share one word; a
    # search expanding them one after the other finds aaba before aaab.
    @example(d=Dfa(AB, 4, 0, frozenset({2, 3}), ((2, 2), (0, 3), (1, 0), (2, 3))))
    def test_same_triple_as_the_subset_construction(self, d):
        assert check_regular(d) == subset_construction_check(d)

    @pytest.mark.parametrize("symbols, n", [
        ("ab", 4), ("ab", 5), ("ab", 6), ("abc", 3), ("abc", 4),
    ])
    def test_asymmetric_triples(self, symbols, n):
        triple = asymmetric_triple(Alphabet(symbols), n, Fraction(1, 10))
        for d in (triple.x, triple.y, triple.z):
            expected = subset_construction_check(d)
            assert expected is not None
            assert check_regular(d) == expected


class TestCheckRegularBudget:
    @staticmethod
    def cycle(n: int, accepting: frozenset[int]) -> Dfa:
        """Lengths modulo n, accepted at the given residues."""
        row = tuple((s + 1) % n for s in range(n))
        return Dfa(AB, n, 0, accepting, tuple(zip(row, row)))

    def test_largest_automaton_within_the_budget(self):
        # Lengths 1 mod 2047 are product-free: a product has length 2.
        assert check_regular(self.cycle(2047, frozenset({1}))) is None

    def test_start_normalisation_counts(self):
        # An accepting start is cloned, so these 2,047 states count as 2,048.
        with pytest.raises(ValueError, match="2048-state automaton.*enumeration budget"):
            check_regular(self.cycle(2047, frozenset({0, 1})))


def pairwise_lhs(s, m: int, n: int) -> Fraction:
    """d(m)d(n) + d(m+n): the chained inequality with the one length m."""
    return chained_inequality_check(s, [m], m + n).lhs


class TestPairwise:
    def test_odd_length_tight(self):
        assert pairwise_lhs(ODD_LEN, 1, 1) == 1

    def test_odd_a_constant(self):
        for m in range(1, 6):
            for n in range(m, 11 - m):
                assert pairwise_lhs(ODD_A, m, n) == Fraction(3, 4)

    def test_full_flagged(self):
        assert pairwise_lhs(dfa_full(AB), 1, 1) == 2

    def test_product_free_sets_never_violate(self):
        for seed in range(10):
            s = greedy_random_productfree(AB, 8, seed)
            assert check_explicit(s) is None
            for m in range(1, 5):
                for n in range(m, 9 - m):
                    assert pairwise_lhs(s, m, n) <= 1
