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
from prodfree.productfree import (
    WitnessTriple,
    check_explicit,
    check_regular,
    pairwise_inequality,
)
from prodfree.sets import (
    Dfa,
    dfa_concat,
    dfa_full,
    dfa_intersect,
    dfa_is_empty,
    dfa_length_slice,
    dfa_truncate,
    dfa_union,
    explicit_empty,
    explicit_from_words,
    explicit_full,
)
from prodfree.words import Alphabet, Word, concat, layer_words, rank

AB = Alphabet("ab")
ODD_A = odd_occurrence(AB, "a")
ODD_LEN = odd_occurrence(AB, "ab")


def naive_product_scan(s) -> WitnessTriple | None:
    """Independent oracle: double loop over all member pairs."""
    members = list(s.words())
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

    def test_witness_soundness(self):
        s = explicit_full(AB, 3)
        w = check_explicit(s)
        assert concat(w.x, w.y) == w.z
        assert s.contains(w.x) and s.contains(w.y) and s.contains(w.z)


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
        a_only = dfa_length_slice(ODD_A, 1)
        starts_with_a = dfa_union(a_only, dfa_concat(a_only, dfa_full(AB)))
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


class TestPairwise:
    def test_odd_length_tight(self):
        records = pairwise_inequality(ODD_LEN, 8)
        r = next(rec for rec in records if rec.m == 1 and rec.n == 1)
        assert r.lhs == 1 and not r.violated

    def test_odd_a_constant(self):
        for rec in pairwise_inequality(ODD_A, 10):
            assert rec.lhs == Fraction(3, 4)
            assert not rec.violated

    def test_full_flagged(self):
        records = pairwise_inequality(dfa_full(AB), 4)
        r = next(rec for rec in records if rec.m == 1 and rec.n == 1)
        assert r.lhs == 2 and r.violated

    def test_product_free_sets_never_violate(self):
        for seed in range(10):
            s = greedy_random_productfree(AB, 8, seed)
            assert check_explicit(s) is None
            assert not any(rec.violated for rec in pairwise_inequality(s, 8))
