import random
import time
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from prodfree import sets
from prodfree.constructions import asymmetric_triple, odd_occurrence
from prodfree.sets import (
    Dfa,
    FormatError,
    LayeredSet,
    StateBudgetError,
    _iter_bits,
    dfa_complement,
    dfa_concat,
    dfa_layer_counts,
    dfa_truncate,
    explicit_from_words,
    explicit_layer_counts,
    read_dfa,
    read_explicit,
    write_dfa,
    write_explicit,
)
from prodfree.words import (
    Alphabet,
    Word,
    concat,
    read_word_list,
    unrank,
)

from conftest import (
    A_ONLY, DFA_ALPHABETS, Unsteppable, complete_dfas, dfa_difference, dfa_empty, dfa_full,
    dfa_intersect, dfa_is_empty, dfa_union, explicit_empty, explicit_full, layer_words,
    minkowski_product, moore_blocks_by_state, random_dfa, rank, read_by_line,
    refined_counts_by_word, set_contains, set_words, write_word_list,
)

AB = Alphabet("ab")
ODD_A = odd_occurrence(AB, "a")
ODD_LEN = odd_occurrence(AB, "ab")
EVEN_NONEMPTY = dfa_complement(ODD_LEN)


def truncation_oracle(d: Dfa, horizon: int) -> set[str]:
    """Independent membership-run oracle for L(d) within the ball."""
    out = set()
    for n in range(1, horizon + 1):
        for w in layer_words(d.alphabet, n):
            if d.accepts(w):
                out.add(w.text)
    return out


def explicit_members(s: LayeredSet) -> set[str]:
    return {w.text for w in set_words(s)}


class TestExplicitSets:
    def test_from_words_examples(self):
        s = explicit_from_words([AB.word("a")], 2)
        assert explicit_members(s) == {"a"}
        assert s.layer_count(2) == 0
        full2 = explicit_from_words(layer_words(AB, 2), 2)
        assert full2.layer_count(2) == 4

    def test_empty(self):
        s = explicit_empty(AB, 3)
        assert not any(s.layers)

    def test_word_longer_than_horizon(self):
        with pytest.raises(ValueError, match="longer than horizon"):
            explicit_from_words([AB.word("aaa")], 2)

    def test_minkowski_examples(self):
        s1 = explicit_from_words([AB.word("a")], 1)
        s2 = explicit_from_words([AB.word("b")], 1)
        assert explicit_members(minkowski_product(s1, s2, 2)) == {"ab"}
        f1 = explicit_full(AB, 1)
        assert explicit_members(minkowski_product(f1, f1, 2)) == {
            "aa", "ab", "ba", "bb"
        }

    def test_minkowski_counts_match_pairing_oracle(self):
        # |S1(m) . S2(n)| = |S1(m)| * |S2(n)|: each pair concatenates to a
        # distinct word because the split at position m is unique.
        s1 = explicit_from_words([AB.word(t) for t in ["aa", "ab", "bb"]], 2)
        s2 = explicit_from_words([AB.word(t) for t in ["a", "b"]], 1)
        product = minkowski_product(s1, s2, 3)
        pairs = {
            concat(x, y).text
            for x in set_words(s1)
            for y in set_words(s2)
        }
        assert len(pairs) == 6
        assert explicit_members(product) == pairs


class TestDfaBooleanOps:
    def test_complement_of_empty_is_full(self):
        assert dfa_complement(dfa_empty(AB)) == dfa_full(AB)

    def test_complement_of_full_is_empty(self):
        # Flipping dfa_full's accepting set and cloning its start gives three
        # states; minimising merges the clone with the old accepting state.
        assert dfa_complement(dfa_full(AB)) == dfa_empty(AB)

    def test_intersect_with_complement_empty(self):
        empty, witness = dfa_is_empty(dfa_intersect(ODD_A, dfa_complement(ODD_A)))
        assert empty and witness is None

    def test_union_of_parities_is_full(self):
        assert dfa_union(ODD_LEN, EVEN_NONEMPTY) == dfa_full(AB)

    def test_minimized_canonical(self):
        # Two different constructions of the same language minimize to the
        # same machine.
        other = dfa_complement(dfa_complement(ODD_A))
        assert other == ODD_A
        also = dfa_difference(dfa_full(AB), dfa_complement(ODD_A))
        assert also == ODD_A


class TestDfaConcat:
    def test_odd_concat_odd_is_even(self):
        cc = dfa_concat(ODD_LEN, ODD_LEN)
        assert cc == EVEN_NONEMPTY

    def test_single_letter_concat_full(self):
        starts_with_a = dfa_concat(A_ONLY, dfa_full(AB))
        got = truncation_oracle(starts_with_a, 5)
        expected = {
            w.text
            for n in range(2, 6)
            for w in layer_words(AB, n)
            if w.text.startswith("a")
        }
        assert got == expected

    def test_concat_layer_count_against_factorization_oracle(self):
        cc = dfa_concat(ODD_A, ODD_A)
        oracle = 0
        for w in layer_words(AB, 4):
            if any(
                ODD_A.accepts(Word(AB, w.indices[:m]))
                and ODD_A.accepts(Word(AB, w.indices[m:]))
                for m in range(1, 4)
            ):
                oracle += 1
        assert dfa_layer_counts(cc, 4)[-1] == oracle == 7

    def test_state_budget(self, monkeypatch):
        monkeypatch.setattr(sets, "DEFAULT_STATE_CAP", 2)
        with pytest.raises(StateBudgetError, match="state cap 2"):
            dfa_concat(ODD_A, ODD_A)
        # The cap binds the subset construction only: every other automaton
        # here explores more than 2 states and still builds.
        assert dfa_union(ODD_A, ODD_LEN).num_states == 4
        assert dfa_complement(ODD_A).num_states == 3
        assert odd_occurrence(AB, "ab") == ODD_LEN


class TestDfaSliceAndCounts:
    def test_layer_count_examples(self):
        assert dfa_layer_counts(ODD_A, 8) == [2 ** (n - 1) for n in range(1, 9)]
        assert dfa_layer_counts(ODD_LEN, 4)[-1] == 0

    def test_prefix_language_count_against_enumeration(self):
        ab_word = explicit_from_words([AB.word("ab")], 2)
        # Words with prefix "ab": build via concat of the slice with F.
        ab_dfa = _dfa_from_explicit_layer(ab_word, 2)
        with_prefix = dfa_union(ab_dfa, dfa_concat(ab_dfa, dfa_full(AB)))
        for n in range(2, 11):
            oracle = sum(
                1 for w in layer_words(AB, n) if w.text.startswith("ab")
            )
            assert dfa_layer_counts(with_prefix, n)[-1] == oracle
        assert dfa_layer_counts(with_prefix, 5)[-1] == 8

    def test_big_counts_are_exact(self):
        # Far beyond 64-bit at n = 80.
        assert dfa_layer_counts(ODD_A, 80)[-1] == 2**79

    def test_sweeps_run_at_the_horizon_cap(self):
        cap = sets.REGULAR_HORIZON_CAP
        assert dfa_layer_counts(ODD_A, cap)[-1] == 2 ** (cap - 1)
        assert dfa_layer_counts(ODD_A, cap, (1,))[-1] == 2 ** (cap - 2)

    def test_sweeps_refuse_past_the_horizon_cap_before_stepping(self):
        d = Unsteppable()
        assert (d.num_states, d.start, d.accepting) == (
            ODD_A.num_states, ODD_A.start, ODD_A.accepting)
        # The stand-in does catch a step, plain or refined ...
        for ells in ((), (1,)):
            with pytest.raises(AssertionError, match="stepped"):
                dfa_layer_counts(d, 2, ells)
        # ... and past the cap both calls refuse before taking one.
        cap = sets.REGULAR_HORIZON_CAP
        for ells in ((), (1,)):
            with pytest.raises(ValueError, match=f"horizon {cap + 1} over the enumeration budget"):
                dfa_layer_counts(d, cap + 1, ells)

    def test_refined_counts_take_the_lengths_below_each_n(self):
        # Layer n keeps the members with no member as a prefix of length 1
        # (that is, "a") or 3: a "b" and then n - 1 free letters fixed by one
        # parity for n = 2, 3, and by two parities from n = 4 on.
        assert dfa_layer_counts(ODD_A, 6, (1, 3)) == [1, 1, 2, 2, 4, 8]
        with pytest.raises(ValueError, match="below n=3"):
            dfa_layer_counts(ODD_A, 3, (1, 3))
        with pytest.raises(ValueError, match="strictly increasing"):
            dfa_layer_counts(ODD_A, 6, (2, 2))


class TestDfaEmptiness:
    def test_empty(self):
        empty, witness = dfa_is_empty(dfa_empty(AB))
        assert empty and witness is None

    def test_odd_a_witness(self):
        empty, witness = dfa_is_empty(ODD_A)
        assert not empty and witness.text == "a"

    def test_witness_is_shortest_and_lex_least(self):
        # Oracle: brute scan in (length, rank) order.
        target = dfa_intersect(EVEN_NONEMPTY, ODD_A)
        _, witness = dfa_is_empty(target)
        oracle = next(
            w
            for n in range(1, 5)
            for w in layer_words(AB, n)
            if target.accepts(w)
        )
        assert witness == oracle


class TestTruncate:
    def test_examples(self):
        assert explicit_members(dfa_truncate(ODD_A, 1)) == {"a"}
        t = dfa_truncate(ODD_LEN, 3)
        assert explicit_members(t) == {
            w.text for n in (1, 3) for w in layer_words(AB, n)
        }

    def test_truncate_matches_membership_runs(self):
        rng = random.Random(11)
        t = dfa_truncate(ODD_A, 10)
        for _ in range(200):
            n = rng.randint(1, 10)
            r = rng.randrange(2**n)
            w = unrank(AB, n, r)
            assert set_contains(t, w) == ODD_A.accepts(w)

    def test_ball_truncated_in_linear_time(self):
        # 2**20 end states in layer 20; packing them one bit at a time took
        # ~3 s.
        started = time.monotonic()
        t = dfa_truncate(ODD_A, 20)
        assert time.monotonic() - started < 1
        assert t.layer_count(20) == 2**19


def _dfa_from_explicit_layer(s: LayeredSet, n: int) -> Dfa:
    """Small helper: a DFA for the (single-layer) explicit set via a trie."""
    words = list(set_words(s))
    q = s.alphabet.q
    # Trie over prefixes; complete with a dead sink.
    nodes: dict[tuple[int, ...], int] = {(): 0}
    for w in words:
        for i in range(1, len(w.indices) + 1):
            nodes.setdefault(w.indices[:i], len(nodes))
    dead = len(nodes)
    delta = []
    for prefix, _ in sorted(nodes.items(), key=lambda kv: kv[1]):
        row = []
        for c in range(q):
            row.append(nodes.get(prefix + (c,), dead))
        delta.append(tuple(row))
    delta.append((dead,) * q)
    accepting = frozenset(nodes[w.indices] for w in words)
    return Dfa(s.alphabet, dead + 1, 0, accepting, tuple(delta))


ORACLE_PAIRS = [
    (dfa_union(ODD_A, ODD_LEN), dfa_difference(ODD_LEN, odd_occurrence(AB, "b"))),
    (ODD_A, EVEN_NONEMPTY),
    (dfa_concat(ODD_A, ODD_A), dfa_complement(dfa_union(ODD_A, ODD_LEN))),
    (dfa_empty(AB), dfa_full(AB)),
]


@pytest.mark.parametrize("d1,d2", ORACLE_PAIRS)
class TestOracleEquivalence:
    """Exhaustive agreement at N=8, q=2 between DFA algebra and Python-set
    operations on the members, and between concatenation and the explicit
    product."""

    N = 8
    UNIVERSE = {w.text for n in range(1, N + 1) for w in layer_words(AB, n)}

    def members(self, d: Dfa) -> set[str]:
        return explicit_members(dfa_truncate(d, self.N))

    def test_union(self, d1, d2):
        assert self.members(dfa_union(d1, d2)) == self.members(d1) | self.members(d2)

    def test_intersect(self, d1, d2):
        assert self.members(dfa_intersect(d1, d2)) == self.members(d1) & self.members(d2)

    def test_difference(self, d1, d2):
        assert self.members(dfa_difference(d1, d2)) == self.members(d1) - self.members(d2)

    def test_complement(self, d1, d2):
        assert self.members(dfa_complement(d1)) == self.UNIVERSE - self.members(d1)

    def test_concat(self, d1, d2):
        lhs = dfa_truncate(dfa_concat(d1, d2), self.N)
        rhs = minkowski_product(
            dfa_truncate(d1, self.N), dfa_truncate(d2, self.N), self.N
        )
        assert lhs == rhs


@st.composite
def dfa_pairs(draw) -> tuple[Dfa, Dfa, int]:
    """Two complete DFAs over one alphabet of 1-3 symbols, 1-5 states each,
    and a horizon of at most 8."""
    alphabet = draw(st.sampled_from(DFA_ALPHABETS))
    dfa = complete_dfas(alphabet)
    return draw(dfa), draw(dfa), draw(st.integers(1, 8))


@st.composite
def dfa_lengths(draw) -> tuple[Dfa, int, tuple[int, ...]]:
    """A complete DFA as in dfa_pairs, a horizon of at most 8 and strictly
    increasing lengths below it."""
    d = draw(st.sampled_from(DFA_ALPHABETS).flatmap(complete_dfas))
    horizon = draw(st.integers(1, 8))
    ells = draw(st.sets(st.integers(1, horizon - 1))) if horizon > 1 else set()
    return d, horizon, tuple(sorted(ells))


@pytest.mark.ci_profile
class TestRandomDfas:
    """Truncation, concatenation and the refined layer counts on random
    automata, against word-by-word, product and explicit layer-count
    oracles."""

    @settings(deadline=None)
    @given(case=dfa_pairs())
    def test_truncate_matches_membership_runs(self, case):
        d, _, horizon = case
        assert explicit_members(dfa_truncate(d, horizon)) == truncation_oracle(d, horizon)

    @settings(deadline=None)
    @given(case=dfa_pairs())
    def test_concat_truncates_to_the_minkowski_product(self, case):
        d1, d2, horizon = case
        assert dfa_truncate(dfa_concat(d1, d2), horizon) == minkowski_product(
            dfa_truncate(d1, horizon), dfa_truncate(d2, horizon), horizon
        )

    @settings(deadline=None)
    @given(case=dfa_lengths())
    def test_refined_counts_match_explicit_layer_counts(self, case):
        d, horizon, ells = case
        assert dfa_layer_counts(d, horizon, ells) == explicit_layer_counts(
            dfa_truncate(d, horizon), horizon, ells
        )


@pytest.mark.ci_profile
class TestMinimized:
    @settings(deadline=None)
    @given(d=st.sampled_from(DFA_ALPHABETS).flatmap(lambda a: complete_dfas(a, 8)))
    def test_unreachable_states_do_not_change_the_minimal_dfa(self, d):
        # The oracle minimises the reachable part, built with the explorer.
        reachable = sets._explore(
            d.alphabet, d.start, lambda s, c: d.delta[s][c], d.accepting.__contains__
        )
        m = sets._minimized(d)
        assert m == sets._minimized(reachable)
        assert sets._minimized(m) == m

    @settings(deadline=None)
    @given(d=st.sampled_from(DFA_ALPHABETS).flatmap(lambda a: complete_dfas(a, 8)))
    def test_moore_blocks_match_the_by_state_oracle(self, d):
        # Whole lists: the numbering itself picks _minimized's representatives.
        for e in (d, sets._start_normalized(d)):
            assert sets._moore_blocks(e) == moore_blocks_by_state(e)

    @pytest.mark.parametrize("symbols", ["ab", "abc"])
    def test_moore_blocks_on_random_200_state_dfas(self, symbols):
        # Sparse accepting sets take more rounds (up to 15 over ab), and each
        # 200-state lift of a 20-state automaton (state s runs as s % 20)
        # merges at least nine states in ten.
        alphabet = Alphabet(symbols)
        rng = random.Random(23)
        for accept in (1 / 2, 1 / 20, 1 / 100):
            for _ in range(5):
                d = random_dfa(rng, alphabet, 200, accept)
                small = random_dfa(rng, alphabet, 20, 1 / 4)
                lift = Dfa(
                    alphabet, 200, small.start,
                    frozenset(s for s in range(200) if s % 20 in small.accepting),
                    tuple(tuple(t + 20 * rng.randrange(10) for t in small.delta[s % 20])
                          for s in range(200)),
                )
                for e in (d, lift):
                    assert sets._moore_blocks(e) == moore_blocks_by_state(e)

    def test_moore_blocks_on_the_asymmetric_triple(self):
        # Z over ab at n=10 has 755 states and takes 20 rounds.
        triple = asymmetric_triple(AB, 10, Fraction(1, 10))
        for e in (triple.x, triple.y, triple.z):
            assert sets._moore_blocks(e) == moore_blocks_by_state(e)


# Largest horizon per alphabet size for the word-by-word oracle.
ORACLE_MAX_LEN = {1: 12, 2: 8, 3: 5, 4: 4}


@st.composite
def explicit_lengths(draw) -> tuple[LayeredSet, tuple[int, ...]]:
    """A random explicit set over 1-4 symbols, any layers up to its horizon,
    and strictly increasing lengths below the horizon."""
    alphabet = Alphabet("abcd"[:draw(st.integers(1, 4))])
    horizon = draw(st.integers(1, ORACLE_MAX_LEN[alphabet.q]))
    layers = [0] + [draw(st.integers(0, (1 << alphabet.layer_size(n)) - 1))
                    for n in range(1, horizon + 1)]
    ells = draw(st.sets(st.integers(1, horizon - 1))) if horizon > 1 else set()
    return LayeredSet(alphabet, horizon, tuple(layers)), tuple(sorted(ells))


class TestPrefixExcluded:
    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(case=explicit_lengths())
    def test_matches_the_word_by_word_oracle(self, case):
        s, ells = case
        assert explicit_layer_counts(s, s.horizon, ells) == refined_counts_by_word(
            partial(set_contains, s), s.alphabet, s.horizon, ells
        )

    def test_odd_length_all_covered(self):
        t = dfa_truncate(ODD_LEN, 3)
        assert explicit_layer_counts(t, 3, (1,))[-1] == 0

    def test_one_letter_exclusion(self):
        s = explicit_from_words(
            [AB.word("a")] + list(layer_words(AB, 3)), 3
        )
        # Oracle: enumerate layer 3 and drop words starting with 'a'.
        expected = {w.text for w in layer_words(AB, 3) if not w.text.startswith("a")}
        assert explicit_layer_counts(s, 3, (1,))[-1] == len(expected) == 4

    def test_subset_of_layer(self):
        t = dfa_truncate(ODD_A, 6)
        assert explicit_layer_counts(t, 6, (1, 3))[-1] <= t.layer_count(6)

    def test_monotone_in_ell_set(self):
        t = dfa_truncate(ODD_A, 8)
        prev = explicit_layer_counts(t, 8, (1,))[-1]
        for ells in [(1, 2), (1, 2, 3), (1, 2, 3, 5)]:
            cur = explicit_layer_counts(t, 8, ells)[-1]
            assert cur <= prev
            prev = cur

    def test_disjointness_exhaustive(self):
        # S(n; m) and S(m) . F(n-m) split layer n of S, all m < n <= 8.
        for d in (ODD_A, ODD_LEN, dfa_union(ODD_A, ODD_LEN)):
            t = dfa_truncate(d, 8)
            for n in range(2, 9):
                for m in range(1, n):
                    cover = minkowski_product(
                        explicit_from_words(
                            [w for w in set_words(t) if len(w) == m], m
                        ) if t.layers[m] else explicit_empty(AB, m),
                        explicit_full(AB, n - m),
                        n,
                    )
                    covered = (t.layers[n] & cover.layers[n]).bit_count()
                    assert explicit_layer_counts(t, n, (m,))[-1] + covered == t.layer_count(n)

    def test_regular_explicit_agreement(self):
        for ells, n in [((1,), 4), ((2, 3), 5), ((1, 2, 4), 6)]:
            fast = dfa_layer_counts(ODD_A, n, ells)
            assert fast == explicit_layer_counts(dfa_truncate(ODD_A, n), n, ells)

    def test_bad_ell_sequence(self):
        t = dfa_truncate(ODD_A, 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            explicit_layer_counts(t, 4, (2, 2))
        with pytest.raises(ValueError, match="below n"):
            explicit_layer_counts(t, 4, (4,))
        with pytest.raises(ValueError, match="horizon 5 exceeds explicit horizon 4"):
            explicit_layer_counts(t, 5)


class TestDfaFormat:
    def test_round_trip(self):
        for d in (ODD_A, ODD_LEN, dfa_empty(AB), dfa_full(AB)):
            assert read_dfa(write_dfa(d)) == d

    def test_canonical_layout(self):
        text = write_dfa(ODD_A)
        lines = text.splitlines()
        assert lines[0] == "alphabet: ab"
        assert lines[1] == "states: 2"
        assert lines[2] == "start: 0"
        assert lines[3].startswith("accept:")
        assert all(l.startswith("trans: ") for l in lines[4:])

    def test_incomplete_rejected(self):
        text = (
            "alphabet: ab\nstates: 2\nstart: 0\naccept: 1\n"
            "trans: 0 a 1\ntrans: 0 b 0\ntrans: 1 a 0\n"
        )
        with pytest.raises(FormatError, match="incomplete"):
            read_dfa(text)

    def test_bad_symbol_line_number(self):
        text = (
            "alphabet: ab\nstates: 1\nstart: 0\naccept:\n"
            "trans: 0 a 0\ntrans: 0 z 0\n"
        )
        with pytest.raises(FormatError, match="line 6"):
            read_dfa(text)

    def test_duplicate_transition(self):
        text = (
            "alphabet: ab\nstates: 1\nstart: 0\naccept:\n"
            "trans: 0 a 0\ntrans: 0 a 0\ntrans: 0 b 0\n"
        )
        with pytest.raises(FormatError, match="duplicate"):
            read_dfa(text)

    def test_comments_and_blank_lines(self):
        text = "# parity of a\n\n" + write_dfa(ODD_A).replace("\n", "  # note\n\n")
        assert read_dfa(text) == ODD_A

    @pytest.mark.parametrize("text,message", [
        ("alphabet: aa\n", "line 1: alphabet symbols must be distinct"),
        ("# comment\n\nalphabet: a b\n", "line 3: alphabet symbols"),
        ("alphabet: ab\nstates: x\n", "line 2: bad state count 'x'"),
        ("alphabet: ab\nstates: \u00b2\n", "line 2: bad state count '\u00b2'"),
        ("alphabet: ab\nstates: 2\nstart: -1\n", "line 3: bad start state '-1'"),
        ("alphabet: ab\nstates: 2\nstart: \u00b9\n", "line 3: bad start state '\u00b9'"),
        ("alphabet: ab\nstates: 2\nstart: 0\naccept: 1 x\n",
         "line 4: bad accept list '1 x'"),
        ("alphabet: ab\nstates: 1\nstart: 0\naccept:\ntrans: 0 a\n",
         "line 5: expected 'trans: STATE SYMBOL TARGET'"),
        ("alphabet: ab\nstates: 1\nstart: 0\naccept:\ntrans: x a 0\n",
         "line 5: bad transition 'x a 0'"),
        ("alphabet: ab\nstates: 2\nstart: 0\naccept: +1\n", "line 4: bad accept list '\\+1'"),
        ("alphabet: ab\nstates: 11\nstart: 0\naccept: 1\ntrans: 0 a 1_0\n",
         "line 5: bad transition '0 a 1_0'"),
        # Arabic-Indic digits: str.isdecimal() holds and int() reads them.
        ("alphabet: ab\nstates: \u0662\n", "line 2: bad state count '\u0662'"),
        ("alphabet: ab\nstates: 2\nstart: \u0660\n", "line 3: bad start state '\u0660'"),
        ("alphabet: ab\nstates: 2\nstart: 0\naccept: \u0661\n",
         "line 4: bad accept list '\u0661'"),
        ("alphabet: ab\nstates: 2\nstart: 0\naccept: 1\ntrans: \u0660 a 1\n",
         "line 5: bad transition '\u0660 a 1'"),
        ("alphabet: ab\nstates: 2\nstart: 0\naccept: 1\ntrans: 0 a \u0661\n",
         "line 5: bad transition '0 a \u0661'"),
        ("states: 1\ntrans: 0 a 0\nalphabet: ab\n", "line 2: trans before alphabet header"),
        ("alphabet: ab\nfinal: 1\n", "line 2: unknown directive 'final'"),
        ("alphabet: ab\nstates: 1\naccept:\ntrans: 0 a 0\ntrans: 0 b 0\n",
         "^missing header line \\(alphabet/states/start/accept\\)$"),
        ("alphabet: ab\nstates: 1\nstart: 0\naccept:\n"
         "trans: 0 a 0\ntrans: 0 b 0\ntrans: 1 a 0\n",
         "^transitions reference states outside 0..states-1$"),
        ("alphabet: ab\nstates: 2\nstart: 0\naccept: 5\n"
         "trans: 0 a 1\ntrans: 0 b 0\ntrans: 1 a 0\ntrans: 1 b 1\n",
         "^accepting state out of range$"),
        ("alphabet: ab\nstates: 2\nstart: 0\naccept: 1\n"
         "trans: 0 a 9\ntrans: 0 b 0\ntrans: 1 a 0\ntrans: 1 b 1\n",
         "^transition target out of range$"),
    ], ids=[
        "bad-alphabet", "line-numbers-count-comments", "bad-states", "superscript-states",
        "bad-start", "superscript-start", "bad-accept", "short-trans", "trans-not-int",
        "accept-sign", "trans-underscore", "arabic-indic-states", "arabic-indic-start",
        "arabic-indic-accept", "arabic-indic-trans-state", "arabic-indic-trans-target",
        "trans-before-alphabet", "unknown-directive", "missing-header",
        "state-outside-range", "accept-out-of-range", "target-out-of-range",
    ])
    def test_malformed_input(self, text, message):
        with pytest.raises(FormatError, match=message):
            read_dfa(text)

    def test_word_list_with_only_comments(self):
        with pytest.raises(FormatError, match="^missing 'alphabet:' header$"):
            read_explicit("# no header\n\n# still none\n")

    @pytest.mark.parametrize("key", ["alphabet", "states", "start", "accept"])
    def test_duplicate_header(self, key):
        # Were a second header to replace the first, a second "accept:"
        # would change the set and a second "alphabet:" relabel symbols
        # already read.
        lines = write_dfa(ODD_A).splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(key + ":"))
        lines.insert(at + 1, lines[at])
        with pytest.raises(FormatError, match=f"line {at + 2}: duplicate {key} header"):
            read_dfa("\n".join(lines))


# Word lists at rank level: read_explicit and write_explicit against the
# line-by-line reader read_by_line and the write_word_list oracle (both in
# conftest).  Longest word per alphabet size; q**len stays inside the
# enumeration budget.
TEXT_ALPHABETS = [Alphabet(s) for s in ("a", "ab", "abc", "0123456789abcdef")]
TEXT_MAX_LEN = {1: 30, 2: 14, 3: 9, 16: 4}
# Characters int() tolerates in some position; none is a symbol of "ab".
# '\u0661' is an Arabic-Indic 1.
INT_TOLERATED = ["1", "_", "+", "-", " ", "\u0661"]
# Every line boundary str.splitlines honours.
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


# Headers that int() reads ('+3' and '\u0663', an Arabic-Indic 3, as 3, and
# '1_0' as 10) or that no word fits ('-1'): each is refused at its line.
BAD_HORIZONS = [
    f"alphabet: ab\nhorizon: {value}\na\n" for value in ["+3", "1_0", "\u0663", "-1", "0", "00"]
]


def outcome(read, text: str):
    """The set read, or the type and message of the error raised."""
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def layered_sets(draw) -> LayeredSet:
    alphabet = draw(st.sampled_from(TEXT_ALPHABETS))
    q = alphabet.q
    horizon = draw(st.integers(1, TEXT_MAX_LEN[q]))
    layers = [0]
    for n in range(1, horizon + 1):
        ranks = draw(st.sets(st.integers(0, q**n - 1), max_size=5))
        layers.append(sum(1 << r for r in ranks))
    return LayeredSet(alphabet, horizon, tuple(layers))


@st.composite
def word_list_texts(draw) -> tuple[str, set[str]]:
    """A word list with comments, blank lines, padding, duplicate words,
    headers anywhere (so some texts are malformed), any line boundary, with
    or without a final one, and sometimes a run of 50 or more plain lines;
    and its word set."""
    alphabet = draw(st.sampled_from(TEXT_ALPHABETS))
    max_len = TEXT_MAX_LEN[alphabet.q]
    word = st.text(alphabet=alphabet.symbols, min_size=1, max_size=max_len)
    words = draw(st.lists(word, max_size=10))
    if words:
        words += draw(st.lists(st.sampled_from(words), max_size=3))
    if draw(st.booleans()):
        # One line int() may take, if the alphabet does not.
        words.append(draw(st.text(alphabet=alphabet.symbols, max_size=2))
                     + draw(st.sampled_from(INT_TOLERATED))
                     + draw(st.text(alphabet=alphabet.symbols, min_size=1, max_size=2)))
    words = draw(st.permutations(words))
    lines = []
    for w in words:
        lines += draw(st.lists(st.sampled_from(["", "   ", "# comment", "  #"]),
                               max_size=1))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        note = draw(st.sampled_from(["", "  # note", "#"]))
        lines.append(pad + w + pad + note)
    first_word = next((i for i, l in enumerate(lines) if l.strip(" \t#")), len(lines))
    lines.insert(draw(st.integers(0, first_word)), f"alphabet: {alphabet.symbols}")
    if draw(st.booleans()):
        horizon = draw(st.integers(0, max_len + 1))
        lines.insert(draw(st.integers(0, len(lines))), f"horizon: {horizon}")
    # Mostly '\n', so that runs of plain lines stay common.
    breaks = st.one_of(st.just("\n"), st.sampled_from(LINE_BREAKS))
    ends = [draw(breaks) for _ in lines]
    if draw(st.booleans()):
        # A run of plain lines, a few words repeated.
        at = draw(st.integers(0, len(lines)))
        pool = draw(st.lists(word, min_size=1, max_size=6))
        run = (pool * 50)[: draw(st.integers(50, 60))]
        lines[at:at] = run
        ends[at:at] = ["\n"] * len(run)
        words += pool
    if draw(st.booleans()):
        ends[-1] = ""  # no final line boundary
    text = "".join(line + end for line, end in zip(lines, ends))
    return text, {w.strip() for w in words}


@pytest.mark.ci_profile
class TestWordListText:
    @given(s=layered_sets())
    def test_write_matches_the_word_path(self, s):
        text = write_explicit(s)
        assert text == write_word_list(set_words(s), s.alphabet, s.horizon)
        assert read_explicit(text) == s

    @given(case=word_list_texts())
    def test_read_matches_the_line_by_line_reader(self, case):
        text, words = case
        got = outcome(read_explicit, text)
        assert got == outcome(read_by_line, text)
        if isinstance(got, LayeredSet):
            assert explicit_members(got) == words
        # read_word_list shares the scanner: the same words, or the same
        # format error (the horizon is not its to check).
        listed = outcome(lambda t: {w.text for w in read_word_list(t)[2]}, text)
        if isinstance(got, LayeredSet):
            assert listed == words
        elif got[0] is FormatError:
            assert listed == got

    def test_examples(self, unary):
        assert read_explicit("alphabet: ab\n") == explicit_empty(AB, 1)
        assert read_explicit("alphabet: a\nhorizon: 5\naaa\n").layers == (0, 0, 0, 1, 0, 0)
        text = "alphabet: ab\nab\n# x\nbb  # y\nab\nhorizon: 3\n"
        assert explicit_members(read_explicit(text)) == {"ab", "bb"}
        assert write_explicit(read_explicit(text)) == "alphabet: ab\nhorizon: 3\nab\nbb\n"
        assert write_explicit(explicit_full(unary, 3)) == "alphabet: a\nhorizon: 3\na\naa\naaa\n"

    @pytest.mark.parametrize("line", ["1", "_", "+", "-", "a b", "1_0", "+a", "-b",
                                      "a_b", "b1", "a\u0661"])
    def test_characters_int_accepts_are_refused(self, line):
        # int('1_0', 2) == 2 and int('+1', 2) == 1; '\u0661' is an Arabic-Indic 1.
        text = f"alphabet: ab\nhorizon: 3\na\n{line}\nb\n"
        with pytest.raises(FormatError, match="line 4: symbol .* not in alphabet"):
            read_explicit(text)
        assert outcome(read_explicit, text) == outcome(read_by_line, text)

    @pytest.mark.parametrize("text", [
        "alphabet: a:\nhorizon: 3\na:\n::a\n:\n",
        "alphabet: a:\n:a\nhorizon:\n",
        "alphabet: horizn:\nhoriz\nhorizon:\n",
        "alphabet: a!\n!\na!a\n",
        "alphabet: \u03b1\u03b2\n\u03b1\u03b2\n\u03b2 # \u03b3\n\u03b2\u03b2\u03b2\n",
        "alphabet: ab\r\nhorizon: 3\r\nab\r\nb\r\n",
        "alphabet: ab\nab\x85\nb\u2028\nba",
        "alphabet: ab\n" + "ab\n" * 60 + "b\r" * 3 + "a\u0661\n",
        "\n\r\n# only a comment\x1c  \nalphabet: ab\x1dab\x1ehorizon: 2",
        "alphabet: ab\nabab\nhorizon: 3\n",
    ])
    def test_special_lines_match(self, text):
        assert outcome(read_explicit, text) == outcome(read_by_line, text)

    @pytest.mark.parametrize("text", [
        "a\nalphabet: ab\n",
        "alphabet: ab\nalphabet: ab\n",
        "# no header\na\n",
        "alphabet: aa\n",
        "alphabet: ab\nhorizon: x\n",
        "alphabet: ab\nhorizon: 2\nb\nhorizon: 2\n",
        "alphabet: ab\nhorizon: 0\n",
        "alphabet: ab\nhorizon: 2\nabc\n",
        "alphabet: ab\nbab\nhorizon: 2\n",
        *BAD_HORIZONS,
    ])
    def test_format_errors_match(self, text):
        got = outcome(read_explicit, text)
        assert not isinstance(got, LayeredSet)
        assert got == outcome(read_by_line, text)

    @pytest.mark.parametrize("text", BAD_HORIZONS)
    def test_horizon_takes_ascii_digits_only(self, text):
        for read in (read_explicit, read_word_list, read_by_line):
            with pytest.raises(FormatError, match="^line 2: bad horizon$"):
                read(text)

    @pytest.mark.parametrize("header", ["", "horizon: 5\n"])
    def test_word_past_the_int_digit_limit(self, header):
        # Base 3 is not a power of two, so int() refuses 5000 digits where
        # the Word path does not; both must still agree.
        text = f"alphabet: abc\n{header}a\n{'b' * 5000}\n"
        got = outcome(read_explicit, text)
        assert got == outcome(read_by_line, text)
        assert got[0] is ValueError

    def test_duplicate_horizon_header(self):
        text = "alphabet: ab\nhorizon: 3\nhorizon: 1\naaa\n"
        with pytest.raises(FormatError, match="line 3: duplicate horizon header"):
            read_explicit(text)
        with pytest.raises(FormatError, match="line 3: duplicate horizon header"):
            read_word_list(text)

    def test_budget_checked_before_any_layer(self):
        started = time.monotonic()
        with pytest.raises(ValueError, match="enumeration budget"):
            read_explicit("alphabet: ab\nhorizon: 23\na\n")
        with pytest.raises(ValueError, match="enumeration budget"):
            read_explicit(f"alphabet: ab\n{'a' * 200}\n")
        assert time.monotonic() - started < 1

    @given(bits=st.integers(0, 1 << 300))
    def test_linear_bit_walk(self, bits):
        assert list(_iter_bits(bits)) == [i for i in range(bits.bit_length()) if bits >> i & 1]

    def test_full_ball_written_in_linear_time(self):
        # 524,286 words; a walk that copies the layer per member took ~7.5 s.
        s = explicit_full(AB, 18)
        started = time.monotonic()
        text = write_explicit(s)
        assert time.monotonic() - started < 2
        assert text.count("\n") == 2 + 2**19 - 2


class TestUnary:
    def test_q1_operations(self, unary):
        odd = odd_occurrence(unary, "a")
        assert dfa_layer_counts(odd, 6) == [1, 0, 1, 0, 1, 0]
        t = dfa_truncate(odd, 6)
        assert [t.layer_count(n) for n in range(1, 7)] == [1, 0, 1, 0, 1, 0]
        cc = dfa_concat(odd, odd)
        assert dfa_layer_counts(cc, 6) == [0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("build", [explicit_full, explicit_empty, "truncate"])
    def test_horizon_past_the_budget_refused_at_once(self, unary, build):
        # q**H is 1 for a one-symbol alphabet, so only H itself can say no.
        started = time.monotonic()
        with pytest.raises(ValueError, match="enumeration budget"):
            if build == "truncate":
                dfa_truncate(odd_occurrence(unary, "a"), 2**22 + 1)
            else:
                build(unary, 2**22 + 1)
        assert time.monotonic() - started < 1
