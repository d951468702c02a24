import pytest
from hypothesis import given, strategies as st

from prodfree.words import (
    Alphabet,
    FormatError,
    Word,
    concat,
    read_word_list,
    unrank,
)

from conftest import layer_words, rank, write_word_list


def base_q_digits(r: int, q: int, n: int) -> list[int]:
    """Independent oracle: the n base-q digits of r, most significant first."""
    digits = []
    for _ in range(n):
        digits.append(r % q)
        r //= q
    return digits[::-1]


words_st = st.builds(
    lambda bits: Word(Alphabet("ab"), tuple(bits)),
    st.lists(st.integers(0, 1), min_size=1, max_size=12),
)


class TestConcat:
    def test_examples(self, ab):
        assert concat(ab.word("a"), ab.word("b")).text == "ab"
        assert len(concat(ab.word("a"), ab.word("b"))) == 2
        assert concat(ab.word("ab"), ab.word("ba")).text == "abba"

    def test_associativity_spot(self, ab):
        a, b = ab.word("a"), ab.word("b")
        assert concat(concat(a, b), a) == concat(a, concat(b, a)) == ab.word("aba")

    def test_alphabet_mismatch(self, ab, abc):
        with pytest.raises(ValueError, match="mismatch"):
            concat(ab.word("a"), abc.word("c"))

    @given(x=words_st, y=words_st)
    def test_length_additive(self, x, y):
        assert len(concat(x, y)) == len(x) + len(y)

    @given(x=words_st, y=words_st, z=words_st)
    def test_associative(self, x, y, z):
        assert concat(concat(x, y), z) == concat(x, concat(y, z))


class TestLayers:
    def test_layer_words_examples(self, ab, abc):
        assert [w.text for w in layer_words(ab, 1)] == ["a", "b"]
        assert [w.text for w in layer_words(ab, 2)] == ["aa", "ab", "ba", "bb"]
        assert len(layer_words(abc, 2)) == 9

    def test_rank_examples(self, ab):
        assert rank(ab.word("aa")) == 0
        assert rank(ab.word("bb")) == 3

    def test_unrank_example_against_digit_oracle(self, ab):
        # Oracle: digits of 5 in base 2 over 3 positions are [1, 0, 1].
        assert base_q_digits(5, 2, 3) == [1, 0, 1]
        assert unrank(ab, 3, 5).text == "bab"

    def test_unrank_out_of_range(self, ab):
        with pytest.raises(ValueError, match="out of range"):
            unrank(ab, 2, 4)

    @pytest.mark.parametrize("symbols,max_n", [("ab", 10), ("abc", 7)])
    def test_rank_unrank_inverse_exhaustive(self, symbols, max_n):
        alphabet = Alphabet(symbols)
        for n in range(1, max_n + 1):
            for r in range(alphabet.q**n):
                w = unrank(alphabet, n, r)
                assert rank(w) == r
                assert w.indices == tuple(base_q_digits(r, alphabet.q, n))

    def test_rank_order_is_lexicographic(self, abc):
        texts = [w.text for w in layer_words(abc, 3)]
        assert texts == sorted(texts)

    def test_unique_factorization_exhaustive(self, ab):
        # Every word of length m+n splits exactly one way into (m, n) parts.
        for total in range(2, 11):
            for m in range(1, total):
                n = total - m
                for w in layer_words(ab, total):
                    splits = [
                        (x, y)
                        for x in [Word(ab, w.indices[:m])]
                        for y in [Word(ab, w.indices[m:])]
                        if len(x) == m and len(y) == n and concat(x, y) == w
                    ]
                    assert len(splits) == 1


class TestConstruction:
    def test_empty_word_rejected(self, ab):
        with pytest.raises(ValueError, match="empty word"):
            Word(ab, ())

    def test_bad_alphabet(self):
        with pytest.raises(ValueError, match="distinct"):
            Alphabet("aa")
        with pytest.raises(ValueError):
            Alphabet("")
        with pytest.raises(ValueError):
            Alphabet("abcdefghijklmnopq")  # 17 symbols

    @pytest.mark.parametrize("symbols", ["a#", "#", "a b", "ab\t", "a\n", "a\x1c"])
    def test_symbols_the_file_formats_cannot_carry(self, symbols):
        # '#' starts a comment and whitespace separates fields or lines.
        with pytest.raises(ValueError, match="'#' or whitespace"):
            Alphabet(symbols)

    def test_q16_supported(self):
        wide = Alphabet("0123456789abcdef")
        assert wide.q == 16
        assert rank(wide.word("10")) == 16


class TestWordListFormat:
    def test_round_trip(self, ab):
        words = [ab.word(t) for t in ["a", "ab", "bba"]]
        text = write_word_list(words, ab, horizon=4)
        alphabet, horizon, parsed = read_word_list(text)
        assert alphabet == ab
        assert horizon == 4
        assert parsed == words

    def test_comments_and_blanks(self):
        text = "# a comment\nalphabet: ab\n\nab  # trailing\nb\n"
        alphabet, horizon, parsed = read_word_list(text)
        assert horizon is None
        assert [w.text for w in parsed] == ["ab", "b"]

    def test_missing_header(self):
        with pytest.raises(FormatError, match="line 1"):
            read_word_list("ab\n")

    def test_bad_symbol_reports_line(self):
        with pytest.raises(FormatError, match="line 3"):
            read_word_list("alphabet: ab\na\nxy\n")

    def test_duplicate_horizon_header(self):
        with pytest.raises(FormatError, match="line 3: duplicate horizon header"):
            read_word_list("alphabet: ab\nhorizon: 3\nhorizon: 1\naaa\n")
