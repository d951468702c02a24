"""Alphabets and words: the elements of the free semigroup.

Words are nonempty and immutable.  Within a layer (fixed length) words are
ordered lexicographically by an integer rank, which is just the base-q value
of the symbol indices; most of the package works on (length, rank) pairs and
only materialises Word objects at the edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import defaultdict
from itertools import repeat
from typing import Iterable, TextIO

DEFAULT_ALPHABET = "ab"
MAX_SYMBOLS = 16

# Hard cap on q**n wherever a whole layer is enumerated or stored explicitly.
ENUMERATION_BUDGET = 1 << 22


def _over_budget(sizes: Iterable[int]) -> bool:
    """Whether the sizes sum past ENUMERATION_BUDGET.  Stops at the first
    partial sum over it, so a huge horizon is refused after a few terms."""
    total = 0
    for size in sizes:
        total += size
        if total > ENUMERATION_BUDGET:
            return True
    return False


class FormatError(ValueError):
    """Malformed input file; message carries the offending line number."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered list of distinct single-character symbols.

    The symbol order is fixed at construction and defines the lexicographic
    order on words of equal length.
    """

    symbols: str = DEFAULT_ALPHABET

    def __post_init__(self) -> None:
        if not 1 <= len(self.symbols) <= MAX_SYMBOLS:
            raise ValueError(
                f"alphabet needs 1..{MAX_SYMBOLS} symbols, got {len(self.symbols)}"
            )
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"alphabet symbols must be distinct: {self.symbols!r}")
        # '#' starts a comment and whitespace separates fields in both file
        # formats, so such a symbol could not be written and read back.
        if any(c == "#" or c.isspace() for c in self.symbols):
            raise ValueError(
                f"alphabet symbols cannot be '#' or whitespace: {self.symbols!r}"
            )

    @property
    def q(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        i = self.symbols.find(symbol)
        if i < 0 or len(symbol) != 1:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.symbols!r}")
        return i

    def word(self, text: str) -> Word:
        """Parse a word from its textual form."""
        return Word(self, tuple(self.index(ch) for ch in text))

    def layer_size(self, n: int) -> int:
        """|F(n)| = q**n."""
        if n < 1:
            raise ValueError(f"layer index must be >= 1, got {n}")
        return self.q**n


@dataclass(frozen=True)
class Word:
    """A nonempty word, stored as a tuple of symbol indices."""

    alphabet: Alphabet
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        # The free semigroup has no identity: length 0 is rejected everywhere.
        if len(self.indices) == 0:
            raise ValueError("the empty word is not an element of the free semigroup")
        q = self.alphabet.q
        if any(not 0 <= i < q for i in self.indices):
            raise ValueError(f"symbol index out of range for q={q}: {self.indices}")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def text(self) -> str:
        return "".join(self.alphabet.symbols[i] for i in self.indices)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Word({self.text!r})"


def concat(x: Word, y: Word) -> Word:
    """x followed by y; |x.y| = |x| + |y|."""
    if x.alphabet != y.alphabet:
        raise ValueError(
            f"alphabet mismatch: {x.alphabet.symbols!r} vs {y.alphabet.symbols!r}"
        )
    return Word(x.alphabet, x.indices + y.indices)


def unrank(alphabet: Alphabet, n: int, r: int) -> Word:
    """Inverse of rank on F(n): the word of length n with rank r."""
    if n < 1:
        raise ValueError(f"word length must be >= 1, got {n}")
    q = alphabet.q
    if not 0 <= r < q**n:
        raise ValueError(f"rank {r} out of range [0, {q**n}) for n={n}")
    digits = [0] * n
    for pos in range(n - 1, -1, -1):
        digits[pos] = r % q
        r //= q
    return Word(alphabet, tuple(digits))


def _relabel_tables(
    q: int, horizon: int, perm: list[int], reverse: bool
) -> list[list[int]]:
    """tables[n][r] is the rank of the image of the length-n word of rank r
    when each symbol c becomes perm[c] and, if reverse, the word is then
    read backwards; tables[0] is [0].

    Layer n follows from layer n - 1: the word w.c maps to image(w).perm[c],
    or reversed to perm[c].image(w).
    """
    tables = [[0]]
    for n in range(1, horizon + 1):
        prev = tables[-1]
        if reverse:
            high = q ** (n - 1)
            shifts = [p * high for p in perm]
            tables.append([v + s for v in prev for s in shifts])
        else:
            tables.append([v * q + p for v in prev for p in perm])
    return tables


# ---------------------------------------------------------------------------
# Word-list file format: '#' comments, a header 'alphabet: ab', an optional
# 'horizon: N' header, then one word per line.


def _scan_word_list(source: str | TextIO) -> tuple[Alphabet, int | None, str]:
    """The one parser of the word-list format.

    Returns (alphabet, declared horizon or None, the words in file order,
    one per line, blank lines aside); a bad line raises FormatError naming
    it.  After the alphabet header, one translate marks every character but
    '\\n' and the symbols (':' aside), and only lines with a mark are read
    one by one: other lines are words as they stand.  Any line boundary of
    str.splitlines other than '\\n' is marked, so line numbers agree.
    """
    text = source if isinstance(source, str) else source.read()
    alphabet: Alphabet | None = None
    horizon: int | None = None
    lineno = 0
    words: list[str] = []

    def read_from(start: int) -> int:
        """Keep the words from start to the next '\\n'; return the index past it."""
        nonlocal alphabet, horizon, lineno
        end = text.find("\n", start) % (len(text) + 1)  # -1 is len(text)
        for raw in text[start : end + 1].splitlines():
            lineno += 1
            line = raw.split("#", 1)[0].strip()
            if line.startswith(("alphabet:", "horizon:")):
                key, value = line.split(":", 1)
                if (alphabet if key == "alphabet" else horizon) is not None:
                    raise FormatError(f"line {lineno}: duplicate {key} header")
                try:
                    value = value.strip()
                    if key == "alphabet":
                        alphabet = Alphabet(value)
                    elif value.isascii() and value.isdecimal() and int(value):
                        horizon = int(value)
                    else:
                        # A horizon is at least 1, and int() would also
                        # take a sign, '_' and any Unicode digit.
                        raise ValueError(value)
                except ValueError as exc:
                    why = exc if key == "alphabet" else "bad horizon"
                    raise FormatError(f"line {lineno}: {why}") from exc
            elif line:
                if alphabet is None:
                    raise FormatError(f"line {lineno}: word before 'alphabet:' header")
                try:
                    alphabet.word(line)
                except ValueError as exc:
                    raise FormatError(f"line {lineno}: {exc}") from exc
                words.append(line + "\n")
        return end + 1

    cursor = 0
    while alphabet is None:
        if cursor > len(text):
            raise FormatError("missing 'alphabet:' header")
        cursor = read_from(cursor)
    plain = alphabet.symbols.replace(":", "") + "\n"
    # Every other character is missing from the table and becomes '!'.
    marked = text.translate(defaultdict(repeat("!").__next__, zip(map(ord, plain), plain)))
    while (mark := marked.find("!", cursor)) >= 0:
        start = max(marked.rfind("\n", cursor, mark) + 1, cursor)
        lineno += marked.count("\n", cursor, start)
        words.append(text[cursor:start])
        cursor = read_from(start)
    words.append(text[cursor:])
    return alphabet, horizon, "".join(words)


def read_word_list(source: str | TextIO) -> tuple[Alphabet, int | None, list[Word]]:
    """Parse a word list; returns (alphabet, declared horizon or None, words)."""
    alphabet, horizon, words = _scan_word_list(source)
    return alphabet, horizon, [alphabet.word(w) for w in words.split("\n") if w]
