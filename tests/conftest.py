import random
from typing import Iterable

import pytest

from prodfree.words import Alphabet, Word


@pytest.fixture(scope="session")
def ab() -> Alphabet:
    return Alphabet("ab")


@pytest.fixture(scope="session")
def abc() -> Alphabet:
    return Alphabet("abc")


@pytest.fixture(scope="session")
def unary() -> Alphabet:
    return Alphabet("a")


def seeded_rng(seed: int) -> random.Random:
    return random.Random(seed)


def write_word_list(words: Iterable[Word], alphabet: Alphabet, horizon: int) -> str:
    """Word-list text through Word objects: the oracle for
    sets.write_explicit, which formats ranks directly."""
    lines = [f"alphabet: {alphabet.symbols}", f"horizon: {horizon}"]
    lines.extend(w.text for w in words)
    return "\n".join(lines) + "\n"
