"""Word-set carriers and their exact algebra.

Two representations: LayeredSet holds an explicit subset of the ball
F_<=(N) as one membership bitset per layer (a Python int, bit r = word of
rank r), and Dfa holds a regular set of nonempty words as a complete
deterministic automaton.  Every DFA-producing operation returns a minimized,
canonically numbered machine, so two constructions of the same language
compare equal.

Acceptance of the empty run is ignored throughout: the set represented by a
DFA is { w : |w| >= 1 and run(start, w) is accepting }.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product, repeat
from typing import Any, Callable, Hashable, Iterable, Iterator, TextIO

from .words import (
    Alphabet,
    ENUMERATION_BUDGET,
    FormatError,
    Word,
    _scan_word_list,
)

DEFAULT_STATE_CAP = 100_000
DEFAULT_EXPLICIT_HORIZON = 16
# Longest horizon a transfer-matrix sweep runs to: the counts grow by up to
# log2(q) bits a layer, so a sweep's time and a profile's memory grow with
# the square of the horizon.
REGULAR_HORIZON_CAP = 1 << 13


class StateBudgetError(RuntimeError):
    """An automaton construction exceeded the configured state cap."""


# ---------------------------------------------------------------------------
# Explicit truncated sets


@dataclass(frozen=True)
class LayeredSet:
    """Explicit subset of F_<=(horizon); layers[n] is the bitset of layer n."""

    alphabet: Alphabet
    horizon: int
    layers: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        _check_horizon(self.alphabet, self.horizon, "explicit")
        if len(self.layers) != self.horizon + 1 or self.layers[0] != 0:
            raise ValueError("layers must be indexed 1..horizon with layers[0] == 0")
        for n in range(1, self.horizon + 1):
            if self.layers[n] >> self.alphabet.layer_size(n):
                raise ValueError(f"layer {n} bitset wider than q**{n}")

    def layer_count(self, n: int) -> int:
        if not 1 <= n <= self.horizon:
            raise ValueError(f"layer {n} outside horizon {self.horizon}")
        return self.layers[n].bit_count()

    def total_count(self) -> int:
        return sum(self.layer_count(n) for n in range(1, self.horizon + 1))



def _check_horizon(alphabet: Alphabet, horizon: int, what: str) -> None:
    """Refuse a ball whose largest layer or whose number of layers passes
    the enumeration budget; the second catches one-symbol alphabets."""
    if horizon > ENUMERATION_BUDGET or alphabet.q**horizon > ENUMERATION_BUDGET:
        raise ValueError(f"{what} horizon {horizon} over the enumeration budget")


def _iter_bits(bits: int) -> Iterator[int]:
    """Set bits in ascending order in time linear in the width: one
    reversed bin() string scanned with str.find."""
    text = bin(bits)[:1:-1]
    i = text.find("1")
    while i >= 0:
        yield i
        i = text.find("1", i + 1)


def _spread(left: int, block: int, width: int) -> int:
    """Ranks of x.y for x in left and y in block, where y ranges over a
    layer of width words: rank(x.y) = rank(x)*width + rank(y), so each x
    contributes block shifted to its own contiguous range.

    Linear in the width of the result.  If left has at most width bits,
    one translate of bin(left) writes block's digits or zeros into every
    range; otherwise a strided copy puts left's bits width apart, and a
    product by the narrower block, which cannot carry, fills the ranges.
    """
    digits = bin(left)[2:]
    if len(digits) <= width:
        return int(digits.translate({48: "0" * width, 49: f"{block:0{width}b}"}), 2)
    rows = bytearray(b"0") * (len(digits) * width)
    rows[width - 1 :: width] = digits.encode()
    return int(rows, 2) * block


def _first_split(
    layers: list[int] | tuple[int, ...], q: int, n: int, r: int, splits: Iterable[int]
) -> int:
    """First m in splits that cuts the length-n word of rank r into x.y with
    |x| = m and both factors in layers, or 0 when none does."""
    for m in splits:
        tail = q ** (n - m)
        if (layers[m] >> (r // tail)) & 1 and (layers[n - m] >> (r % tail)) & 1:
            return m
    return 0


def _live_splits(layers: list[int] | tuple[int, ...], n: int) -> list[int]:
    """The m in 1..n-1 with layers m and n - m both nonempty: the only
    splits at which a length-n word can have both factors in layers."""
    return [m for m in range(1, n) if layers[m] and layers[n - m]]


def _from_lines(alphabet: Alphabet, horizon: int | None, lines: str) -> LayeredSet:
    """The explicit set of the words in lines, one per line, blank lines
    aside; the horizon defaults to the longest word's length (1 for none).

    No per-word Python step: symbols become base-q digits in one translate,
    and '1' and a length-n word's digits read as q**n + rank, one index per
    (length, rank) for q >= 2 (a blank line is 1), marking a byte of one
    buffer; a layer's bytes, reversed, are its bitset in binary.  Over one
    symbol a word is its length.
    """
    q = alphabet.q
    digits = lines.translate(str.maketrans(alphabet.symbols, "0123456789abcdef"[:q]))
    tagged = ("1" + digits.replace("\n", "\n1")).split("\n")
    longest = max(map(len, tagged)) - 1
    horizon = max(longest, 1) if horizon is None else horizon
    _check_horizon(alphabet, horizon, "explicit")
    if longest > horizon:
        text = next(w for w in lines.split("\n") if len(w) > horizon)
        raise ValueError(f"word {text!r} longer than horizon {horizon}")
    layers = [0] * (horizon + 1)
    if q == 1:
        for n in set(map(len, tagged)) - {1}:
            layers[n - 1] = 1
    else:
        marks = bytearray(b"0") * (2 * q**longest)
        # __setitem__ returns None, so any() runs the map to its end.
        any(map(marks.__setitem__, map(int, tagged, repeat(q)), repeat(ord("1"))))
        for n in range(1, longest + 1):
            lo = q**n
            layers[n] = int(marks[2 * lo - 1 : lo - 1 : -1], 2)
    return LayeredSet(alphabet, horizon, tuple(layers))


def explicit_from_words(words: Iterable[Word], horizon: int) -> LayeredSet:
    """Build the explicit set with exactly the given members."""
    words = list(words)
    if not words:
        raise ValueError("cannot infer the alphabet from an empty word list")
    alphabet = words[0].alphabet
    if any(w.alphabet != alphabet for w in words):
        raise ValueError("alphabet mismatch in word list")
    return _from_lines(alphabet, horizon, "\n".join(w.text for w in words))


def validate_ell_sequence(ells: tuple[int, ...], n: int) -> None:
    if any(l < 1 for l in ells):
        raise ValueError(f"lengths must be positive: {ells}")
    if list(ells) != sorted(set(ells)):
        raise ValueError(f"lengths must be strictly increasing: {ells}")
    if ells and ells[-1] >= n:
        raise ValueError(f"lengths must be below n={n}: {ells}")


def explicit_layer_counts(s: LayeredSet, horizon: int, ells: Iterable[int] = ()) -> list[int]:
    """[|S(n; the li below n)| for n = 1..horizon] in one sweep: dead, the
    words with a prefix in some S(li), grows by one symbol a layer and takes
    in S(li) once layer li is counted.  With no lengths, the layer counts.

    Growing by a symbol maps each byte of dead to the q bytes of its _spread
    through q translate tables, some 5x faster than _spread of dead itself."""
    ells = tuple(ells)
    validate_ell_sequence(ells, horizon)
    if horizon > s.horizon:
        raise ValueError(f"horizon {horizon} exceeds explicit horizon {s.horizon}")
    q = s.alphabet.q
    # Without lengths dead stays empty, and the tables go unused.
    spread = _spread(int.from_bytes(bytes(range(256)), "big"), (1 << q) - 1, q) if ells else 0
    tables = [spread.to_bytes(256 * q, "big")[j::q] for j in range(q)]
    dead = 0
    out = []
    for n in range(1, horizon + 1):
        if dead:
            src = dead.to_bytes((dead.bit_length() + 7) // 8, "big")
            grown = bytearray(len(src) * q)
            for j, table in enumerate(tables):
                grown[j::q] = src.translate(table)
            dead = int.from_bytes(grown, "big")
        out.append(s.layers[n].bit_count() - (s.layers[n] & dead).bit_count())
        if n in ells:
            dead |= s.layers[n]
    return out


# ---------------------------------------------------------------------------
# Complete DFAs over nonempty words


@dataclass(frozen=True)
class Dfa:
    """Complete DFA; represents { w : |w| >= 1, run ends accepting }."""

    alphabet: Alphabet
    num_states: int
    start: int
    accepting: frozenset[int]
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_states < 1:
            raise ValueError("a DFA needs at least one state")
        if not 0 <= self.start < self.num_states:
            raise ValueError(f"start state {self.start} out of range")
        if any(not 0 <= s < self.num_states for s in self.accepting):
            raise ValueError("accepting state out of range")
        if len(self.delta) != self.num_states:
            raise ValueError("delta must have one row per state")
        q = self.alphabet.q
        for row in self.delta:
            if len(row) != q:
                raise ValueError("delta rows must cover every symbol")
            if any(not 0 <= t < self.num_states for t in row):
                raise ValueError("transition target out of range")

    def run(self, w: Word) -> int:
        if w.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        s = self.start
        for c in w.indices:
            s = self.delta[s][c]
        return s

    def accepts(self, w: Word) -> bool:
        return self.run(w) in self.accepting


def _start_normalized(d: Dfa) -> Dfa:
    """Equivalent DFA whose start state is not accepting.

    The represented set never contains the empty word, so cloning the start
    leaves the language unchanged while making run-acceptance from the start
    honest for zero-step runs.
    """
    if d.start not in d.accepting:
        return d
    clone = d.num_states
    delta = d.delta + (d.delta[d.start],)
    return Dfa(d.alphabet, d.num_states + 1, clone, d.accepting, delta)


def _explore(
    alphabet: Alphabet,
    start: Hashable,
    step: Callable[[Any, int], Hashable],
    accept: Callable[[Any], bool],
    cap: int | None = None,
) -> Dfa:
    """The automaton on the states reachable from start under step.

    States are numbered in breadth-first order, symbols ascending, so start
    is state 0; a state accepts when accept(state) holds.  Only the subset
    construction of dfa_concat passes a cap: a state past the first cap
    raises StateBudgetError.
    """
    q = alphabet.q
    order = [start]
    index = {start: 0}
    rows: list[tuple[int, ...]] = []
    for s in order:
        row = []
        for c in range(q):
            t = step(s, c)
            i = index.get(t)
            if i is None:
                if cap is not None and len(order) >= cap:
                    raise StateBudgetError(f"concatenation exceeded the state cap {cap}")
                i = index[t] = len(order)
                order.append(t)
            row.append(i)
        rows.append(tuple(row))
    accepting = frozenset(i for i, s in enumerate(order) if accept(s))
    return Dfa(alphabet, len(order), 0, accepting, tuple(rows))


def _moore_blocks(d: Dfa) -> list[int]:
    """Moore's partition refinement: the equivalence class of each state.

    The accepting states are split from the others first.  Each round keys
    every state by its block and its successors' blocks, built a symbol
    column at a time, and numbers the keys in order of first appearance by
    state index; it stops when the block count stops growing.
    """
    columns = list(zip(*d.delta))
    block = [1 if s in d.accepting else 0 for s in range(d.num_states)]
    count = len(set(block))
    while True:
        ids: dict[tuple[int, ...], int] = {}
        keys = zip(block, *[map(block.__getitem__, col) for col in columns])
        block = [ids.setdefault(key, len(ids)) for key in keys]
        if len(ids) == count:
            return block
        count = len(ids)


def _minimized(d: Dfa) -> Dfa:
    """Canonical minimal DFA: minimized, trimmed, BFS-renumbered.

    Equal languages of nonempty words yield structurally equal values.
    """
    d = _start_normalized(d)
    block = _moore_blocks(d)
    # The quotient automaton, explored from one representative per block:
    # Moore classes are a congruence, so any representative will do, and
    # the exploration from the start's block reaches only reachable blocks.
    rep: dict[int, int] = {}
    for s in range(d.num_states):
        rep.setdefault(block[s], s)
    return _explore(
        d.alphabet,
        rep[block[d.start]],
        lambda s, c: rep[block[d.delta[s][c]]],
        d.accepting.__contains__,
    )


def dfa_complement(d: Dfa) -> Dfa:
    """Complement relative to the set of all nonempty words."""
    flipped = frozenset(range(d.num_states)) - d.accepting
    return _minimized(Dfa(d.alphabet, d.num_states, d.start, flipped, d.delta))


def dfa_concat(d1: Dfa, d2: Dfa) -> Dfa:
    """Exact concatenation { w1.w2 : w1 in L(d1), w2 in L(d2) }.

    Epsilon-bridges accepting states of d1 into d2's start and determinises
    on the fly: a state is a d1 state and the set of d2 states reached;
    both factors are forced nonempty by the run semantics.  The subset
    construction may grow exponentially, so it raises StateBudgetError past
    DEFAULT_STATE_CAP states.
    """
    if d1.alphabet != d2.alphabet:
        raise ValueError("alphabet mismatch")
    d2 = _start_normalized(d2)
    bridge = frozenset({d2.start})

    def step(state: tuple[int, frozenset[int]], c: int) -> tuple[int, frozenset[int]]:
        s1, part = state
        t1 = d1.delta[s1][c]
        tpart = frozenset(d2.delta[s][c] for s in part)
        return t1, (tpart | bridge if t1 in d1.accepting else tpart)

    return _minimized(_explore(
        d1.alphabet,
        (d1.start, frozenset()),
        step,
        lambda state: not state[1].isdisjoint(d2.accepting),
        DEFAULT_STATE_CAP,
    ))


def dfa_layer_counts(d: Dfa, horizon: int, ells: Iterable[int] = ()) -> list[int]:
    """[|S(n; the li below n)| for n = 1..horizon], S = L(d), from one
    transfer-matrix sweep."""
    if horizon > REGULAR_HORIZON_CAP:
        raise ValueError(f"automaton horizon {horizon} over the enumeration budget")
    ells = tuple(ells)
    validate_ell_sequence(ells, horizon)
    return list(islice(_dfa_sweep(d, ells), max(horizon, 0)))


def _dfa_sweep(d: Dfa, ells: tuple[int, ...] = ()) -> Iterator[int]:
    """The transfer-matrix sweep behind dfa_layer_counts, uncapped, a layer
    per step.  Each depth is counted first; then, at a depth li, the accepting
    components are zeroed, which drops exactly the words whose length-li
    prefix lies in S.  With no lengths these are the layer counts |S ∩ F(n)|.
    """
    vec = [0] * d.num_states
    vec[d.start] = 1
    depth = 0
    while True:
        depth += 1
        nxt = [0] * d.num_states
        for cnt, row in zip(vec, d.delta):
            if cnt:
                for t in row:
                    nxt[t] += cnt
        vec = nxt
        yield sum(vec[s] for s in d.accepting)
        if depth in ells:
            for s in d.accepting:
                vec[s] = 0


def dfa_truncate(d: Dfa, horizon: int) -> LayeredSet:
    """Explicit membership of L(d) within the ball F_<=(horizon).

    The word w.c has rank rank(w)*q + c, so a layer's end states are the
    previous layer's rows in order, and its bitset is their accept flags,
    reversed, read in binary.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _check_horizon(d.alphabet, horizon, "truncation")
    flags = ["1" if s in d.accepting else "0" for s in range(d.num_states)]
    layers = [0]
    states = [d.start]
    for _ in range(horizon):
        states = [t for s in states for t in d.delta[s]]
        layers.append(int("".join(map(flags.__getitem__, reversed(states))), 2))
    return LayeredSet(d.alphabet, horizon, tuple(layers))


# ---------------------------------------------------------------------------
# Word-list text format at rank level (parsed by words._scan_word_list)


def read_explicit(source: str | TextIO) -> LayeredSet:
    """Parse a word list straight into a LayeredSet, without Word objects;
    the horizon defaults to the longest word's length (1 for no words)."""
    return _from_lines(*_scan_word_list(source))


def write_explicit(s: LayeredSet) -> str:
    """Word-list text of s: the headers, then the members in (length, rank)
    order, each formatted from its rank without a Word object."""
    symbols = s.alphabet.symbols
    # A word is two table lookups, the high and the low k digits of its
    # rank, with k = ceil(H/2); as q**H is within the enumeration budget,
    # the table holds at most a few thousand strings.
    k = (s.horizon + 1) // 2
    block = s.alphabet.q**k
    table = ["".join(p) for p in product(symbols, repeat=k)]
    lines = [f"alphabet: {symbols}", f"horizon: {s.horizon}"]
    for n in range(1, s.horizon + 1):
        high, low = 2 * k - n, max(k - n, 0)
        lines.extend(table[r // block][high:] + table[r % block][low:]
                     for r in _iter_bits(s.layers[n]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DFA text format


def write_dfa(d: Dfa) -> str:
    lines = [
        f"alphabet: {d.alphabet.symbols}",
        f"states: {d.num_states}",
        f"start: {d.start}",
        "accept: " + " ".join(str(s) for s in sorted(d.accepting)),
    ]
    for s in range(d.num_states):
        for c, symbol in enumerate(d.alphabet.symbols):
            lines.append(f"trans: {s} {symbol} {d.delta[s][c]}")
    return "\n".join(line.rstrip() for line in lines) + "\n"


def read_dfa(source: str | TextIO) -> Dfa:
    """Parse the line-oriented DFA format; completeness is enforced."""
    text = source if isinstance(source, str) else source.read()
    alphabet: Alphabet | None = None
    num_states: int | None = None
    start: int | None = None
    accepting: frozenset[int] | None = None
    trans: dict[tuple[int, int], int] = {}
    symbol_index: dict[str, int] = {}
    headers: set[str] = set()

    def fail(lineno: int, msg: str) -> FormatError:
        return FormatError(f"line {lineno}: {msg}")

    def number(tok: str) -> bool:
        # ASCII only: str.isdecimal and int() accept every Unicode digit.
        return tok.isascii() and tok.isdecimal()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "trans":
            toks = rest.split()
            # A well-formed line costs one dict lookup and one digit test of
            # both numbers at once; only a bad line goes through the checks
            # below, in order, to name its first fault.
            if len(toks) == 3 and toks[1] in symbol_index:
                digits = toks[0] + toks[2]
                if digits.isascii() and digits.isdecimal():
                    s, c = int(toks[0]), symbol_index[toks[1]]
                    if (s, c) in trans:
                        raise fail(lineno, f"duplicate transition for state {s} symbol {toks[1]}")
                    trans[(s, c)] = int(toks[2])
                    continue
            if len(toks) != 3:
                raise fail(lineno, f"expected 'trans: STATE SYMBOL TARGET', got {raw!r}")
            if alphabet is None:
                raise fail(lineno, "trans before alphabet header")
            if not (number(toks[0]) and number(toks[2])):
                raise fail(lineno, f"bad transition {rest!r}")
            try:
                alphabet.index(toks[1])  # the fault left: the symbol
            except ValueError as exc:
                raise fail(lineno, str(exc)) from exc
        if key in ("alphabet", "states", "start", "accept"):
            if key in headers:
                raise fail(lineno, f"duplicate {key} header")
            headers.add(key)
        if key == "alphabet":
            try:
                alphabet = Alphabet(rest)
            except ValueError as exc:
                raise fail(lineno, str(exc)) from exc
            symbol_index = {symbol: c for c, symbol in enumerate(alphabet.symbols)}
        elif key == "states":
            if not number(rest):
                raise fail(lineno, f"bad state count {rest!r}")
            num_states = int(rest)
        elif key == "start":
            if not number(rest):
                raise fail(lineno, f"bad start state {rest!r}")
            start = int(rest)
        elif key == "accept":
            if not all(number(tok) for tok in rest.split()):
                raise fail(lineno, f"bad accept list {rest!r}")
            accepting = frozenset(map(int, rest.split()))
        else:
            raise fail(lineno, f"unknown directive {key!r}")

    if alphabet is None or num_states is None or start is None or accepting is None:
        raise FormatError("missing header line (alphabet/states/start/accept)")
    delta_rows = []
    for s in range(num_states):
        row = []
        for c in range(alphabet.q):
            if (s, c) not in trans:
                raise FormatError(
                    f"incomplete DFA: no transition for state {s} "
                    f"symbol {alphabet.symbols[c]!r}"
                )
            row.append(trans[(s, c)])
        delta_rows.append(tuple(row))
    if len(trans) != num_states * alphabet.q:
        raise FormatError("transitions reference states outside 0..states-1")
    try:
        return Dfa(alphabet, num_states, start, accepting, tuple(delta_rows))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
