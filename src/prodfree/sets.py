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
from itertools import chain, compress, count, filterfalse, islice, product, repeat
from operator import add, mul
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


def _layer_offsets(q: int, horizon: int) -> list[int]:
    """offset[n] is the index of the first length-n word in the ball's
    (length, rank) order, for n = 1..horizon + 1; offset[horizon + 1] is
    the size of the ball."""
    offset = [0] * (horizon + 2)
    for n in range(1, horizon + 1):
        offset[n + 1] = offset[n] + q**n
    return offset


# bin() digits to 0/1 flag bytes.
_FLAG_BYTES = bytes.maketrans(b"01", b"\0\1")


def _flags(bits: int) -> bytes:
    """Byte r is 1 when bit r of bits is set, else 0, up to the highest set
    bit; one reversed bin() string translated, linear in the width."""
    return bin(bits)[:1:-1].encode().translate(_FLAG_BYTES)


# 0/1 flag bytes to bin() digits.
_FLAG_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bits(flags: bytes | bytearray) -> int:
    """The int whose bit r is byte r of flags, the inverse of _flags."""
    return int(flags[::-1].translate(_FLAG_DIGITS), 2)


def _marks(layers: list[int] | tuple[int, ...], q: int) -> tuple[bytes, list[int]]:
    """The layers as 0/1 byte marks, one per word of the ball, and their
    _layer_offsets: the length-n word of rank r is marked at offset[n] + r."""
    marks = b"".join(_flags(layers[n]).ljust(q**n, b"\0") for n in range(1, len(layers)))
    return marks, _layer_offsets(q, len(layers) - 1)


def _first_split(
    marks: bytes | bytearray, offset: list[int], q: int, n: int, r: int, splits: Iterable[int]
) -> int:
    """First m in splits that cuts the length-n word of rank r into x.y with
    |x| = m and both factors marked (see _marks), or 0 when none does."""
    for m in splits:
        tail = q ** (n - m)
        if marks[offset[m] + r // tail] and marks[offset[n - m] + r % tail]:
            return m
    return 0


def _live_splits(nonempty: tuple[int, int, int], n: int) -> list[int]:
    """The m in 1..n-1 with layers m and n - m both nonempty, ascending: the
    only splits of a length-n word into two members.  nonempty is (mask,
    reversal, H) for layers[0..H], bit m of mask and bit H - m of reversal
    set when layer m is nonempty: mask & (reversal >> H - n) has them, as
    layer 0 is empty."""
    mask, reversal, horizon = nonempty
    return list(_iter_bits(mask & (reversal >> (horizon - n))))


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
        if self.accepting and (min(self.accepting) < 0 or max(self.accepting) >= self.num_states):
            raise ValueError("accepting state out of range")
        if len(self.delta) != self.num_states:
            raise ValueError("delta must have one row per state")
        # Every row in one pass at C speed.
        if set(map(len, self.delta)) != {self.alphabet.q}:
            raise ValueError("delta rows must cover every symbol")
        flat = chain.from_iterable
        if min(flat(self.delta)) < 0 or max(flat(self.delta)) >= self.num_states:
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


# The most states _explore steps at once: their successors, repeats included,
# are held until the batch is numbered.
_EXPLORE_BATCH = 64


def _explore(
    alphabet: Alphabet,
    start: Hashable,
    step: Callable[[Any], Iterable[Hashable]],
    accept: Callable[[Any], bool],
    cap: int | None = None,
) -> Dfa:
    """The automaton on the states reachable from start under step, which
    gives a state's q successors in symbol order.

    States are numbered in breadth-first order, symbols ascending, so start
    is state 0; a state accepts when accept(state) holds.  Up to
    _EXPLORE_BATCH states are stepped at once and their successors numbered
    at C speed: those not numbered before, in order, less repeats, take the
    next numbers, as one state at a time would give them.  Only dfa_concat
    passes a cap, and a state past it raises StateBudgetError."""
    number = {start: 0}
    order = [start]
    targets: list[int] = []  # q per state, in state order
    done = 0
    while done < len(order):
        batch = order[done : done + _EXPLORE_BATCH]
        done += len(batch)
        found = list(chain.from_iterable(map(step, batch)))
        fresh = list(filterfalse(number.__contains__, dict.fromkeys(found)))
        if cap is not None and len(order) + len(fresh) > cap:
            raise StateBudgetError(f"concatenation exceeded the state cap {cap}")
        number.update(zip(fresh, count(len(order))))
        order += fresh
        targets += map(number.__getitem__, found)
    # q references to one iterator: the targets in rows of q.
    rows = tuple(zip(*[iter(targets)] * alphabet.q))
    accepting = frozenset(compress(count(), map(accept, order)))
    return Dfa(alphabet, len(order), 0, accepting, rows)


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
    # The reachable quotient automaton on block numbers: Moore classes are a
    # congruence, so a block's row is that of any of its states, here the
    # last.
    rows = dict(zip(block, zip(*[map(block.__getitem__, col) for col in zip(*d.delta)])))
    return _explore(
        d.alphabet,
        block[d.start],
        rows.__getitem__,
        set(map(block.__getitem__, d.accepting)).__contains__,
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
    columns = list(zip(*d2.delta))

    def step(state: tuple[int, frozenset[int]]) -> list[tuple[int, frozenset[int]]]:
        s1, part = state
        parts = [frozenset(map(col.__getitem__, part)) for col in columns]
        return [(t1, p | bridge if t1 in d1.accepting else p)
                for t1, p in zip(d1.delta[s1], parts)]

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


# write_explicit writes a layer that holds at least 1/_DENSE of its words by
# selecting from its words with the layer's flags, and a sparser one member
# by member: a layer of ab at H = 12 or 16, abc at 7 or abcd at 6 is written
# faster the first way at 1/16 of its words and the second way at 1/32.
_DENSE = 16


def write_explicit(s: LayeredSet) -> str:
    """Word-list text of s: the headers, then the members in (length, rank)
    order, each formatted from its rank without a Word object."""
    symbols = s.alphabet.symbols
    q = s.alphabet.q
    # A word is two table lookups, the high and the low k digits of its
    # rank, with k = ceil(H/2); as q**H is within the enumeration budget,
    # the table holds at most a few thousand strings.
    k = (s.horizon + 1) // 2
    block = q**k
    table = ["".join(p) for p in product(symbols, repeat=k)]
    lines = [f"alphabet: {symbols}", f"horizon: {s.horizon}"]
    for n in range(1, s.horizon + 1):
        bits = s.layers[n]
        high, low = 2 * k - n, max(k - n, 0)
        if _DENSE * bits.bit_count() < q**n:
            lines.extend(table[r // block][high:] + table[r % block][low:]
                         for r in _iter_bits(bits))
            continue
        # One high-half block of ranks at a time: its prefix joined to the
        # low-half words its flags select.
        flags = _flags(bits)
        words = table if low == 0 else [w[low:] for w in table[: q**n]]
        for h in range(0, len(flags), block):
            lines.extend(map(table[h // block][high:].__add__,
                             compress(words, flags[h : h + block])))
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


# The most lines read_dfa hands _trans_run at once, which holds all their
# tokens: a longer run is read in parts.
_TRANS_RUN = 4096


def _trans_run(lines: list[str], symbol_index: dict[str, int], trans: dict[int, int]) -> bool:
    """Add lines that start 'trans:' to trans (s * q + c -> target) at once
    if each is 'trans: STATE SYMBOL TARGET' with ASCII digits, a known symbol
    and a new transition, else return False.  A line's first token is never
    a number or a symbol, so the checks on the tokens below hold only if
    every line has four, the first 'trans:'."""
    toks = " ".join(lines).split()
    states, symbols, targets = toks[1::4], toks[2::4], toks[3::4]
    digits = "".join(states + targets)
    if (len(toks) != 4 * len(lines) or toks[::4].count("trans:") != len(lines)
            or not (digits.isascii() and digits.isdecimal())
            or not symbol_index.keys() >= set(symbols)):
        return False
    try:
        keys = map(add, map(mul, map(int, states), repeat(len(symbol_index))),
                   map(symbol_index.__getitem__, symbols))
        run = dict(zip(keys, map(int, targets)))
    except ValueError:  # a number past int()'s digit limit
        return False
    if len(run) < len(lines) or not trans.keys().isdisjoint(run):
        return False
    trans.update(run)
    return True


def read_dfa(source: str | TextIO) -> Dfa:
    """Parse the line-oriented DFA format; completeness is enforced.

    A run of lines that start 'trans:' is read in steps of up to _TRANS_RUN
    lines (_trans_run) when it can be; every other line is checked on its
    own, in file order, so the first fault is named at its line."""
    text = source if isinstance(source, str) else source.read()
    headers: dict[str, Any] = {}
    trans: dict[int, int] = {}  # s * q + c -> target
    symbol_index: dict[str, int] = {}

    def fail(lineno: int, msg: str) -> FormatError:
        return FormatError(f"line {lineno}: {msg}")

    def number(tok: str) -> bool:
        # ASCII only: str.isdecimal and int() accept every Unicode digit.
        return tok.isascii() and tok.isdecimal()

    lines = text.splitlines()
    # 1 per line that starts 'trans:', and a 0 past the end to close a run.
    is_trans = bytes(map(str.startswith, lines, repeat("trans:"))) + b"\0"
    tried = 0  # the last line offered to _trans_run
    numbered = enumerate(lines, start=1)
    for lineno, raw in numbered:
        if lineno > tried and is_trans[lineno - 1] and symbol_index:
            tried = min(is_trans.find(0, lineno), lineno - 1 + _TRANS_RUN)
            if _trans_run(lines[lineno - 1 : tried], symbol_index, trans):
                next(islice(numbered, tried - lineno, tried - lineno), None)  # skip the run
                continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
        if key == "trans":
            toks = rest.split()
            if len(toks) != 3:
                raise fail(lineno, f"expected 'trans: STATE SYMBOL TARGET', got {raw!r}")
            if not symbol_index:
                raise fail(lineno, "trans before alphabet header")
            if not (number(toks[0]) and number(toks[2])):
                raise fail(lineno, f"bad transition {rest!r}")
            try:
                c = headers["alphabet"].index(toks[1])
            except ValueError as exc:
                raise fail(lineno, str(exc)) from exc
            s = int(toks[0])
            if s * len(symbol_index) + c in trans:
                raise fail(lineno, f"duplicate transition for state {s} symbol {toks[1]}")
            trans[s * len(symbol_index) + c] = int(toks[2])
        elif key in headers:
            raise fail(lineno, f"duplicate {key} header")
        elif key == "alphabet":
            try:
                headers[key] = Alphabet(rest)
            except ValueError as exc:
                raise fail(lineno, str(exc)) from exc
            symbol_index = {symbol: c for c, symbol in enumerate(rest)}
        elif key in ("states", "start", "accept"):
            values = rest.split() if key == "accept" else [rest]
            if not all(map(number, values)):
                what = {"states": "state count", "start": "start state"}.get(key, "accept list")
                raise fail(lineno, f"bad {what} {rest!r}")
            headers[key] = frozenset(map(int, values)) if key == "accept" else int(rest)
        else:
            raise fail(lineno, f"unknown directive {key!r}")

    if len(headers) < 4:
        raise FormatError("missing header line (alphabet/states/start/accept)")
    alphabet, q = headers["alphabet"], len(symbol_index)
    size = headers["states"] * q
    # The targets in (state, symbol) order, up to the first one missing:
    # with fewer than size transitions, one of the first len(trans) + 1 is.
    targets = list(map(trans.get, range(min(size, len(trans) + 1))))
    if None in targets:
        s, c = divmod(targets.index(None), q)
        raise FormatError(
            f"incomplete DFA: no transition for state {s} symbol {alphabet.symbols[c]!r}"
        )
    if len(trans) != size:
        raise FormatError("transitions reference states outside 0..states-1")
    try:
        # q references to one iterator: the targets in rows of q.
        return Dfa(alphabet, headers["states"], headers["start"], headers["accept"],
                   tuple(zip(*[iter(targets)] * q)))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
