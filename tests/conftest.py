import json
import random
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable, Iterator, Sequence

import pytest
from hypothesis import settings, strategies as st

from prodfree.density import (
    DEFAULT_MIN_WINDOW, DensityProfile, _recurrence, layer_counts, profile, upper_asymptotic,
    upper_banach,
)
from prodfree.search import SearchResult, _Search, _as_layered, _layer_offsets, _universe
from prodfree.sets import (
    Dfa, LayeredSet, _check_horizon, _explore, _first_split, _iter_bits, _minimized, _spread,
)
from prodfree.words import (
    ENUMERATION_BUDGET, Alphabet, FormatError, Word, _relabel_tables, unrank,
)

# The property tests run with more examples in CI: pytest --hypothesis-profile ci
settings.register_profile("ci", max_examples=500)

# The one-word set {a} over ab: state 1 has read "a", state 2 is the sink.
A_ONLY = Dfa(Alphabet("ab"), 3, 0, frozenset({1}), ((1, 2), (2, 2), (2, 2)))


class Unsteppable:
    """Odd occurrence of "a" over ab, whose transitions raise when a sweep
    reads them: a stand-in that shows a refusal comes before any step."""

    alphabet, num_states, start, accepting = Alphabet("ab"), 2, 0, frozenset({1})

    @property
    def delta(self):
        raise AssertionError("stepped")

DFA_ALPHABETS = [Alphabet("a"), Alphabet("ab"), Alphabet("abc")]

# Largest ball the exhaustive search enumerates every subset of.
EXHAUSTIVE_ITEM_CAP = 22


def rank(w: Word) -> int:
    """Position of w in the lexicographic enumeration of its layer: the
    inverse of unrank."""
    r = 0
    q = w.alphabet.q
    for i in w.indices:
        r = r * q + i
    return r


def layer_words(alphabet: Alphabet, n: int) -> list[Word]:
    """All q**n words of length n in lexicographic order."""
    return [unrank(alphabet, n, r) for r in range(alphabet.layer_size(n))]


def explicit_full(alphabet: Alphabet, horizon: int) -> LayeredSet:
    """The whole ball F_<=(horizon)."""
    _check_horizon(alphabet, horizon, "explicit")
    layers = [0] + [(1 << alphabet.layer_size(n)) - 1 for n in range(1, horizon + 1)]
    return LayeredSet(alphabet, horizon, tuple(layers))


def explicit_empty(alphabet: Alphabet, horizon: int) -> LayeredSet:
    """The empty subset of F_<=(horizon)."""
    _check_horizon(alphabet, horizon, "explicit")
    return LayeredSet(alphabet, horizon, (0,) * (horizon + 1))


def minkowski_product(s1: LayeredSet, s2: LayeredSet, horizon: int) -> LayeredSet:
    """{ w1.w2 : w1 in s1, w2 in s2, |w1|+|w2| <= horizon }: the oracle of
    dfa_concat."""
    if s1.alphabet != s2.alphabet:
        raise ValueError("alphabet mismatch")
    _check_horizon(s1.alphabet, horizon, "product")
    q = s1.alphabet.q
    layers = [0] * (horizon + 1)
    for m in range(1, min(s1.horizon, horizon - 1) + 1):
        if not s1.layers[m]:
            continue
        for k in range(1, min(s2.horizon, horizon - m) + 1):
            if s2.layers[k]:
                layers[m + k] |= _spread(s1.layers[m], s2.layers[k], q**k)
    return LayeredSet(s1.alphabet, horizon, tuple(layers))


def dfa_empty(alphabet: Alphabet) -> Dfa:
    return Dfa(alphabet, 1, 0, frozenset(), ((0,) * alphabet.q,))


def dfa_full(alphabet: Alphabet) -> Dfa:
    """All nonempty words (acceptance of the empty run is ignored anyway)."""
    q = alphabet.q
    return Dfa(alphabet, 2, 0, frozenset({1}), ((1,) * q, (1,) * q))


def _product(d1: Dfa, d2: Dfa, accept: Callable[[bool, bool], bool]) -> Dfa:
    """The minimal DFA of the product automaton of d1 and d2 under accept."""
    if d1.alphabet != d2.alphabet:
        raise ValueError("alphabet mismatch")
    return _minimized(_explore(
        d1.alphabet,
        (d1.start, d2.start),
        lambda p, c: (d1.delta[p[0]][c], d2.delta[p[1]][c]),
        lambda p: accept(p[0] in d1.accepting, p[1] in d2.accepting),
    ))


def dfa_union(d1: Dfa, d2: Dfa) -> Dfa:
    return _product(d1, d2, lambda a, b: a or b)


def dfa_intersect(d1: Dfa, d2: Dfa) -> Dfa:
    return _product(d1, d2, lambda a, b: a and b)


def dfa_difference(d1: Dfa, d2: Dfa) -> Dfa:
    return _product(d1, d2, lambda a, b: a and not b)


def dfa_is_empty(d: Dfa) -> tuple[bool, Word | None]:
    """Emptiness plus a shortest witness (lex-least among the shortest)."""
    q = d.alphabet.q
    # Per level, the lex-least word reaching each state.
    current: dict[int, tuple[int, ...]] = {}
    for c in range(q):
        t = d.delta[d.start][c]
        if t not in current:
            current[t] = (c,)
    for _ in range(d.num_states):
        hits = [w for s, w in current.items() if s in d.accepting]
        if hits:
            return False, Word(d.alphabet, min(hits))
        nxt: dict[int, tuple[int, ...]] = {}
        for s, w in current.items():
            for c in range(q):
                t = d.delta[s][c]
                cand = w + (c,)
                if t not in nxt or cand < nxt[t]:
                    nxt[t] = cand
        current = nxt
    return True, None


def set_words(s: LayeredSet) -> Iterator[Word]:
    """The members of s in (length, rank) order."""
    for n in range(1, s.horizon + 1):
        for r in _iter_bits(s.layers[n]):
            yield unrank(s.alphabet, n, r)


def set_contains(s: LayeredSet, w: Word) -> bool:
    """Whether w is a member of s."""
    if w.alphabet != s.alphabet:
        raise ValueError("alphabet mismatch")
    return 1 <= len(w) <= s.horizon and (s.layers[len(w)] >> rank(w)) & 1 == 1


def ball_density(s: LayeredSet | Dfa, n: int) -> Fraction:
    """|S ∩ F_<=(n)| / |F_<=(n)| with exact big-integer counts."""
    p = profile(s, n)
    return Fraction(sum(p.counts), sum(p.totals))


def density_json_oracle(p: DensityProfile, min_window: int | None = None) -> str:
    """What density --format json prints, as json.dumps(indent=2) of the
    whole report: the oracle of the CLI's row template."""
    if min_window is None:
        min_window = min(DEFAULT_MIN_WINDOW, p.horizon)

    def fields(limit):
        return {
            "value": f"{limit.value.numerator}/{limit.value.denominator}",
            "exact": limit.exact,
            "finite_max": f"{limit.finite_max.numerator}/{limit.finite_max.denominator}",
            "window": [limit.window.start, limit.window.end],
        }

    report = {
        "horizon": p.horizon,
        "extendable": p.extendable,
        "asymptotic": fields(upper_asymptotic(p)),
        "banach": dict(fields(upper_banach(p, min_window)), min_window=min_window),
        "profile": [
            {"n": n, "count": count, "total": p.q**n,
             "density": f"{d.numerator}/{d.denominator}"}
            for n, (count, d) in enumerate(zip(p.counts, p.densities), start=1)
        ],
    }
    return json.dumps(report, indent=2) + "\n"


def limit_from_counts(q: int, counts: Sequence[int], k: int) -> Fraction | None:
    """The limit that the counts of a k-state automaton fix, from a
    Berlekamp-Massey run over all of them and arithmetic of its own: the
    oracle of the limit that density.profile takes from its one run.

    With sum c(j+1) t**j = N/C for the recurrence C of order L, the limit
    is 0 where C(1/q) != 0, -N(1/q)/C'(1/q) at a simple root, and None at a
    double root; C, C' and N are evaluated at 1/q times q**L.
    """
    found = _recurrence(list(counts), k, len(counts) - k) if k else None
    if found is None:
        return None
    order, c = found
    pw = [q ** (order - i) for i in range(order + 1)]
    if sum(x * y for x, y in zip(c, pw)):
        return Fraction(0)
    slope = sum(i * x * y for i, (x, y) in enumerate(zip(c, pw)))
    num = sum(sum(x * y for x, y in zip(c, counts[i::-1])) * pw[i] for i in range(order))
    return Fraction(-num, q * slope) if slope else None


def product_triples(alphabet: Alphabet, horizon: int) -> list[tuple[int, int, int]]:
    """All (x, y, z) universe indices with x.y = z inside the ball."""
    q = alphabet.q
    offset = _layer_offsets(q, horizon)
    out = []
    for m in range(1, horizon):
        for k in range(1, horizon - m + 1):
            width = q**k
            out += [
                (offset[m] + x, offset[k] + y, offset[m + k] + x * width + y)
                for x in range(q**m)
                for y in range(width)
            ]
    return out


def member_masks(nitems: int, triples: list[tuple[int, int, int]]) -> list[int]:
    """keep[idx] has bit t clear when word idx is a member of triple t, and
    every other bit below len(triples) set."""
    rows = [bytearray((len(triples) + 7) // 8) for _ in range(nitems)]
    for t, members in enumerate(triples):
        byte, bit = t >> 3, 1 << (t & 7)
        for member in members:
            rows[member][byte] |= bit
    # Replace rows in place: only one row is held more than once at a time.
    full = (1 << len(triples)) - 1
    for idx, row in enumerate(rows):
        rows[idx] = full ^ int.from_bytes(row, "little")
    return rows


def exhaustive_max_productfree(alphabet: Alphabet, horizon: int) -> SearchResult:
    """The optimum of the mean layer density by brute force over every
    subset of the ball: the oracle for search.max_productfree."""
    q = alphabet.q
    if sum(q**n for n in range(1, horizon + 1)) > EXHAUSTIVE_ITEM_CAP:
        raise ValueError(
            f"F_<=({horizon}) has over {EXHAUSTIVE_ITEM_CAP} words: "
            f"it would exceed the exhaustive cap"
        )
    items = _universe(alphabet, horizon)
    weights = [q ** (horizon - n) for n, _ in items]
    triple_masks = [
        (1 << x) | (1 << y) | (1 << z) for x, y, z in product_triples(alphabet, horizon)
    ]
    best_mask = 0
    best_weight = -1
    for mask in range(1 << len(items)):
        if any(tm & mask == tm for tm in triple_masks):
            continue
        w = sum(weights[i] for i in _iter_bits(mask))
        if w > best_weight:
            best_weight = w
            best_mask = mask
    best = _as_layered(alphabet, horizon, items, _iter_bits(best_mask))
    value = Fraction(best_weight, q**horizon * horizon)
    return SearchResult(horizon, value, best, nodes=1 << len(items), proved=True)


class MaskWalkSearch(_Search):
    """The search state with inclusion by a walk over the bitmask of live
    triples: the oracle for _Search._include, which finds the words to force
    from the words in, and of the leaf test, which watches one live triple.

    alive has bit t set while triple t has no OUT member; keep[idx] clears
    the bits of the triples through word idx.  An exclusion ANDs in its
    word's mask, and each record (idx, alive, capped, forced) on the trail
    keeps alive as it was before the branch, for undo to assign back.
    An inclusion walks the live triples through the new word from the top
    bit down, forces out the open member of each that now has two members
    in, and stops at a triple with all three in, returning False.  It takes
    words in any order, keeps cap and capped once per forced word, and
    neither it nor undo keeps the members per layer, which it never reads.
    """

    def __init__(self, alphabet: Alphabet, horizon: int):
        super().__init__(alphabet, horizon, node_budget=0)
        self.triples = product_triples(alphabet, horizon)
        self.keep = member_masks(self.nitems, self.triples)
        self.alive = (1 << len(self.triples)) - 1

    def _exclude(self, idx: int) -> None:
        n = self.length[idx]
        self.trail.append((idx, self.alive, self.capped, ()))
        self.status[idx] = 2
        self.cap[n] -= 1
        self.capped -= self.layer_weight[n]
        self.alive &= self.keep[idx]

    def _include(self, idx: int) -> bool:
        status, length, cap = self.status, self.length, self.cap
        alive, capped, weight = self.alive, self.capped, self.layer_weight
        forced: list[int] = []
        self.trail.append((idx, alive, capped, forced))
        status[idx] = 1
        self.included[length[idx]] += 1
        triples, keep = self.triples, self.keep
        ins = 0
        hits = alive ^ (alive & keep[idx])
        while hits:
            t = hits.bit_length() - 1
            hits ^= 1 << t
            x, y, z = triples[t]
            sx, sy, sz = status[x], status[y], status[z]
            if (sx | sy | sz) & 2:
                # Killed by an exclusion forced earlier in this loop.
                continue
            # No member is OUT, so the statuses count the members in.
            ins = sx + sy + sz
            if ins == 3:
                break
            if ins == 2:
                out = z if sx and sy else (y if sx else x)
                status[out] = 2
                cap[length[out]] -= 1
                capped -= weight[length[out]]
                alive &= keep[out]
                forced.append(out)
        self.alive, self.capped = alive, capped
        return ins != 3

    def _undo(self) -> None:
        status, length, cap = self.status, self.length, self.cap
        idx, self.alive, self.capped, forced = self.trail.pop()
        if status[idx] == 1:
            self.included[length[idx]] -= 1
        else:
            cap[length[idx]] += 1
        for out in forced:
            status[out] = 0
            cap[length[out]] += 1
        status[idx] = 0


def bound_weight_by_scan(
    included: list[int],
    undecided: list[int],
    layer_weight: list[int],
    floor: int,
) -> int:
    """The search bound from the layer counts alone, every layer scanned
    at every call: the oracle for _Search._bound, which reads capped and
    the frame that the search keeps (see there for the three relaxations,
    tried in the same order)."""
    top_layer = len(layer_weight) - 1
    # total sums the capped layers, and cut the weight the chain takes off
    # them; step is m and links[n] is c(n) for n >= low, n0.
    total = heaviest = step = f = cut = 0
    low = 1
    while not undecided[low]:
        inc = included[low]
        w = inc * layer_weight[low]
        total += w
        if w > heaviest:
            heaviest, step, f = w, low, inc
        low += 1
        if low > top_layer:
            return total
    if low + step > top_layer:
        # m + n0 > N: take the heaviest of the final layers that link.
        heaviest = step = 0
        for n in range(1, top_layer - low + 1):
            w = included[n] * layer_weight[n]
            if w > heaviest:
                heaviest, step = w, n
        f = included[step]
    links = included[:low]
    joint = low + step if step else top_layer + 1
    for n in range(low, top_layer + 1):
        cap = included[n] + undecided[n]
        w = layer_weight[n]
        total += cap * w
        if n >= joint:
            left = layer_weight[top_layer - n] - f * links[n - step]
            if left < cap:
                if left < 0:
                    left = 0
                cut += (cap - left) * w
                cap = left
        links.append(cap)
    if total <= floor:
        return total
    if total - cut <= floor:
        return total - cut
    if 2 * low > top_layer:
        return total
    count = included[low]
    low_cap = count + undecided[low]
    weight = layer_weight[low]
    rest = total - low_cap * weight
    start = low_cap
    terms = []
    for n in range(low + 1, top_layer + 1):
        other = n - low
        factor = 0 if other == low else included[other]
        if not factor and other != low:
            continue
        cap = included[n] + undecided[n]
        # q**n is layer_weight[top_layer - n].
        size = layer_weight[top_layer - n]
        slack = size - cap
        flat = isqrt(slack) if other == low else slack // factor
        if flat >= low_cap:
            continue
        if flat < start:
            start = flat
        terms.append((layer_weight[n], cap, size, factor))
        rest -= cap * layer_weight[n]
    if count < start:
        count = start
    best = None
    while True:
        g = rest + count * weight
        for w, cap, size, factor in terms:
            # factor 0 marks the layer 2 low, whose factor is c itself.
            left = size - count * (factor or count)
            g += w * (cap if cap < left else left)
        if g > floor:
            return total
        if best is not None and g <= best:
            return best
        best = g
        if count == low_cap:
            return best
        count += 1


@st.composite
def complete_dfas(draw, alphabet: Alphabet, max_states: int = 5) -> Dfa:
    """A complete DFA over alphabet with 1..max_states states, any start and
    any accepting set, so unreachable states and accepting starts occur."""
    k = draw(st.integers(1, max_states))
    state = st.integers(0, k - 1)
    row = st.lists(state, min_size=alphabet.q, max_size=alphabet.q).map(tuple)
    delta = tuple(draw(st.lists(row, min_size=k, max_size=k)))
    return Dfa(alphabet, k, draw(state), frozenset(draw(st.sets(state))), delta)


def moore_blocks_by_state(d: Dfa) -> list[int]:
    """Moore refinement one state at a time: the oracle for
    sets._moore_blocks, which builds each round a symbol column at a time.

    Each round gives every state the signature (its block, its successors'
    blocks) and numbers the signatures in order of first appearance.
    """
    block = [1 if s in d.accepting else 0 for s in range(d.num_states)]
    q = d.alphabet.q
    while True:
        sigs: dict[tuple[int, ...], int] = {}
        nxt = [0] * d.num_states
        for s in range(d.num_states):
            sig = (block[s],) + tuple(block[d.delta[s][c]] for c in range(q))
            nxt[s] = sigs.setdefault(sig, len(sigs))
        if len(sigs) == len(set(block)):
            return nxt
        block = nxt


def random_dfa(rng: random.Random, alphabet: Alphabet, k: int, accept: float) -> Dfa:
    """A complete DFA with k states, uniform transitions and start, and
    each state accepting with probability accept."""
    delta = tuple(tuple(rng.randrange(k) for _ in range(alphabet.q)) for _ in range(k))
    accepting = frozenset(s for s in range(k) if rng.random() < accept)
    return Dfa(alphabet, k, rng.randrange(k), accepting, delta)


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


class _DigitTable(dict):
    """str.translate table from alphabet symbols to base-q digits.  Any
    other character becomes '!', which int() refuses in every base."""

    def __missing__(self, key: int) -> str:
        return "!"


def read_by_line(text: str) -> LayeredSet:
    """Word-list text to its set, one line at a time: the oracle for
    sets.read_explicit, which shares no parsing or ranking code with it.

    Each word line is ranked on its own with int() in base q (base 2 for
    one symbol, whose digit is 0), or through a Word where int() refuses
    it; the set is built one member at a time.
    """
    alphabet: Alphabet | None = None
    horizon: int | None = None
    members: list[tuple[str, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            if alphabet is not None:
                raise FormatError(f"line {lineno}: duplicate alphabet header")
            try:
                alphabet = Alphabet(line.split(":", 1)[1].strip())
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
            table = _DigitTable((ord(c), f"{i:x}") for i, c in enumerate(alphabet.symbols))
            continue
        if line.startswith("horizon:"):
            if horizon is not None:
                raise FormatError(f"line {lineno}: duplicate horizon header")
            value = line.split(":", 1)[1].strip()
            # ASCII digits only, as int() takes signs, '_' and Unicode
            # digits, and at least 1.
            try:
                if not (value.isascii() and value.isdecimal()):
                    raise ValueError(value)
                horizon = int(value)
                if horizon < 1:
                    raise ValueError(value)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad horizon") from exc
            continue
        if alphabet is None:
            raise FormatError(f"line {lineno}: word before 'alphabet:' header")
        try:
            members.append((line, len(line), int(line.translate(table), max(alphabet.q, 2))))
        except ValueError:
            # Not a base-q numeral: a symbol outside the alphabet, which the
            # Word raises on, or more digits than int() takes.
            try:
                members.append((line, len(line), rank(alphabet.word(line))))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
    if alphabet is None:
        raise FormatError("missing 'alphabet:' header")
    if horizon is None:
        horizon = max((n for _, n, _ in members), default=1)
    if horizon > ENUMERATION_BUDGET or alphabet.q**horizon > ENUMERATION_BUDGET:
        raise ValueError(f"explicit horizon {horizon} over the enumeration budget")
    layers = [0] * (horizon + 1)
    for word, n, r in members:
        if n > horizon:
            raise ValueError(f"word {word!r} longer than horizon {horizon}")
        layers[n] |= 1 << r
    return LayeredSet(alphabet, horizon, tuple(layers))


def greedy_every_split(alphabet: Alphabet, max_len: int, seed: int,
                       schedule: str = "uniform") -> LayeredSet:
    """The greedy fixture with every split and every extension probed for
    each new word, empty layers included: the oracle for
    constructions.greedy_random_productfree, which probes only the splits
    and extensions whose layers are nonempty.  Same scan order, same tests.
    """
    q = alphabet.q
    items = [(n, r) for n in range(1, max_len + 1) for r in range(q**n)]
    rng = random.Random(seed)
    if schedule == "uniform":
        rng.shuffle(items)
    else:
        odd = [it for it in items if it[0] % 2 == 1]
        even = [it for it in items if it[0] % 2 == 0]
        rng.shuffle(odd)
        rng.shuffle(even)
        items = odd + even
    reversal = _relabel_tables(q, max_len, list(range(q)), reverse=True)
    fwd = [0] * (max_len + 1)
    rev = [0] * (max_len + 1)
    for n, r in items:
        rr = reversal[n][r]
        if _first_split(fwd, q, n, r, range(1, n)) or (
            2 * n <= max_len and (fwd[2 * n] >> (r * q**n + r)) & 1
        ):
            continue
        for m in range(1, max_len - n + 1):
            width = q**m
            if ((fwd[n + m] >> (r * width)) & fwd[m]
                    or (rev[n + m] >> (rr * width)) & rev[m]):
                break
        else:
            fwd[n] |= 1 << r
            rev[n] |= 1 << rr
    return LayeredSet(alphabet, max_len, tuple(fwd))


def refined_counts_by_word(member: Callable[[Word], bool], alphabet: Alphabet,
                           horizon: int, ells: Iterable[int]) -> list[int]:
    """|S(n; the li below n)| for n = 1..horizon, one word at a time: the
    members of layer n with no length-li prefix in S for an li < n.  The
    oracle for sets.explicit_layer_counts and for the refined terms of
    proofkit; member is a set_contains of a LayeredSet or Dfa.accepts."""
    ells = tuple(ells)
    return [
        sum(1 for w in layer_words(alphabet, n) if member(w) and not any(
            member(Word(alphabet, w.indices[:l])) for l in ells if l < n))
        for n in range(1, horizon + 1)
    ]


def refined_density(s: LayeredSet | Dfa, n: int, ells: Iterable[int]) -> Fraction:
    """d(n; l1,...,lk) = |S(n; l1,...,lk)| / q**n, from a sweep of its own."""
    return Fraction(layer_counts(s, n, ells)[-1], s.alphabet.layer_size(n))
