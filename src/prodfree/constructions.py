"""Named set constructions and randomized product-free fixtures.

Builds the odd-occurrence parity sets, the counting-measure block set whose
ball density approaches 1, the asymmetric prefix/suffix/complement triple
with densities near phi, and seeded greedy product-free sets used as test
fixtures throughout.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isqrt

from .proofkit import exceeds_phi
from .sets import (
    Dfa,
    LayeredSet,
    _bits,
    _check_horizon,
    _explore,
    _first_split,
    _layer_offsets,
    _minimized,
    dfa_complement,
    dfa_concat,
)
from .words import ENUMERATION_BUDGET, Alphabet, _over_budget, _relabel_tables


def odd_occurrence(alphabet: Alphabet, gamma: str) -> Dfa:
    """Words in which symbols from gamma occur an odd number of times in total.

    A two-state parity automaton; product-free for every nonempty gamma.
    """
    if not gamma:
        raise ValueError("gamma must be a nonempty set of symbols")
    if len(set(gamma)) != len(gamma):
        raise ValueError(f"gamma has repeated symbols: {gamma!r}")
    marked = {alphabet.index(ch) for ch in gamma}
    q = alphabet.q
    delta = tuple(
        tuple(s ^ (1 if c in marked else 0) for c in range(q)) for s in (0, 1)
    )
    return _minimized(Dfa(alphabet, 2, 0, frozenset({1}), delta))


def pathology_lengths(c: int, horizon: int) -> list[int]:
    """Lengths in the union of blocks (2**n, 2**n + c] for n >= c, capped."""
    out = []
    n = c
    while 2**n < horizon:
        out.extend(range(2**n + 1, min(2**n + c, horizon) + 1))
        n += 1
    return out


def counting_pathology(
    alphabet: Alphabet, c: int, horizon: int | None = None
) -> LayeredSet:
    """Full layers at lengths in the blocks (2**n, 2**n + c], n >= c.

    Under the counting (ball) measure this set has density at least 1 - 1/c
    at radius 2**c + c while every product of two members at that horizon is
    longer than the horizon.  Only occupied layers carry nonzero bitsets.
    """
    if c < 2:
        raise ValueError(f"c must be >= 2, got {c}")
    if alphabet.q < 2:
        raise ValueError("the block construction needs at least two symbols")
    # The horizon is at least 2**c + c, which passes the budget from c = 22
    # on: refuse a larger c before 2**c is built.
    if c > ENUMERATION_BUDGET.bit_length():
        raise ValueError(
            f"pathology horizon of at least 2**{c} + {c} over the enumeration budget"
        )
    if horizon is None:
        horizon = 2**c + c
    if horizon < 2**c + c:
        raise ValueError(f"horizon {horizon} below the first block end {2**c + c}")
    _check_horizon(alphabet, horizon, "pathology")
    layers = [0] * (horizon + 1)
    for n in pathology_lengths(c, horizon):
        layers[n] = (1 << alphabet.layer_size(n)) - 1
    return LayeredSet(alphabet, horizon, tuple(layers))


# ---------------------------------------------------------------------------
# Asymmetric triple


@dataclass(frozen=True)
class AsymmetricTriple:
    """W on one layer plus the derived prefix set X, suffix set Y and
    product complement Z = F \\ (X.Y)."""

    n: int
    eps: Fraction
    w_set: LayeredSet
    x: Dfa
    y: Dfa
    z: Dfa


def phi_floor(total: int) -> int:
    """floor(phi * total) by exact integer square root."""
    return (isqrt(5 * total * total) - total) // 2


def asymmetric_triple(alphabet: Alphabet, n: int, eps: Fraction) -> AsymmetricTriple:
    """The no-solution triple for x.y = z with x in X, y in Y, z in Z.

    W is the lexicographically first floor(phi * q**n) words of F(n); X is
    every word with a prefix in W (the word itself counts), Y mirrors with
    suffixes, and Z is the complement of X.Y.  From length n on, X and Y
    have layer density |W|/q**n; Z holds every word shorter than 2n and has
    layer density 1 - (|W|/q**n)**2 >= phi from length 2n on.  Errors unless
    the density of X and Y is above phi - eps.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    # W's bitset holds q**n bits and Y's automaton one state per word of
    # length at most n.
    if _over_budget(alphabet.q**k for k in range(1, n + 1)):
        raise ValueError(f"layer {n} over the enumeration budget")
    total = alphabet.layer_size(n)
    size = phi_floor(total)
    density = Fraction(size, total)
    if not exceeds_phi(density + eps):
        raise ValueError(
            f"W holds {size} of the {total} words of layer {n}: density "
            f"{density} is not above phi - {eps}"
        )

    layers = [0] * (n + 1)
    layers[n] = (1 << size) - 1
    w_set = LayeredSet(alphabet, n, tuple(layers))

    x = _prefix_set_dfa(alphabet, n, size)
    y = _suffix_set_dfa(alphabet, n, size)
    z = dfa_complement(dfa_concat(x, y))
    return AsymmetricTriple(n, eps, w_set, x, y, z)


def _prefix_set_dfa(alphabet: Alphabet, n: int, size: int) -> Dfa:
    """Words whose length-n prefix has rank < size (non-strict prefix).

    The prefix is compared with the n base-q digits of size as it is read: a
    state is (depth, below), below once the prefix is less than the digits
    so far.  A prefix above them, and size itself at depth n, go to the sink
    (n, False); (n, True) is the accepting sink."""
    q = alphabet.q
    digits = [size // q ** (n - 1 - depth) % q for depth in range(n)]

    def step(state: tuple[int, bool]) -> list[tuple[int, bool]]:
        depth, below = state
        if depth == n:
            return [state] * q
        if below:
            return [(depth + 1, True)] * q
        digit = digits[depth]
        return [(depth + 1, True)] * digit + [(depth + 1, False)] + [(n, False)] * (q - 1 - digit)

    # Every prefix is below a size of q**n, which has n + 1 digits.
    return _minimized(_explore(alphabet, (0, size >= q**n), step, lambda s: s == (n, True)))


def _suffix_set_dfa(alphabet: Alphabet, n: int, size: int) -> Dfa:
    """Words whose final n symbols form a word of rank < size.

    In state q**0 + ... + q**(d-1) + r the last d = min(len, n) symbols read
    have rank r.  Every state is reachable, so the table is written down, not
    explored: below depth n the successors, state by state, are the states
    from 1 on, and from depth n, which drops a symbol, all of depth n, q
    times over."""
    q = alphabet.q
    top, width = sum(q**d for d in range(n)), q**n  # depth n's first state and size
    targets = chain(range(1, top + width), list(range(top, top + width)) * q)
    delta = tuple(zip(*[targets] * q))  # q references to one iterator: rows of q
    return _minimized(Dfa(alphabet, top + width, 0, frozenset(range(top, top + size)), delta))


# ---------------------------------------------------------------------------
# Seeded greedy fixtures


def greedy_random_productfree(
    alphabet: Alphabet,
    max_len: int,
    seed: int,
    schedule: str = "uniform",
) -> LayeredSet:
    """Deterministic seeded greedy product-free subset of F_<=(max_len).

    Scans the ball in a seeded order and inserts each word unless that
    would complete a product; only products touching the new word are
    rechecked.  schedule picks the scan order: "uniform" shuffles the whole
    ball, "odd-first" shuffles odd lengths ahead of even lengths (with all
    odd lengths available the greedy pass then recovers exactly the
    odd-length truncation).

    A new word w of length n is tested only at the splits m with layers m
    and n - m both nonempty (w = x.y), and only against the extensions m
    with layers m and n + m both nonempty (w.y or y.w a member).  This is
    exact: a product with a factor or the product in an empty layer does
    not exist.  The two lists change only when a layer gets its first
    member, and then gain only the entries with that layer as a factor or
    the product, O(max_len) of them, found by a walk over the lengths that
    have a member and each inserted in order.

    Membership is kept as 0/1 byte marks over the ball (see sets._marks),
    so a split test reads two bytes and an insertion writes two, and the
    layers become ints once, at the end.
    """
    q = alphabet.q
    if max_len < 1:
        raise ValueError(f"max length must be >= 1, got {max_len}")
    if _over_budget(q**n for n in range(1, max_len + 1)):
        raise ValueError(f"max length {max_len} over the enumeration budget")
    items = [(n, r) for n in range(1, max_len + 1) for r in range(q**n)]
    rng = random.Random(seed)
    if schedule == "uniform":
        rng.shuffle(items)
    elif schedule == "odd-first":
        odd = [it for it in items if it[0] % 2 == 1]
        even = [it for it in items if it[0] % 2 == 0]
        rng.shuffle(odd)
        rng.shuffle(even)
        items = odd + even
    else:
        raise ValueError(f"unknown schedule {schedule!r}")

    # reversal[n][r] is the rank of the reversal of the length-n word of rank
    # r.  fwd marks the members at offset[n] + r, and rev marks the
    # reversals of the members at offset[n] + reversal[n][r].
    reversal = _relabel_tables(q, max_len, list(range(q)), reverse=True)
    offset = _layer_offsets(q, max_len)
    fwd = bytearray(offset[-1])
    rev = bytearray(offset[-1])
    lengths = []  # the lengths with a member
    # splits[n] and longer[n]: the live splits and extensions of length n,
    # each ascending.
    splits = [[] for _ in range(max_len + 1)]
    longer = [[] for _ in range(max_len + 1)]
    for n, r in items:
        rr = reversal[n][r]
        # w = x.y with both factors already in, or w.w already in.
        if _first_split(fwd, offset, q, n, r, splits[n]) or (
            2 * n <= max_len and fwd[offset[2 * n] + r * q**n + r]
        ):
            continue
        for m in longer[n]:
            # w.y in S for some member y: the ranks of w.y are one block of
            # width in layer n + m, matched against layer m byte for byte.
            # y.w: the same on the reversals.
            width, y, wy = q**m, offset[m], offset[n + m]
            if (int.from_bytes(fwd[wy + r * width : wy + (r + 1) * width], "big")
                    & int.from_bytes(fwd[y : y + width], "big")
                    or int.from_bytes(rev[wy + rr * width : wy + (rr + 1) * width], "big")
                    & int.from_bytes(rev[y : y + width], "big")):
                break
        else:
            fwd[offset[n] + r] = 1
            rev[offset[n] + rr] = 1
            if n not in lengths:
                lengths.append(n)
                for j in lengths:
                    if n + j <= max_len:  # n.j and j.n, once if j = n
                        insort(splits[n + j], n)
                        if j != n:
                            insort(splits[n + j], j)
                    if j != n:  # the shorter of n and j extends to the longer
                        insort(longer[abs(j - n)], min(j, n))
    layers = [0] + [_bits(fwd[offset[n] : offset[n + 1]]) for n in range(1, max_len + 1)]
    return LayeredSet(alphabet, max_len, tuple(layers))
