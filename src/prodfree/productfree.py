"""Deciding product-freeness exactly, with witnesses.

A set S is product-free when no x, y, z in S (not necessarily distinct)
satisfy x.y = z.  Explicit truncations treat the ball F_<=(N) as the
universe: products longer than N are unconstrained, so a truncation can
look denser than any genuinely infinite product-free set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sets import (
    Dfa, LayeredSet, _first_split, _iter_bits, _live_splits, _spread,
    _start_normalized,
)
from .words import ENUMERATION_BUDGET, Alphabet, Word, concat, unrank


@dataclass(frozen=True)
class WitnessTriple:
    """A violating triple: x.y = z with all three in the set."""

    x: Word
    y: Word
    z: Word

    def __post_init__(self) -> None:
        if concat(self.x, self.y) != self.z:
            raise ValueError("witness does not satisfy x.y = z")


def check_explicit(s: LayeredSet) -> WitnessTriple | None:
    """None if product-free within the horizon, else the least witness.

    The witness minimises (|z|, rank(z), |x|): z is the least member of the
    first layer S(n) that meets a product S(m).S(n-m), split at the least m.
    A layer's products are one spread per split, a pass over q**n characters
    each; a layer with under q**n / 64 members probes each member's splits
    instead, at one Python step, some 64 characters of a pass, per split.
    """
    q = s.alphabet.q
    layers = s.layers
    for n in range(2, s.horizon + 1):
        target = layers[n]
        if not target or not (splits := _live_splits(layers, n)):
            continue
        if 64 * target.bit_count() < q**n:
            z = next((r for r in _iter_bits(target)
                      if _first_split(layers, q, n, r, splits)), -1)
        else:
            products = 0
            for m in splits:
                products |= _spread(layers[m], layers[n - m], q ** (n - m))
            hits = products & target
            z = (hits & -hits).bit_length() - 1
        if z >= 0:
            m = _first_split(layers, q, n, z, splits)
            tail = q ** (n - m)
            return WitnessTriple(
                unrank(s.alphabet, m, z // tail),
                unrank(s.alphabet, n - m, z % tail),
                unrank(s.alphabet, n, z),
            )
    return None


def check_regular(d: Dfa) -> WitnessTriple | None:
    """None iff (L.L) ∩ L is empty, over all lengths.

    Otherwise returns a shortest z in the intersection (lex-least among the
    shortest) with its earliest split into two members.

    z is searched for on a pair automaton of at most n + n**2 states, with
    n counted after start normalisation so that x is nonempty.  Phase-1
    state p reads z from the start.  From an accepting p, symbol c also
    enters the phase-2 state (delta(p, c), delta(start, c)), which goes on
    reading z in its first component and the suffix y in its second; the
    pair is final when both are accepting.

    The search is breadth first over groups of states that share one
    lex-least shortest word.  The groups of one length are expanded in
    order and symbols in ascending order, so the groups of the next length
    come out sorted by word, each state joins a group the first time it is
    reached, and the first final state reached ends the lex-least shortest
    z.  Each state is expanded once, so the search takes O((n + n**2) q)
    steps, and its marks take n + n**2 bytes.
    """
    d = _start_normalized(d)
    n, q = d.num_states, d.alphabet.q
    if n + n * n > ENUMERATION_BUDGET:
        raise ValueError(
            f"product-free check of a {n}-state automaton: {n + n * n} pair "
            "states would exceed the enumeration budget"
        )
    delta = d.delta
    accepting = [s in d.accepting for s in range(n)]
    entry = delta[d.start]
    # Phase-1 state p is p and phase-2 state (p, r) is n + p*n + r.  Group
    # g's word is group links[g] // q's word followed by symbol links[g] % q;
    # only the groups of the current length are kept.
    seen = bytearray(n + n * n)
    seen[d.start] = 1
    links = [-1]
    level = [(0, [d.start])]
    while level:
        deeper = []
        for g, members in level:
            for c in range(q):
                found = []
                for s in members:
                    if s < n:
                        u = delta[s][c]
                        if not seen[u]:
                            seen[u] = 1
                            found.append(u)
                        if not accepting[s]:
                            continue
                        v = entry[c]
                    else:
                        p, r = divmod(s - n, n)
                        u, v = delta[p][c], delta[r][c]
                    t = n + u * n + v
                    if not seen[t]:
                        if accepting[u] and accepting[v]:
                            return _earliest_split(d, _group_word(d.alphabet, links, g, c))
                        seen[t] = 1
                        found.append(t)
                if found:
                    deeper.append((len(links), found))
                    links.append(g * q + c)
        level = deeper
    return None


def _group_word(alphabet: Alphabet, links: list[int], g: int, c: int) -> Word:
    """Group g's word followed by symbol c."""
    indices = [c]
    while g:
        g, c = divmod(links[g], alphabet.q)
        indices.append(c)
    return Word(alphabet, tuple(reversed(indices)))


def _earliest_split(d: Dfa, z: Word) -> WitnessTriple:
    """z = x.y with x and y in L(d) and |x| least."""
    for m in range(1, len(z)):
        x = Word(d.alphabet, z.indices[:m])
        y = Word(d.alphabet, z.indices[m:])
        if d.accepts(x) and d.accepts(y):
            return WitnessTriple(x, y, z)
    raise AssertionError("witness from the pair automaton has no split")
