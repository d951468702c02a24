"""Exact maximum-density product-free subset search over a ball F_<=(N).

Branch and bound over words in (length, rank) order, include-branch first,
with propagation from the words already in and a per-layer relaxation
bound.  Propagation enforces the pairwise product constraint word by word:
including w forces out w.y and y.w for each word y in, found by rank
arithmetic on the layers of the members, so once x and y are in, x.y is
out.  Layer n then never holds more than q**n - |S(m)||S(n-m)| words in or
open, and the capped layers count those words alone.  Where they do not
cut a node, the same constraint is chained across the layers that still
have open words: with S(m) final and f words in it,
|S(L)| + f|S(L-m)| <= q**L along L, L + m, L + 2m, ..., which a greedy
pass maximises exactly.
Where that does not cut either, the count of the lowest layer with an open
word is left free: every layer above it is then capped by a function of
that count, and the node is cut when the maximum over the count, a concave
function, is at most the pruning floor.  The search starts from the
top-layer set, which is product-free: every length above N/2, plus half of
layer N/2 at even N, with the floor one below it.  Values are exact
rationals; witnesses are deterministic (the first optimum in the fixed
branching order, which greedily includes the earliest words).

Symmetries of the ball are broken lex-leader style: read an assignment as
a word over {OUT < IN} in universe order.  Each adjacent letter swap, the
reversal, and each swap followed by the reversal keeps lengths and maps
product triples to product triples, so it maps a feasible assignment to a
feasible one of the same value.  A subtree is cut once, for one of these
maps, every completion is lexicographically smaller than its image.  The
include-first search meets completions in decreasing lexicographic order,
so its witness is the lexicographically greatest optimum.  No map can send
that optimum to a greater one, so it is never cut, and a proved run
returns the same value and witness as it would without the cut; only the
node count changes.

The optima beyond the exhaustively checkable sizes are artifact-generated
ground truth, not published values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .sets import LayeredSet
from .words import Alphabet, _relabel_tables

DEFAULT_NODE_BUDGET = 2_000_000
# The largest ball max_productfree takes, measured as its words times its
# product triples.  The search keeps a few lists over the words, so this
# bounds the size of the problem a horizon poses, not memory: ab N=11
# passes, where ab N=9 already takes 2.5 million nodes to prove.
_SEARCH_SIZE_BUDGET = 1 << 28


@dataclass(frozen=True)
class SearchResult:
    horizon: int
    value: Fraction
    best: LayeredSet
    nodes: int
    proved: bool


def _scale(total_weight: int, alphabet: Alphabet, horizon: int) -> Fraction:
    # Integer weights are q**(horizon - n) per word of length n, so the exact
    # total layer-density sum is total_weight / q**horizon.
    value = Fraction(total_weight, alphabet.layer_size(horizon))
    return value / horizon


def _universe(alphabet: Alphabet, horizon: int) -> list[tuple[int, int]]:
    return [
        (n, r) for n in range(1, horizon + 1) for r in range(alphabet.layer_size(n))
    ]


def _as_layered(
    alphabet: Alphabet, horizon: int, items: list[tuple[int, int]], chosen: Iterable[int]
) -> LayeredSet:
    """The set of universe words whose indices are chosen."""
    layers = [0] * (horizon + 1)
    for idx in chosen:
        n, r = items[idx]
        layers[n] |= 1 << r
    return LayeredSet(alphabet, horizon, tuple(layers))


def _layer_offsets(q: int, horizon: int) -> list[int]:
    """offset[n] is the universe index of the first length-n word, for
    n = 1..horizon + 1."""
    offset = [0] * (horizon + 2)
    for n in range(1, horizon + 1):
        offset[n + 1] = offset[n] + q**n
    return offset


def _symmetry_maps(q: int, horizon: int) -> list[list[list[int]]]:
    """Per-layer rank tables (see words._relabel_tables) of the symmetries
    the search breaks: each adjacent letter swap, the reversal, and each
    swap followed by the reversal, leaving out any that acts on the ball as
    the identity or as an earlier map.

    Each is an involution that keeps lengths and sends every product triple
    to a product triple, a swap as (x, y, z) -> (x', y', z') and the
    reversal as (x, y, z) -> (y', x', z').
    """
    identity = list(range(q))
    swaps = []
    for c in range(q - 1):
        perm = list(identity)
        perm[c], perm[c + 1] = perm[c + 1], perm[c]
        swaps.append(perm)
    candidates = [(perm, False) for perm in swaps]
    candidates += [(perm, True) for perm in [identity] + swaps]
    seen = [_relabel_tables(q, horizon, identity, False)]
    for perm, reverse in candidates:
        tables = _relabel_tables(q, horizon, perm, reverse)
        if tables not in seen:
            seen.append(tables)
    return seen[1:]


class _BudgetExceeded(Exception):
    pass


class _Search:
    """Depth-first branch and bound with one undo trail.

    cap[n] counts the words of length n in or open, and capped is the sum
    of cap[n] * layer_weight[n]: the weight of the completion with every
    open word in.  Each branch pushes one record (idx, capped, forced) on
    the trail: capped as it was before the branch, and the open words an
    inclusion forced out, () for an exclusion.  Undo pops one record,
    assigns capped back, reopens idx and every forced word, and pops idx
    from the members of its layer if it was in.

    The bound's frame, the lex-leader state and the watched triple are
    passed down the recursion instead.  The frame (n0, m, f, n0 + m) is
    read from the final layers below n0, the lowest layer with an open
    word (see _frame), so a node only rebuilds it once layer n0 is final.
    The lex-leader state is one (pairs, pos, a, b) per symmetry that may
    still beat the assignment, pairs being the index swaps (a, b) with
    a < b that the symmetry makes, pos the first of them not yet known to
    agree and (a, b) = pairs[pos].  A node only rebuilds it once both a
    and b of some entry are decided.

    The watched triple (x, y, z, m), x.y = z with |x| = m, decides the
    leaves, the nodes where every product triple has a member OUT, so
    that every open word is freely includable.  It is the first triple
    with no member OUT in the scan order of _live, so every triple before
    it has one.  An OUT word stays OUT down the subtree, so a node keeps
    the triple it inherits while none of the three is OUT, and otherwise
    resumes the scan right after it; a node whose scan finds none is a
    leaf.
    """

    def __init__(self, alphabet: Alphabet, horizon: int, node_budget: int):
        self.node_budget = node_budget
        self.items = _universe(alphabet, horizon)
        self.nitems = len(self.items)
        self.length = [n for n, _ in self.items]
        self.layer_weight = [alphabet.q**n for n in range(horizon, -1, -1)]
        self.power = [alphabet.q**n for n in range(horizon + 1)]
        self.offset = offset = _layer_offsets(alphabet.q, horizon)
        self.lex_pairs = [
            [
                (offset[n] + r, offset[n] + t)
                for n in range(1, horizon + 1)
                for r, t in enumerate(tables[n])
                if r < t
            ]
            for tables in _symmetry_maps(alphabet.q, horizon)
        ]

        # UNDECIDED=0, IN=1, OUT=2
        self.status = [0] * self.nitems
        # members[n]: the ranks of the length-n words in, in order of inclusion.
        self.members: list[list[int]] = [[] for _ in range(horizon + 1)]
        self.included = [0] * (horizon + 1)
        self.cap = [0] + self.power[1:]
        self.capped = horizon * alphabet.q**horizon
        self.trail: list[tuple] = []
        self.nodes = 0
        # Pruning floor, plus the best found completion and its true value.
        self.floor = -1
        self.best_value = -1
        self.best_status: list[int] = [2] * self.nitems

    # -- propagation with undo trail ------------------------------------

    def _exclude(self, idx: int) -> None:
        n = self.length[idx]
        self.trail.append((idx, self.capped, ()))
        self.status[idx] = 2
        self.cap[n] -= 1
        self.capped -= self.layer_weight[n]

    def _include(self, idx: int) -> None:
        """Mark idx in and exclude the words it forces.

        A product triple through w = idx with another member in forces its
        third member out.  The caller keeps the search's (length, rank)
        order: every word shorter than w is decided and no longer word is
        in.  Then no factor pair of w has a factor open, or both in (the
        later one's inclusion forced w out), and no member is longer than
        w, so the triples to walk are w.y and y.w for each member y of a
        layer k <= N - |w|, found by rank arithmetic, not from the triples.
        Neither product is in, being longer than w, so an inclusion never
        meets a contradiction.  cap and capped fall once per layer k, by
        the words forced out of layer |w| + k.
        """
        status, offset, power = self.status, self.offset, self.power
        cap, members = self.cap, self.members
        capped, layer_weight = self.capped, self.layer_weight
        n = self.length[idx]
        r = idx - offset[n]
        forced: list[int] = []
        self.trail.append((idx, capped, forced))
        status[idx] = 1
        self.included[n] += 1
        members[n].append(r)
        top = len(members) - 1
        width = power[n]
        # The two products of each member are forced by the same lines,
        # written out twice: in this, the search's innermost loop, a loop
        # over the two or a list of them costs a seventh of _include's time
        # or more.
        for k in range(1, top - n + 1):
            row = members[k]
            if row:
                before = len(forced)
                left = offset[n + k] + r * power[k]
                right = offset[n + k] + r
                for y in row:
                    z = left + y  # w.y
                    if not status[z]:
                        status[z] = 2
                        forced.append(z)
                    z = right + y * width  # y.w
                    if not status[z]:
                        status[z] = 2
                        forced.append(z)
                out = len(forced) - before
                cap[n + k] -= out
                capped -= out * layer_weight[n + k]
        self.capped = capped

    def _undo(self) -> None:
        status, length, cap = self.status, self.length, self.cap
        idx, self.capped, forced = self.trail.pop()
        n = length[idx]
        if status[idx] == 1:
            self.included[n] -= 1
            self.members[n].pop()
        else:
            cap[n] += 1
        for out in forced:
            status[out] = 0
            cap[length[out]] += 1
        status[idx] = 0

    # -- bound -----------------------------------------------------------

    def _frame(self, low: int) -> tuple[int, int, int, int]:
        """The bound's frame (n0, m, f, n0 + m), given that no layer below
        low has an open word.

        n0 is the lowest layer with an open word, N + 1 if there is none.
        Every layer below it is final, and m is the one with the heaviest
        f = |S(m)| words among those with m + n0 <= N, the first on a tie;
        a larger m links no two layers from n0 up.  When every such layer
        is empty, m = f = 0 and n0 + m is N + 1, so the chain is not tried.
        """
        cap, included, weight = self.cap, self.included, self.layer_weight
        top = len(cap) - 1
        while low <= top and cap[low] == included[low]:
            low += 1
        heaviest = step = f = 0
        for n in range(1, min(low, top - low + 1)):
            w = included[n] * weight[n]
            if w > heaviest:
                heaviest, step, f = w, n, included[n]
        return low, step, f, low + step if step else top + 1

    def _bound(self, frame: tuple[int, int, int, int], floor: int) -> int:
        """Admissible bound on the best completion, as an integer weight,
        layer_weight[n] per word of length n, with frame = _frame(1).  It is
        at most floor exactly when the capped layers, the chain or G below
        show that no completion beats floor, and is the capped layers
        otherwise; the three are tried in that order, and the first at most
        floor is the bound.

        Layer n holds at most cap[n] words.  At every node the search
        bounds, propagation has already forced x.y out for each x and y in,
        and concatenation is injective, so cap[n] is at most
        q**n - |S(m)||S(n-m)| for every 0 < m < n.

        With (n0, m, f, n0 + m) the frame, S(m)S(L-m) holds f|S(L-m)| words
        of length L, none in S(L), so a completion's counts x(L) of the
        layers L >= n0 obey x(L) <= cap[L] and, where L - m >= n0 too,
        x(L) + f x(L-m) <= q**L.  Along each chain L, L + m, L + 2m, ...
        the greedy c(L) = min(cap[L], q**L - f c(L-m)) maximises this
        relaxation, and is never negative, as f <= q**m and c(L-m) <=
        cap[L-m] <= q**(L-m).  As f <= q**m, a word of layer L outweighs
        the f words of layer L + m that it rules out, and the knock-on
        effects alternate with shrinking weight.  The chain is the final
        layers plus c(L) words of each layer L >= n0, c(L) = cap[L] below
        n0 + m.  It takes one m: with several, a word of layer L rules out
        words of several later layers, together heavier than it, so the
        greedy pass no longer gives the maximum, nor an upper bound.

        The final count c of layer n0 lies in [included[n0], cap[n0]].  As
        S(n0)S(L-n0) holds c|S(L-n0)| words of length L, none in S(L), a
        completion weighs at most G(c), the sum of the layers below n0, c
        words of layer n0, and min(cap[L], q**L - c * included[L - n0]) words
        of each layer L above it, the factor being c * c at L = 2 n0.  G is
        tried only when 2 n0 <= N, for its cost per node: past that it still
        cuts, but over ab and abc its scan there costs more time than the
        nodes it cuts save.  Each term is linear or the min of a constant
        and a concave function of c, so G is concave: the scan upward in c
        from included[n0] stops at the first G(c) above floor (returning the
        capped layers) or once G stops rising (returning its maximum).
        """
        capped = self.capped
        if capped <= floor:
            return capped
        low, step, f, joint = frame
        cap, included, size = self.cap, self.included, self.power
        layer_weight = self.layer_weight
        top = len(cap) - 1
        # links[i] is c(low + i), and cut the weight the chain takes off
        # capped.
        links = cap[low:joint]
        cut = 0
        for n in range(joint, top + 1):
            c = cap[n]
            left = size[n] - f * links[n - joint]
            if left < c:
                cut += (c - left) * layer_weight[n]
                c = left
            links.append(c)
        if capped - cut <= floor:
            return capped - cut
        if 2 * low > top:
            return capped
        count = included[low]
        low_cap = cap[low]
        weight = layer_weight[low]
        # rest weighs the layers with no term: those below low, and those
        # above it that no word in couples to low.
        rest = capped - low_cap * weight
        terms = []
        for n in range(low + 1, top + 1):
            other = n - low
            factor = 0 if other == low else included[other]
            if factor or other == low:
                terms.append((layer_weight[n], cap[n], size[n], factor))
                rest -= cap[n] * layer_weight[n]
        best = None
        while True:
            g = rest + count * weight
            for w, c, s, factor in terms:
                # factor 0 marks the layer 2 low, whose factor is c itself.
                left = s - count * (factor or count)
                g += w * (c if c < left else left)
            if g > floor:
                return capped
            if best is not None and g <= best:
                return best
            best = g
            if count == low_cap:
                return best
            count += 1

    # -- search ----------------------------------------------------------

    def seed(self, status: list[int], value: int) -> None:
        """Start with a known feasible incumbent; the pruning floor sits one
        below its value so the DFS-first optimum still becomes the witness."""
        self.best_status = status
        self.best_value = value
        self.floor = value - 1

    def run(self) -> tuple[int, list[int], bool]:
        lex = [(pairs, 0) + pairs[0] for pairs in self.lex_pairs]
        # m = 0 marks no triple watched yet: the root scans from the start,
        # split 1 of the last word.
        watch = (0, 0, self.nitems - 1, 0)
        try:
            self._dfs(0, lex, self._frame(1), watch)
            proved = True
        except _BudgetExceeded:
            proved = False
        return self.best_value, self.best_status, proved

    def _record_completion(self) -> None:
        """Take the assignment with every open word in, if it beats the floor."""
        if self.capped > self.floor:
            self.floor = self.best_value = self.capped
            self.best_status = [st or 1 for st in self.status]

    def _live(self, z: int, m: int) -> tuple[int, int, int, int] | None:
        """The first triple (x, y, z', m'), x.y = z' with |x| = m', that has
        no member OUT and comes after (z, m) in the scan order: z' descending,
        then the split m' ascending.  None when there is none.

        z' descends from the longest words, which the search decides last,
        so the triples met first mostly have z' open.
        """
        status, length, offset, power = self.status, self.length, self.offset, self.power
        first = offset[2]
        while z >= first:
            if status[z] != 2:
                n = length[z]
                r = z - offset[n]
                for m in range(m + 1, n):
                    width = power[n - m]
                    x = offset[m] + r // width
                    if status[x] != 2:
                        y = offset[n - m] + r % width
                        if status[y] != 2:
                            return x, y, z, m
            z -= 1
            m = 0
        return None

    def _lex_advance(self, maps: list) -> list | None:
        """The lex-leader state after some map's current pair was decided,
        or None when some symmetry maps every completion to a
        lexicographically greater one (IN above OUT).

        A map's image at index a is the assignment at b, so the comparison
        runs over its pairs in order of a.  As each map is an involution,
        a pair with a > b would repeat a pair already known to agree.
        """
        status = self.status
        kept = []
        for pairs, pos, a, b in maps:
            if not (status[a] and status[b]):
                kept.append((pairs, pos, a, b))
                continue
            for pos in range(pos, len(pairs)):
                a, b = pairs[pos]
                sa, sb = status[a], status[b]
                if sa != sb or not sa:
                    break
            else:
                # Every pair agrees: the image is the assignment itself.
                continue
            if not sa or not sb:
                kept.append((pairs, pos, a, b))
            elif sa == 2:
                # a OUT, b IN: the image wins on every completion.
                return None
            # Otherwise a IN, b OUT: the assignment wins on every completion.
        return kept

    def _dfs(self, cursor: int, lex: list, frame: tuple, watch: tuple) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise _BudgetExceeded
        low = frame[0]
        if self.cap[low] == self.included[low]:
            # Layer n0 is final, so the lowest open layer moved up.
            frame = self._frame(low)
        floor = self.floor
        if self._bound(frame, floor) <= floor:
            return
        # The bound is admissible, so a node it cuts has no completion to
        # record, the all-open one below included; only the nodes it keeps
        # need their lex-leader state.
        status = self.status
        for _, _, a, b in lex:
            if status[a] and status[b]:
                advanced = self._lex_advance(lex)
                if advanced is None:
                    return
                lex = advanced
                break
        x, y, z, m = watch
        if not m or status[x] == 2 or status[y] == 2 or status[z] == 2:
            watch = self._live(z, m)
            if watch is None:
                # No triple can still fire: every open word is freely
                # includable.
                self._record_completion()
                return
        # A live triple has an open member, as all three in would have been
        # a contradiction, so the scan stops before the end.
        while status[cursor]:
            cursor += 1

        # cursor is the first open word, and no later word is in.
        self._include(cursor)
        self._dfs(cursor + 1, lex, frame, watch)
        self._undo()
        self._exclude(cursor)
        self._dfs(cursor + 1, lex, frame, watch)
        self._undo()


def max_productfree(
    alphabet: Alphabet,
    horizon: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """Exact optimum of the mean layer density over all product-free
    subsets of F_<=(horizon).

    Falls back to an anytime result with proved=False when the node budget
    runs out; the reported witness always passes the explicit check.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")
    # There are (n - 1) * q**n triples x.y = z per |z| = n.  Both factors of
    # the size grow with the horizon, so stop at the first one over.
    q = alphabet.q
    words = triples = 0
    for n in range(1, horizon + 1):
        words += q**n
        triples += (n - 1) * q**n
        if words * triples > _SEARCH_SIZE_BUDGET:
            raise ValueError(
                f"search horizon {horizon} has over {_SEARCH_SIZE_BUDGET} "
                f"(word, triple) pairs, over the enumeration budget"
            )
    search = _Search(alphabet, horizon, node_budget)
    # The top-layer set is always product-free, so it makes a safe starting
    # incumbent.  It holds every length above horizon / 2, whose products
    # leave the ball; each of these horizon - half layers is full and
    # weighs q**horizon.  At even horizon it also holds the first
    # k = q**half // 2 ranks of layer half = horizon / 2, and leaves out
    # their k * k products from layer horizon.
    half = horizon // 2
    width = q**half
    k = 0 if horizon % 2 else width // 2
    status = [1 if 2 * n > horizon else 2 for n, _ in search.items]
    offset = search.offset
    for x in range(k):
        status[offset[half] + x] = 1
        for y in range(k):
            status[offset[horizon] + x * width + y] = 2
    search.seed(status, (horizon - half) * q**horizon + k * width - k * k)
    weight, status, proved = search.run()
    chosen = (idx for idx, st in enumerate(status) if st == 1)
    best = _as_layered(alphabet, horizon, search.items, chosen)
    return SearchResult(
        horizon,
        _scale(weight, alphabet, horizon),
        best,
        search.nodes,
        proved,
    )
