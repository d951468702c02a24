"""Exact maximum-density product-free subset search over a ball F_<=(N).

Branch and bound over words in (length, rank) order, include-branch first,
with incremental triple propagation and a per-layer relaxation bound built
from the pairwise product constraint |S(n)| <= q**n - |S(m)||S(n-m)|.
Values are exact rationals; witnesses are deterministic (the first optimum
in the fixed branching order, which greedily includes the earliest words).

The optima beyond the exhaustively checkable sizes are artifact-generated
ground truth, not published values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .sets import LayeredSet, _iter_bits
from .words import ENUMERATION_BUDGET, Alphabet, _over_budget

DEFAULT_NODE_BUDGET = 2_000_000
EXHAUSTIVE_ITEM_CAP = 22

OBJECTIVES = ("mean", "total")


@dataclass(frozen=True)
class SearchResult:
    horizon: int
    objective: str
    value: Fraction
    best: LayeredSet
    nodes: int
    proved: bool


def _check_objective(objective: str) -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


def _scale(total_weight: int, alphabet: Alphabet, horizon: int, objective: str) -> Fraction:
    # Integer weights are q**(horizon - n) per word of length n, so the exact
    # total layer-density sum is total_weight / q**horizon.
    value = Fraction(total_weight, alphabet.layer_size(horizon))
    return value / horizon if objective == "mean" else value


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


def _triples(alphabet: Alphabet, horizon: int) -> list[tuple[int, int, int]]:
    """All (x, y, z) universe indices with x.y = z inside the ball."""
    q = alphabet.q
    # offset[n] is the universe index of the first length-n word.
    offset = [0] * (horizon + 2)
    for n in range(1, horizon + 1):
        offset[n + 1] = offset[n] + q**n
    out = []
    for m in range(1, horizon):
        for k in range(1, horizon - m + 1):
            width = q**k
            for x in range(q**m):
                for y in range(width):
                    out.append(
                        (
                            offset[m] + x,
                            offset[k] + y,
                            offset[m + k] + x * width + y,
                        )
                    )
    return out


def exhaustive_max_productfree(
    alphabet: Alphabet, horizon: int, objective: str = "mean"
) -> SearchResult:
    """Brute-force reference: enumerate every subset of the ball."""
    _check_objective(objective)
    q = alphabet.q
    if _over_budget((q**n for n in range(1, horizon + 1)), EXHAUSTIVE_ITEM_CAP):
        raise ValueError(
            f"F_<=({horizon}) has over {EXHAUSTIVE_ITEM_CAP} words: "
            f"it would exceed the exhaustive cap"
        )
    items = _universe(alphabet, horizon)
    weights = [q ** (horizon - n) for n, _ in items]
    triple_masks = [
        (1 << x) | (1 << y) | (1 << z) for x, y, z in _triples(alphabet, horizon)
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
    return SearchResult(
        horizon,
        objective,
        _scale(best_weight, alphabet, horizon, objective),
        best,
        nodes=1 << len(items),
        proved=True,
    )


def upper_bound(
    alphabet: Alphabet,
    horizon: int,
    included: list[int],
    undecided: list[int],
    objective: str = "mean",
) -> Fraction:
    """Admissible bound on the best completion of a partial assignment.

    included[n] / undecided[n] count decided-in and still-open words per
    layer.  Each layer is capped both by its open words and by the pairwise
    product constraint against the already included complementary layers.
    """
    _check_objective(objective)
    weight = _bound_weight(alphabet.q, horizon, included, undecided)
    return _scale(weight, alphabet, horizon, objective)


def _bound_weight(q: int, horizon: int, included: list[int], undecided: list[int]) -> int:
    """upper_bound as an integer weight, q**(horizon - n) per word of length n."""
    total = 0
    for n in range(1, horizon + 1):
        cap = included[n] + undecided[n]
        size = q**n
        for m in range(1, n):
            cap = min(cap, size - included[m] * included[n - m])
        cap = max(cap, included[n])
        total += cap * q ** (horizon - n)
    return total


class _BudgetExceeded(Exception):
    pass


# Undo-trail record tags: an exclusion of word idx is stored as idx, an
# inclusion as NITEMS + idx, a killed triple t as 2*NITEMS + t.


class _Search:
    def __init__(self, alphabet: Alphabet, horizon: int, node_budget: int):
        self.alphabet = alphabet
        self.horizon = horizon
        self.q = alphabet.q
        self.node_budget = node_budget
        self.items = _universe(alphabet, horizon)
        self.nitems = len(self.items)
        self.weights = [self.q ** (horizon - n) for n, _ in self.items]
        triples = _triples(alphabet, horizon)
        self.triples = triples
        self.triples_of: list[list[int]] = [[] for _ in range(self.nitems)]
        for idx, (x, y, z) in enumerate(triples):
            for member in {x, y, z}:
                self.triples_of[member].append(idx)

        # UNDECIDED=0, IN=1, OUT=2
        self.status = [0] * self.nitems
        self.alive = [True] * len(triples)
        self.live = len(triples)
        self.included = [0] * (horizon + 1)
        self.undecided = [0] * (horizon + 1)
        for n, _ in self.items:
            self.undecided[n] += 1
        self.weight_in = 0
        self.weight_open = sum(self.weights)
        self.nodes = 0
        # Pruning floor, plus the best found completion and its true value.
        self.floor = -1
        self.best_value = -1
        self.best_status: list[int] = [2] * self.nitems

    # -- propagation with undo trail ------------------------------------

    def _exclude(self, idx: int, trail: list[int]) -> None:
        self.status[idx] = 2
        n = self.items[idx][0]
        self.undecided[n] -= 1
        self.weight_open -= self.weights[idx]
        trail.append(idx)
        for t in self.triples_of[idx]:
            if self.alive[t]:
                self.alive[t] = False
                self.live -= 1
                trail.append(2 * self.nitems + t)

    def _include(self, idx: int, trail: list[int]) -> bool:
        """Mark idx in and propagate exclusions; False on contradiction."""
        self.status[idx] = 1
        n = self.items[idx][0]
        self.undecided[n] -= 1
        self.included[n] += 1
        self.weight_open -= self.weights[idx]
        self.weight_in += self.weights[idx]
        trail.append(self.nitems + idx)
        status = self.status
        for t in self.triples_of[idx]:
            if not self.alive[t]:
                continue
            x, y, z = self.triples[t]
            ins = (status[x] == 1) + (status[y] == 1) + (status[z] == 1)
            if ins == 3:
                return False
            if ins == 2:
                forced = x if status[x] != 1 else (y if status[y] != 1 else z)
                self._exclude(forced, trail)
        return True

    def _undo(self, trail: list[int]) -> None:
        while trail:
            rec = trail.pop()
            if rec >= 2 * self.nitems:
                t = rec - 2 * self.nitems
                self.alive[t] = True
                self.live += 1
            elif rec >= self.nitems:
                idx = rec - self.nitems
                n = self.items[idx][0]
                self.status[idx] = 0
                self.undecided[n] += 1
                self.included[n] -= 1
                self.weight_open += self.weights[idx]
                self.weight_in -= self.weights[idx]
            else:
                idx = rec
                n = self.items[idx][0]
                self.status[idx] = 0
                self.undecided[n] += 1
                self.weight_open += self.weights[idx]

    # -- search ----------------------------------------------------------

    def seed(self, status: list[int], value: int) -> None:
        """Start with a known feasible incumbent; the pruning floor sits one
        below its value so the DFS-first optimum still becomes the witness."""
        self.best_status = status
        self.best_value = value
        self.floor = value - 1

    def run(self) -> tuple[int, list[int], bool]:
        try:
            self._dfs(0)
            proved = True
        except _BudgetExceeded:
            proved = False
        return self.best_value, self.best_status, proved

    def _record_completion(self, extra_weight: int, open_all: bool) -> None:
        value = self.weight_in + extra_weight
        if value > self.floor:
            self.floor = value
            self.best_value = value
            snapshot = list(self.status)
            if open_all:
                for i, st in enumerate(snapshot):
                    if st == 0:
                        snapshot[i] = 1
            self.best_status = snapshot

    def _dfs(self, cursor: int) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise _BudgetExceeded
        if self.live == 0:
            # No triple can still fire: every open word is freely includable.
            self._record_completion(self.weight_open, open_all=True)
            return
        if _bound_weight(self.q, self.horizon, self.included, self.undecided) <= self.floor:
            return
        while cursor < self.nitems and self.status[cursor] != 0:
            cursor += 1
        if cursor == self.nitems:
            self._record_completion(0, open_all=False)
            return

        trail: list[int] = []
        if self._include(cursor, trail):
            self._dfs(cursor + 1)
        self._undo(trail)

        trail = []
        self._exclude(cursor, trail)
        self._dfs(cursor + 1)
        self._undo(trail)


def max_productfree(
    alphabet: Alphabet,
    horizon: int,
    objective: str = "mean",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """Exact optimum over all product-free subsets of F_<=(horizon).

    Falls back to an anytime result with proved=False when the node budget
    runs out; the reported witness always passes the explicit check.
    """
    _check_objective(objective)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    # The search stores every triple x.y = z: (n - 1) * q**n of them per |z| = n.
    q = alphabet.q
    if _over_budget((n - 1) * q**n for n in range(2, horizon + 1)):
        raise ValueError(
            f"search horizon {horizon} has over {ENUMERATION_BUDGET} product "
            f"triples, over the enumeration budget"
        )
    search = _Search(alphabet, horizon, node_budget)
    # The odd-length truncation is always product-free (odd + odd = even),
    # so it makes a safe starting incumbent.
    search.seed(
        [1 if n % 2 == 1 else 2 for n, _ in search.items],
        _odd_truncation_weight(alphabet, horizon),
    )
    weight, status, proved = search.run()
    chosen = (idx for idx, st in enumerate(status) if st == 1)
    best = _as_layered(alphabet, horizon, search.items, chosen)
    return SearchResult(
        horizon,
        objective,
        _scale(weight, alphabet, horizon, objective),
        best,
        search.nodes,
        proved,
    )


def _odd_truncation_weight(alphabet: Alphabet, horizon: int) -> int:
    q = alphabet.q
    return sum(
        q**n * q ** (horizon - n) for n in range(1, horizon + 1, 2)
    )
