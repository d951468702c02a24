import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prodfree.productfree import check_explicit
from prodfree.search import (
    _scale,
    _Search,
    _symmetry_maps,
    _universe,
    max_productfree,
)
from prodfree.sets import write_explicit
from prodfree.words import Alphabet, Word, unrank

from conftest import (
    MaskWalkSearch, bound_weight_by_scan, exhaustive_max_productfree, product_triples, rank,
    set_words,
)

AB = Alphabet("ab")
ABC = Alphabet("abc")
ABCD = Alphabet("abcd")


def recomputed_objective(result) -> Fraction:
    total = sum(
        Fraction(result.best.layer_count(n), result.best.alphabet.q**n)
        for n in range(1, result.horizon + 1)
    )
    return total / result.horizon


class TestAgainstExhaustive:
    @pytest.mark.parametrize("alphabet,horizon", [
        (AB, 1), (AB, 2), (AB, 3), (ABC, 1), (ABC, 2),
    ])
    def test_matches_brute_force(self, alphabet, horizon):
        brute = exhaustive_max_productfree(alphabet, horizon)
        found = max_productfree(alphabet, horizon)
        assert found.value == brute.value
        assert found.proved

    def test_unary_matches(self):
        unary = Alphabet("a")
        brute = exhaustive_max_productfree(unary, 6)
        found = max_productfree(unary, 6)
        assert found.value == brute.value

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError, match="exceed"):
            exhaustive_max_productfree(AB, 5)


class TestKnownOptima:
    def test_n1(self):
        r = max_productfree(AB, 1)
        assert r.value == 1
        assert [w.text for w in set_words(r.best)] == ["a", "b"]

    def test_n2_five_eighths(self):
        r = max_productfree(AB, 2)
        assert r.value == Fraction(5, 8)
        assert [w.text for w in set_words(r.best)] == ["a", "ab", "ba", "bb"]

    def test_n3_regression(self):
        r = max_productfree(AB, 3)
        assert r.value == Fraction(2, 3)
        assert r.proved


class TestResultContracts:
    @pytest.mark.parametrize("horizon", [1, 2, 3, 4])
    def test_witness_product_free_and_value_recomputes(self, horizon):
        r = max_productfree(AB, horizon)
        assert check_explicit(r.best) is None
        assert recomputed_objective(r) == r.value

    def test_determinism(self):
        a = max_productfree(AB, 4)
        b = max_productfree(AB, 4)
        assert a.best == b.best
        assert a.nodes == b.nodes
        assert a.value == b.value

    def test_budget_degrades_to_anytime(self):
        r = max_productfree(AB, 4, node_budget=3)
        assert not r.proved
        assert check_explicit(r.best) is None
        assert recomputed_objective(r) == r.value
        # The seed incumbent (the top-layer set, 9/16 here) is still reported.
        assert r.value >= Fraction(1, 2)


def _weights(q: int, horizon: int) -> list[int]:
    """q**(horizon - n), the weight of a length-n word, for n = 0..horizon."""
    return [q ** (horizon - n) for n in range(horizon + 1)]


def bound_weight(alphabet, horizon, included, undecided, floor=-1) -> int:
    """The search bound on a partial assignment, as an integer weight."""
    return bound_weight_by_scan(included, undecided, _weights(alphabet.q, horizon), floor)


def open_counts(search: _Search) -> list[int]:
    """The open words per layer: those in or open, less those in."""
    return [c - inc for c, inc in zip(search.cap, search.included)]


def scan_args(search: _Search) -> tuple:
    """The arguments of bound_weight_by_scan but the floor, from a search."""
    return search.included, open_counts(search), search.layer_weight


def assert_propagated(search: _Search) -> None:
    """The invariant propagation keeps, and the capped layers rest on: as
    x.y is out once x and y are in, and concatenation is injective, layer
    n holds at most q**n - |S(m)||S(n-m)| words in or open, 0 < m < n."""
    included, cap = search.included, search.cap
    sizes = search.layer_weight[::-1]
    for n in range(2, len(included)):
        for m in range(1, n):
            assert cap[n] <= sizes[n] - included[m] * included[n - m], (n, m)


def upper_bound(alphabet, horizon, included, undecided, floor=-1) -> Fraction:
    """The search bound on a partial assignment, as a mean layer density."""
    weight = bound_weight(alphabet, horizon, included, undecided, floor)
    return _scale(weight, alphabet, horizon)


class TestUpperBound:
    def test_empty_assignment_dominates_optimum(self):
        included = [0, 0, 0]
        undecided = [0, 2, 4]
        bound = upper_bound(AB, 2, included, undecided)
        assert bound >= Fraction(5, 8)

    def test_fully_decided_equals_objective(self):
        # The N=2 optimum: S(1) = {a}, S(2) = {ab, ba, bb}.
        included = [0, 1, 3]
        undecided = [0, 0, 0]
        assert upper_bound(AB, 2, included, undecided) == Fraction(5, 8)

    def test_full_first_layer_caps_second(self):
        # With a and b in, propagation forces aa, ab, ba and bb out, so
        # layer 2 has no open word left and the bound is S(1) alone.
        search = _Search(AB, 2, node_budget=0)
        search._include(0)
        search._include(1)
        assert search.included == [0, 2, 0]
        assert search.cap == [0, 2, 0]
        assert upper_bound(AB, 2, search.included, open_counts(search)) == Fraction(1, 2)
        assert search._bound(search._frame(1), -1) == 4

    def test_admissible_on_partial_assignments(self):
        # Against the exhaustive optimum of every completion: fix S(1) = {a}.
        included = [0, 1, 0]
        undecided = [0, 0, 4]
        bound = upper_bound(AB, 2, included, undecided)
        # Best completion is {a} plus {ab, ba, bb}: value 5/8.
        assert bound >= Fraction(5, 8)

    def test_root_bound_of_two_letters_at_horizon_two_is_the_optimum(self):
        # Weights 2 per letter, 1 per word of length 2, so the optimum 5/8
        # weighs 5.  The capped layers give 2 * 2 + 4 = 8 (mean 1), but
        # with c letters in, at most 4 - c * c words of length 2 are:
        # G(0), G(1), G(2) = 4, 5, 4, and the maximum is at c = 1.
        included = [0, 0, 0]
        undecided = [0, 2, 4]
        assert bound_weight(AB, 2, included, undecided, floor=4) == 8
        assert bound_weight(AB, 2, included, undecided, floor=5) == 5
        assert upper_bound(AB, 2, included, undecided, floor=5) == Fraction(5, 8)

    def test_scan_stops_when_the_bound_falls_from_the_included_count(self):
        # S(1) holds a, b is open, and aa is out.  The capped layers give
        # 2 * 2 + 3 = 7; G(1) = 2 + min(3, 4 - 1) = 5 and G(2) = 4 + 0 = 4,
        # so G falls from the included count.
        included = [0, 1, 0]
        undecided = [0, 1, 3]
        assert bound_weight(AB, 2, included, undecided, floor=4) == 7
        assert bound_weight(AB, 2, included, undecided, floor=5) == 5
        # The scan stops at its first step up: past the maximum, the bound
        # is G(1) whatever the floor.
        assert bound_weight(AB, 2, included, undecided, floor=6) == 5

    def test_chain_takes_the_heaviest_linking_layer_alone(self):
        # ab at N=5 with S(1) = {a} and three words in S(2), final, and the
        # layers 3..5 open and capped only by their sizes.  The final
        # layers weigh 16 + 3 * 8 = 40, and f|S(m)| weight is 16 at m = 1
        # and 24 at m = 2, so the chain takes m = 2, f = 3: c3 = 8, c4 = 16
        # and c5 = 32 - 3 * 8 = 8, 40 + 32 + 32 + 8 = 112 in all, against
        # 136 for the capped layers.  A min over both m inside one greedy
        # pass would give c4 = 16 - 8 = 8 and c5 = 32 - 24 = 8, 96, but
        # the relaxation under both constraints reaches 100 at c3 = 4, so
        # that pass is no bound.  2 n0 = 6 > 5, so G is not tried.
        args = ([0, 1, 3, 0, 0, 0], [0, 0, 0, 8, 16, 32], _weights(2, 5))
        assert bound_weight_by_scan(*args, 136) == 136
        assert bound_weight_by_scan(*args, 135) == 112
        assert bound_weight_by_scan(*args, 112) == 112
        assert bound_weight_by_scan(*args, 111) == 136
        assert bound_weight_by_scan(*args, 100) == 136

    def test_g_keeps_the_term_of_a_one_word_layer(self):
        # abc at N=4 with S(1) = {a}, so aa is out, and the layers 2..4
        # open; weights 27, 9, 3, 1, and the capped layers weigh 261.  The
        # chain (m = 1, f = 1) gives 27 + 9 * 8 + 3 * 19 + 62 = 218.  G(c) =
        # 27 + 9c + 3(27 - c) + (81 - c * c) = 189 + 6c - c * c peaks at 198,
        # at c = 3.  Without the term of layer 3, whose factor is the one
        # word of S(1), G would peak at 209 and cut nothing at floor 198.
        search = _Search(ABC, 4, node_budget=0)
        search._include(0)
        search._exclude(1)
        search._exclude(2)
        assert search.capped == 261
        frame = search._frame(1)
        for floor, bound in [(218, 218), (217, 198), (198, 198), (197, 261)]:
            assert search._bound(frame, floor) == bound
            assert bound_weight_by_scan(*scan_args(search), floor) == bound


def _best_completion(search: _Search, triples: list[tuple[int, int, int]]) -> int:
    """Weight of the heaviest product-free completion of the search's
    partial assignment: a DFS over its open words that checks every triple
    through a word it includes, cut only when even every open word in would
    not beat the best found."""
    status = list(search.status)
    open_words = [idx for idx, value in enumerate(status) if not value]
    through = {idx: [t for t in triples if idx in t] for idx in open_words}
    best = -1

    def dfs(k: int, weight: int, rest: int) -> None:
        nonlocal best
        if weight + rest <= best:
            return
        if k == len(open_words):
            best = weight
            return
        idx = open_words[k]
        w = search.layer_weight[search.length[idx]]
        status[idx] = 1
        if all(any(status[m] != 1 for m in t) for t in through[idx]):
            dfs(k + 1, weight + w, rest - w)
        status[idx] = 2
        dfs(k + 1, weight, rest - w)
        status[idx] = 0

    layer_weight = search.layer_weight
    dfs(
        0,
        sum(c * w for c, w in zip(search.included, layer_weight)),
        sum(c * w for c, w in zip(open_counts(search), layer_weight)),
    )
    return best


def _heaviest_linking_layer(included: list[int], weight: list[int], low: int):
    """The final layer m < low with m + low <= N and the heaviest
    f = |S(m)| words, the first on a tie, with f; None when every such
    layer is empty."""
    horizon = len(included) - 1
    m = max(
        range(1, min(low, horizon - low + 1)),
        key=lambda n: included[n] * weight[n],
        default=None,
    )
    return (m, included[m]) if m is not None and included[m] else None


def _chain(sizes, weight, included, cap, low, linking) -> int:
    """The chain bound from its definition: the final layers, plus c(L)
    words of each layer L >= low, c(L) = cap[L] unless L - m >= low too,
    then min(cap[L], max(0, q**L - f c(L - m)))."""
    chain = {}
    for n in range(low, len(cap)):
        chain[n] = cap[n]
        if linking and n - linking[0] >= low:
            m, f = linking
            chain[n] = min(cap[n], max(0, sizes[n] - f * chain[n - m]))
    return sum(included[n] * weight[n] for n in range(1, low)) + sum(
        chain[n] * weight[n] for n in chain
    )


def _refined_bounds(search: _Search) -> tuple[int, int, int | None]:
    """The three bounds on the search's partial assignment, from their
    definitions: the capped layers; the chain along the heaviest final
    layer m below n0, the lowest layer with an open word, that links two
    layers from n0 up; and, when 2 n0 <= N, the max over the counts c
    that n0 can take of G(c), each layer L above n0 capped by
    q**L - c |S(L - n0)|, else None."""
    included, weight, cap = search.included, search.layer_weight, search.cap
    horizon, sizes = len(weight) - 1, weight[::-1]
    capped = sum(cap[n] * weight[n] for n in range(1, horizon + 1))
    low = next((n for n in range(1, horizon + 1) if cap[n] > included[n]), None)
    if low is None:
        return capped, capped, None
    linking = _heaviest_linking_layer(included, weight, low)
    chain = _chain(sizes, weight, included, cap, low, linking)
    if 2 * low > horizon:
        return capped, chain, None

    def g(c: int) -> int:
        total = sum(included[n] * weight[n] for n in range(1, low)) + c * weight[low]
        for n in range(low + 1, horizon + 1):
            factor = c if n == 2 * low else included[n - low]
            total += weight[n] * min(cap[n], sizes[n] - c * factor)
        return total

    return capped, chain, max(g(c) for c in range(included[low], cap[low] + 1))


def _expected_bound(bounds: tuple[int, int, int | None], floor: int) -> int:
    """The first of the capped layers, the chain and G at most floor, else
    the capped layers."""
    return next((b for b in bounds if b is not None and b <= floor), bounds[0])


@pytest.mark.ci_profile
class TestBoundAdmissible:
    @settings(deadline=None)
    @given(
        case=st.sampled_from([
            (AB, 1), (AB, 2), (AB, 3), (AB, 4), (AB, 5), (AB, 6),
            (ABC, 1), (ABC, 2), (ABC, 3),
        ]),
        data=st.data(),
    )
    def test_bound_dominates_the_best_completion(self, case, data):
        # A random walk of inclusions, exclusions and undos in any order,
        # so on the mask walk, which takes words so.  Every state
        # keeps propagation's invariant, and at each state after an
        # inclusion or exclusion the bound is the first of the capped
        # layers, the chain and G at most the floor, else the capped
        # layers; with at most 16 open words, each of the three is also at
        # least the heaviest completion, so a cut never drops one that
        # beats the floor.
        alphabet, horizon = case
        search = MaskWalkSearch(alphabet, horizon)
        triples = search.triples
        for _ in range(data.draw(st.integers(0, 60))):
            assert_propagated(search)
            open_words = [i for i, value in enumerate(search.status) if not value]
            action = data.draw(st.sampled_from(["include", "exclude", "undo"]))
            if action == "undo" or not open_words:
                if search.trail:
                    search._undo()
                continue
            # Often one of the first open words, as the search decides them.
            idx = data.draw(st.sampled_from(open_words[:3]) | st.sampled_from(open_words))
            if action == "exclude":
                search._exclude(idx)
            elif not search._include(idx):
                # The search never bounds a contradiction: it undoes it.
                search._undo()
                continue
            bounds = _refined_bounds(search)
            capped = bounds[0]
            assert search.capped == capped
            args = scan_args(search)
            floors = {data.draw(st.integers(-1, capped))}
            floors.update(b + d for b in bounds if b is not None for d in (-1, 0))
            for floor in floors:
                assert bound_weight_by_scan(*args, floor) == _expected_bound(bounds, floor)
            if len(open_words) - 1 > 16:
                continue
            best = _best_completion(search, triples)
            assert all(b >= best for b in bounds if b is not None)
            for floor in [best - 1, data.draw(st.integers(best - 1, max(best - 1, capped)))]:
                bound = bound_weight_by_scan(*args, floor)
                assert bound >= best
                if best > floor:
                    assert bound > floor
        assert_propagated(search)


@pytest.mark.ci_profile
class TestChainRelaxation:
    @staticmethod
    def _relaxation_max(q, horizon, included, cap, low, linking) -> int:
        """The maximum of the final layers plus sum x(L) q**(N-L) over every
        count x(L) in [0, cap[L]] of each layer L >= low, with
        x(L) + f x(L - m) <= q**L wherever L - m >= low too: an exhaustive
        dynamic programme along each chain, best[L][x] being the heaviest
        counts of the chain up to L with x(L) = x."""
        weight = [q ** (horizon - n) for n in range(horizon + 1)]
        total = sum(included[n] * weight[n] for n in range(1, low))
        best = {}
        for n in range(low, horizon + 1):
            if linking and n - linking[0] >= low:
                m, f = linking
                # prefix[k]: the best of the chain up to n - m with x <= k.
                prefix = list(best.pop(n - m))
                for k in range(1, len(prefix)):
                    prefix[k] = max(prefix[k], prefix[k - 1])
                best[n] = [
                    x * weight[n] + prefix[min(len(prefix) - 1, (q**n - x) // f)]
                    for x in range(cap[n] + 1)
                ]
            else:
                best[n] = [x * weight[n] for x in range(cap[n] + 1)]
        return total + sum(max(row) for row in best.values())

    @settings(deadline=None)
    @given(data=st.data())
    def test_greedy_chain_is_the_maximum(self, data):
        # Random counts over up to three symbols: final layers below n0 <= 4,
        # up to four open layers from n0, and 2 n0 > N so that G is not
        # tried.  At floor = capped - 1 the bound is the chain (or the
        # capped layers, when the chain takes nothing off them), which
        # must equal the exhaustive maximum of the one-chain relaxation.
        q = data.draw(st.integers(1, 3))
        low = data.draw(st.integers(1, 4))
        horizon = data.draw(st.integers(low, min(2 * low - 1, low + 3)))
        included = [0] * (horizon + 1)
        undecided = [0] * (horizon + 1)
        for n in range(1, horizon + 1):
            size = q**n
            included[n] = data.draw(st.integers(0, size - (n == low)))
            if n >= low:
                undecided[n] = data.draw(
                    st.integers(n == low, size - included[n])
                )
        cap = [inc + und for inc, und in zip(included, undecided)]
        weight = _weights(q, horizon)
        capped = sum(cap[n] * weight[n] for n in range(1, horizon + 1))
        linking = _heaviest_linking_layer(included, weight, low)
        relaxed = self._relaxation_max(q, horizon, included, cap, low, linking)
        assert relaxed == _chain(weight[::-1], weight, included, cap, low, linking)
        assert bound_weight_by_scan(included, undecided, weight, capped - 1) == relaxed


def _state(search: _Search) -> tuple:
    """The fields that the search and the mask walk share."""
    return (
        list(search.status), list(search.included), list(search.cap), search.capped,
    )


def _members_by_status(search: _Search) -> list[list[int]]:
    """The ranks of the words in, per layer, ascending, from the statuses."""
    members = [[] for _ in search.members]
    for idx, st in enumerate(search.status):
        if st == 1:
            n = search.length[idx]
            members[n].append(idx - search.offset[n])
    return members


class TestSearchState:
    @pytest.mark.parametrize("alphabet,horizon,seed", [
        (AB, 5, 1), (AB, 5, 2), (ABC, 3, 1), (ABC, 3, 2),
    ])
    def test_random_walk_keeps_the_invariants(self, alphabet, horizon, seed):
        # Inclusions in any order, so on the mask walk, which takes them.
        rng = random.Random(seed)
        search = MaskWalkSearch(alphabet, horizon)
        triples = search.triples
        initial = _state(search)

        def check():
            # A contradiction stays on the trail until it is undone, and
            # its inclusion stopped forcing words out; every other state
            # keeps propagation's invariant.
            if all(
                any(search.status[i] != 1 for i in members)
                for members in triples
            ):
                assert_propagated(search)
            no_out = sum(
                1 << t for t, members in enumerate(triples)
                if all(search.status[i] != 2 for i in members)
            )
            assert search.alive == no_out
            # Every count, recomputed from the statuses.
            counts = {st: [0] * (horizon + 1) for st in (0, 1, 2)}
            for st, n in zip(search.status, search.length):
                counts[st][n] += 1
            assert search.included == counts[1]
            assert search.cap == [i + o for i, o in zip(counts[1], counts[0])]
            assert search.capped == sum(
                c * w for c, w in zip(search.cap, search.layer_weight)
            )

        for _ in range(300):
            open_words = [i for i, st in enumerate(search.status) if st == 0]
            if open_words and (not search.trail or rng.random() < 0.6):
                idx = rng.choice(open_words)
                if rng.random() < 0.5:
                    ok = search._include(idx)
                    # False exactly when some triple through idx now has
                    # every member in (x.x = z with z in, when x comes in).
                    assert ok == all(
                        any(search.status[i] != 1 for i in members)
                        for members in triples if idx in members
                    )
                else:
                    search._exclude(idx)
            else:
                search._undo()
            check()
        while search.trail:
            search._undo()
        assert _state(search) == initial

    def test_square_of_an_included_word_is_a_contradiction(self):
        search = MaskWalkSearch(AB, 2)
        assert search._include(2)  # aa
        assert not search._include(0)  # a, and a.a = aa

    # Named ids, so that re-pinning a count does not rename the test.
    @pytest.mark.parametrize("alphabet,horizon,nodes", [
        (AB, 4, 37), (AB, 5, 59), (ABC, 3, 13),
    ], ids=["ab-4", "ab-5", "abc-3"])
    def test_node_counts(self, alphabet, horizon, nodes):
        assert max_productfree(alphabet, horizon).nodes == nodes

    def test_mask_budget(self):
        # ab N=12 has 8190 words x 81924 triples > 2**28 (word, triple)
        # pairs, and is refused before the search state is built.
        with pytest.raises(ValueError, match="enumeration budget"):
            max_productfree(AB, 12, node_budget=1)
        assert not max_productfree(AB, 11, node_budget=1).proved


def _draw_in_order(search: _Search, action: str, open_words: list[int], data) -> int:
    """An open word to decide in the search's order: any one to exclude,
    and one of the lowest open layer to include, no longer word being in."""
    if action == "include":
        low = search.length[open_words[0]]
        assert not any(search.included[low + 1:])
        open_words = [i for i in open_words if search.length[i] == low]
    return data.draw(st.sampled_from(open_words[:3]) | st.sampled_from(open_words))


@pytest.mark.ci_profile
class TestIncludeAgainstTheMaskWalk:
    @settings(deadline=None)
    @given(
        case=st.sampled_from([
            (AB, 1), (AB, 2), (AB, 3), (AB, 4), (AB, 5),
            (ABC, 2), (ABC, 3), (Alphabet("a"), 6), (Alphabet("abcd"), 2),
        ]),
        data=st.data(),
    )
    def test_matches_the_mask_walk(self, case, data):
        # A random walk of inclusions, exclusions and undos in the search's
        # order, run in lockstep on the search and on the oracle, which
        # meets no contradiction on it.
        alphabet, horizon = case
        search = _Search(alphabet, horizon, node_budget=0)
        oracle = MaskWalkSearch(alphabet, horizon)
        for _ in range(data.draw(st.integers(0, 80))):
            open_words = [i for i, value in enumerate(search.status) if not value]
            action = data.draw(st.sampled_from(["include", "exclude", "undo"]))
            if action == "undo" or not open_words:
                if search.trail:
                    search._undo()
                    oracle._undo()
            else:
                idx = _draw_in_order(search, action, open_words, data)
                if action == "exclude":
                    search._exclude(idx)
                    oracle._exclude(idx)
                else:
                    search._include(idx)
                    assert oracle._include(idx)
            assert _state(search) == _state(oracle)
            assert [sorted(row) for row in search.members] == _members_by_status(search)


class TestKeptBoundState:
    """capped, kept on the trail, and the frame, kept down the recursion,
    against the bound that scans every layer at every call."""

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(
        case=st.sampled_from(
            [(AB, horizon) for horizon in range(1, 7)]
            + [(ABC, horizon) for horizon in range(1, 5)]
        ),
        data=st.data(),
    )
    def test_matches_the_stateless_oracle(self, case, data):
        # A random walk of inclusions, exclusions and undos in the search's
        # order, each step keeping the frame as _dfs does: its parent's,
        # rebuilt only once the frame's lowest open layer is final.  After
        # every step capped is the weight of the capped layers, the frame
        # is the one built from scratch, and the bound is the oracle's at
        # the floors just below and at the capped layers, the chain and G.
        alphabet, horizon = case
        search = _Search(alphabet, horizon, node_budget=0)
        frames = [search._frame(1)]
        for _ in range(data.draw(st.integers(0, 60))):
            open_words = [i for i, value in enumerate(search.status) if not value]
            action = data.draw(st.sampled_from(["include", "exclude", "undo"]))
            if action == "undo" or not open_words:
                if search.trail:
                    search._undo()
                    frames.pop()
            else:
                idx = _draw_in_order(search, action, open_words, data)
                if action == "exclude":
                    search._exclude(idx)
                else:
                    search._include(idx)
                frame = frames[-1]
                if search.cap[frame[0]] == search.included[frame[0]]:
                    frame = search._frame(frame[0])
                frames.append(frame)
            assert search.capped == sum(
                c * w for c, w in zip(search.cap, search.layer_weight)
            )
            assert frames[-1] == search._frame(1)
            bounds = _refined_bounds(search)
            for floor in {b + d for b in bounds if b is not None for d in (-1, 0)}:
                assert search._bound(frames[-1], floor) == bound_weight_by_scan(
                    *scan_args(search), floor
                )

    @pytest.mark.parametrize("alphabet,horizon,nodes", [
        (AB, 6, 1239), (ABC, 4, 959), (ABCD, 4, 125953),
    ], ids=["ab-6", "abc-4", "abcd-4"])
    def test_cut_decisions_match_the_oracle_at_every_node(
        self, monkeypatch, alphabet, horizon, nodes
    ):
        # The proof from the top-layer seed, with the bound that _dfs calls
        # at each node checked at that node's state and floor: the frame
        # _dfs kept is the one built from scratch, and the bound, so the
        # cut decision, is the oracle's.
        bound = _Search._bound
        cuts = []

        def checked(search, frame, floor):
            value = bound(search, frame, floor)
            assert frame == search._frame(1)
            assert value == bound_weight_by_scan(*scan_args(search), floor)
            cuts.append(value <= floor)
            return value

        monkeypatch.setattr(_Search, "_bound", checked)
        r = max_productfree(alphabet, horizon)
        assert r.proved
        assert r.nodes == nodes == len(cuts)
        assert any(cuts) and not all(cuts)


def _scan_order(alphabet: Alphabet, horizon: int) -> list[tuple[int, int, int]]:
    """Every product triple (x, y, z), with z descending and then the split
    |x| ascending: the order in which the search looks for a live one."""
    return sorted(product_triples(alphabet, horizon), key=lambda t: (-t[2], t[0]))


def _first_live(search: _Search, order: list[tuple[int, int, int]]):
    """The first triple of order with no member OUT, as (x, y, z, |x|), or
    None."""
    status = search.status
    for x, y, z in order:
        if status[x] != 2 and status[y] != 2 and status[z] != 2:
            return x, y, z, search.length[x]
    return None


def _watched(search: _Search, watch):
    """The triple a node watches given its parent's, as _dfs decides it:
    the parent's while none of its members is OUT, else the next live one
    after it, None for a leaf and below it."""
    if watch is None:
        return None
    x, y, z, m = watch
    status = search.status
    if not m or status[x] == 2 or status[y] == 2 or status[z] == 2:
        return search._live(z, m)
    return watch


class TestWatchedTriple:
    """The leaf test from one watched live triple, against the bitmask of
    live triples and against a scan of every triple."""

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(
        case=st.sampled_from(
            [(AB, horizon) for horizon in range(1, 7)]
            + [(ABC, horizon) for horizon in range(1, 4)]
            + [(Alphabet("a"), 6), (Alphabet("abcd"), 2)]
        ),
        in_order=st.booleans(),
        data=st.data(),
    )
    def test_matches_the_mask_walk(self, case, in_order, data):
        # A random walk of inclusions, exclusions and undos on the mask
        # walk, in the search's order or in any order, each step keeping
        # the watched triple as _dfs does: its parent's, rescanned from
        # after it once a member is OUT.  After every step the watch is None
        # exactly when no triple is live, and otherwise a triple x.y = z
        # with |x| = m, no member OUT, and the first such in the scan order.
        alphabet, horizon = case
        search = MaskWalkSearch(alphabet, horizon)
        order = _scan_order(alphabet, horizon)
        watches = [_watched(search, (0, 0, search.nitems - 1, 0))]
        for _ in range(data.draw(st.integers(0, 60))):
            open_words = [i for i, value in enumerate(search.status) if not value]
            action = data.draw(st.sampled_from(["include", "exclude", "undo"]))
            if action == "undo" or not open_words:
                if search.trail:
                    search._undo()
                    watches.pop()
            else:
                if in_order:
                    idx = _draw_in_order(search, action, open_words, data)
                else:
                    idx = data.draw(st.sampled_from(open_words))
                if action == "exclude":
                    search._exclude(idx)
                elif not search._include(idx):
                    # A contradiction, out of the search's order: the
                    # search would undo it.
                    search._undo()
                    continue
                watches.append(_watched(search, watches[-1]))
            watch = watches[-1]
            assert (watch is None) == (search.alive == 0)
            assert watch == _first_live(search, order)
            if watch is not None:
                x, y, z, m = watch
                words = [unrank(alphabet, *search.items[i]) for i in (x, y, z)]
                assert words[0].indices + words[1].indices == words[2].indices
                assert len(words[0]) == m
                assert all(search.status[i] != 2 for i in (x, y, z))

    @pytest.mark.parametrize("alphabet,horizon,nodes", [
        (AB, 6, 1239), (ABC, 4, 959),
    ], ids=["ab-6", "abc-4"])
    def test_leaf_decisions_match_a_full_scan_at_every_node(
        self, monkeypatch, alphabet, horizon, nodes
    ):
        # The proof from the top-layer seed, with every node's watched
        # triple checked: the triple a child inherits is its parent's
        # decision, which must be the first live triple at the parent by a
        # scan of every triple, and a node that records a completion, a
        # leaf, must have none.  So every leaf test the search makes is the
        # one the bitmask of live triples would make.
        dfs, record = _Search._dfs, _Search._record_completion
        order = _scan_order(alphabet, horizon)
        path = []
        seen = leaves = 0

        def checked_dfs(search, cursor, lex, frame, watch):
            nonlocal seen
            seen += 1
            if path:
                assert watch == path[-1]
            else:
                assert watch[3] == 0
            path.append(_first_live(search, order))
            try:
                dfs(search, cursor, lex, frame, watch)
            finally:
                path.pop()

        def checked_record(search):
            nonlocal leaves
            assert path[-1] is None
            leaves += 1
            record(search)

        monkeypatch.setattr(_Search, "_dfs", checked_dfs)
        monkeypatch.setattr(_Search, "_record_completion", checked_record)
        r = max_productfree(alphabet, horizon)
        assert r.proved
        assert r.nodes == nodes == seen
        assert leaves > 0


def test_proved_optimum_at_horizon_seven():
    r = max_productfree(AB, 7)
    assert r.value == Fraction(4, 7)
    assert r.proved
    assert r.nodes == 1475
    assert check_explicit(r.best) is None


# sha256 of write_explicit(best), with the value, of every proved run,
# frozen from the search before it broke symmetries (abc N=4: before the
# bound let the lowest open layer's count vary, in 1,433,539 nodes; abc N=5
# and abcd N=4: before the chain bound, in 1,475 and 126,933 nodes; abcd
# N=5 and abcde N=3: while the bound still kept pairwise caps beside
# propagation, in the same node counts): no cut may move the DFS-first
# optimum.  Node counts are those of the search with every cut, from the
# top-layer seed.
FROZEN_WITNESSES = [
    ("ab", 1, "1", 1, "74103c1ed7f8bf423a119822eaefeedb9981df946736ab4e583036811f44bad6"),
    ("ab", 2, "5/8", 5, "bc0500199119ba32966a203891f54237ac73ff323532a04e2db8e08ad7fc658b"),
    ("ab", 3, "2/3", 7, "7167544752c694705693bc22853cb257f14a637d348398d7e53b7f667c596c9b"),
    ("ab", 4, "9/16", 37, "1275c288957bfc9c242292b716857b2b968de30ddeecb3d24e20a2ca89f558aa"),
    ("ab", 5, "3/5", 59, "ff431122cbfe1a1c78443f5109b45eaed53d514cd1bc36ec98d482b4346a89cc"),
    ("ab", 6, "13/24", 1239, "7103d80cf89011d0cf274ec09abe2eb8314e80a1e976aaaa973f2e27da333457"),
    ("ab", 7, "4/7", 1475, "e3ea2e78a86c8d57d5a088b6e77260f9d3c1636e74b402949ae9fee4f2e2fdf3"),
    ("abc", 1, "1", 1, "a5168015dc1d0d71e454d3e8540e8fb5e65beabd7b2d413d4de4fb0f37f2cb09"),
    ("abc", 2, "11/18", 7, "c95b6963a03c50e1010a29389fe1fbce34711e4d1c0552a8242bde9fc2386c57"),
    ("abc", 3, "2/3", 13, "68f4d409c37912fae35b43d1ccbe5badb9ce8824eeac74ef77f56d6086c7494a"),
    ("abc", 4, "91/162", 959, "2f75a50b62161d53ade4bc8a393c1005f595bb824edeb0f67a2df5debaaf54ad"),
    ("abc", 5, "3/5", 605, "bf5fd108d3e02a16591fa5f5ce18d5f63f3d9d1c995c068f84bfaf7fbe368dbf"),
    ("abcd", 2, "5/8", 9, "98227128a69748acd331aec8b682e5fb56156481114288627639af84a469bc36"),
    ("abcd", 4, "9/16", 125953, "63b6a9f87d0605ada70da9229654ca2746def1cb2dcffcbed6334a1384ff8cac"),
    ("abcd", 5, "3/5", 67221, "e83165b54a3161c8d1bad92d142573873088fe8ffb61137cc8013e9e3e22cf3a"),
    ("abcde", 3, "2/3", 31, "e2d1826820e413de501439e13346a41af8bf4bf14e645b49c5e9dd77f17f943c"),
    ("a", 6, "1/2", 7, "85af8b1337ed876f9ed40d60d7af36c5cb2d05cd3ebfaed80c83c08741172947"),
]


@pytest.mark.parametrize(
    "symbols,horizon,value,nodes,digest", FROZEN_WITNESSES,
    ids=[f"{symbols}-{horizon}" for symbols, horizon, _, _, _ in FROZEN_WITNESSES],
)
def test_proved_witnesses_are_frozen(symbols, horizon, value, nodes, digest):
    r = max_productfree(Alphabet(symbols), horizon)
    assert r.proved
    assert r.value == Fraction(value)
    assert hashlib.sha256(write_explicit(r.best).encode()).hexdigest() == digest
    assert r.nodes == nodes


# The same for runs the node budget stops: the anytime result depends on
# the exact order in which nodes are met, not only on the optimum.
FROZEN_CAPPED = [
    ("ab", 8, 30_000, "17/32", "9a7a105531450bcfc713a8f7955860077a17dc7b6012e3f33f59a0429c6862d5"),
    ("abc", 4, 500, "91/162", "1b4416db03c4b53932d559cd3e602b5a0c6217c262f47c81db36521a5ea41efb"),
]


@pytest.mark.parametrize(
    "symbols,horizon,budget,value,digest", FROZEN_CAPPED,
    ids=[f"{s}-{h}-b{b}" for s, h, b, *_ in FROZEN_CAPPED],
)
def test_capped_results_are_frozen(symbols, horizon, budget, value, digest):
    r = max_productfree(Alphabet(symbols), horizon, node_budget=budget)
    assert not r.proved
    assert r.nodes == budget + 1
    assert r.value == Fraction(value)
    assert hashlib.sha256(write_explicit(r.best).encode()).hexdigest() == digest


def _word_map(alphabet, horizon, perm, reverse):
    """A symmetry as per-layer rank tables, through Word objects."""
    tables = [[0]]
    for n in range(1, horizon + 1):
        row = []
        for r in range(alphabet.q**n):
            digits = [perm[c] for c in unrank(alphabet, n, r).indices]
            if reverse:
                digits.reverse()
            row.append(rank(Word(alphabet, tuple(digits))))
        tables.append(row)
    return tables


class TestSymmetryMaps:
    @pytest.mark.parametrize("symbols,horizon", [
        ("a", 1), ("a", 5), ("ab", 1), ("ab", 2), ("ab", 4), ("abc", 1),
        ("abc", 3), ("abcd", 1), ("abcd", 2),
    ])
    def test_maps_are_the_distinct_nontrivial_swaps_and_reversals(
        self, symbols, horizon
    ):
        alphabet = Alphabet(symbols)
        q = alphabet.q
        maps = _symmetry_maps(q, horizon)
        identity = list(range(q))
        swaps = []
        for c in range(q - 1):
            perm = list(identity)
            perm[c], perm[c + 1] = perm[c + 1], perm[c]
            swaps.append(perm)
        expected = []
        for perm, reverse in [(p, False) for p in swaps] + [
            (p, True) for p in [identity] + swaps
        ]:
            tables = _word_map(alphabet, horizon, perm, reverse)
            if tables != _word_map(alphabet, horizon, identity, False) and (
                tables not in expected
            ):
                expected.append(tables)
        assert maps == expected
        for i, tables in enumerate(maps):
            assert tables not in maps[:i]
            assert any(row != list(range(len(row))) for row in tables)
        # One letter: no swaps, and the reversal is the identity.  On the
        # first layer the reversal is the identity too; past it, all 2q - 1
        # candidates differ.
        assert len(maps) == (2 * q - 1 if q >= 2 and horizon >= 2 else q - 1)

    @pytest.mark.parametrize("symbols,horizon", [
        ("ab", 4), ("abc", 3), ("abcd", 2),
    ])
    def test_bijections_of_the_ball_that_keep_products(self, symbols, horizon):
        alphabet = Alphabet(symbols)
        items = _universe(alphabet, horizon)
        index = {item: i for i, item in enumerate(items)}
        triples = product_triples(alphabet, horizon)
        triple_set = set(triples)
        for tables in _symmetry_maps(alphabet.q, horizon):
            image = [index[(n, tables[n][r])] for n, r in items]
            assert sorted(image) == list(range(len(items)))
            assert all(items[image[i]][0] == n for i, (n, _) in enumerate(items))
            for x, y, z in triples:
                x2, y2, z2 = image[x], image[y], image[z]
                assert (x2, y2, z2) in triple_set or (y2, x2, z2) in triple_set

    @pytest.mark.parametrize("symbols,horizon", [("ab", 5), ("abc", 3), ("abcd", 3)])
    def test_reversal_agrees_with_reversed_rank(self, symbols, horizon):
        alphabet = Alphabet(symbols)
        reversal = [[0]] + [
            [rank(Word(alphabet, unrank(alphabet, n, r).indices[::-1]))
             for r in range(alphabet.q**n)]
            for n in range(1, horizon + 1)
        ]
        assert reversal in _symmetry_maps(alphabet.q, horizon)
