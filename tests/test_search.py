import random
from fractions import Fraction

import pytest

from prodfree.productfree import check_explicit
from prodfree.search import (
    _pair_caps,
    _Search,
    exhaustive_max_productfree,
    max_productfree,
    upper_bound,
)
from prodfree.words import Alphabet

AB = Alphabet("ab")
ABC = Alphabet("abc")


def recomputed_objective(result) -> Fraction:
    total = sum(
        Fraction(result.best.layer_count(n), result.best.alphabet.q**n)
        for n in range(1, result.horizon + 1)
    )
    return total / result.horizon if result.objective == "mean" else total


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
        assert [w.text for w in r.best.words()] == ["a", "b"]

    def test_n2_five_eighths(self):
        r = max_productfree(AB, 2)
        assert r.value == Fraction(5, 8)
        assert [w.text for w in r.best.words()] == ["a", "ab", "ba", "bb"]

    def test_n3_regression(self):
        r = max_productfree(AB, 3)
        assert r.value == Fraction(2, 3)
        assert r.proved

    def test_total_objective_scales(self):
        mean = max_productfree(AB, 3, objective="mean")
        total = max_productfree(AB, 3, objective="total")
        assert total.value == mean.value * 3

    def test_bad_objective(self):
        with pytest.raises(ValueError, match="objective"):
            max_productfree(AB, 2, objective="median")


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
        # The seed incumbent (odd-length truncation) is still reported.
        assert r.value >= Fraction(1, 2)


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
        included = [0, 2, 0]
        undecided = [0, 0, 4]
        assert upper_bound(AB, 2, included, undecided) <= Fraction(1, 2)

    def test_admissible_on_partial_assignments(self):
        # Against the exhaustive optimum of every completion: fix S(1) = {a}.
        included = [0, 1, 0]
        undecided = [0, 0, 4]
        bound = upper_bound(AB, 2, included, undecided)
        # Best completion is {a} plus {ab, ba, bb}: value 5/8.
        assert bound >= Fraction(5, 8)


def _state(search: _Search) -> tuple:
    return (
        list(search.status), search.alive, list(search.included),
        list(search.undecided), list(search.pair), search.weight_in,
        search.weight_open,
    )


class TestSearchState:
    @pytest.mark.parametrize("alphabet,horizon,seed", [
        (AB, 5, 1), (AB, 5, 2), (ABC, 3, 1), (ABC, 3, 2),
    ])
    def test_random_walk_keeps_the_invariants(self, alphabet, horizon, seed):
        rng = random.Random(seed)
        search = _Search(alphabet, horizon, node_budget=0)
        initial = _state(search)
        trails = []

        def check():
            assert search.pair == _pair_caps(search.sizes, search.included)
            no_out = sum(
                1 << t for t, members in enumerate(search.triples)
                if all(search.status[i] != 2 for i in members)
            )
            assert search.alive == no_out

        for _ in range(300):
            open_words = [i for i, st in enumerate(search.status) if st == 0]
            if open_words and (not trails or rng.random() < 0.6):
                idx = rng.choice(open_words)
                trail = []
                if rng.random() < 0.5:
                    search._include(idx, trail)
                else:
                    search._exclude(idx, trail)
                trails.append(trail)
            else:
                search._undo(trails.pop())
            check()
        while trails:
            search._undo(trails.pop())
        assert _state(search) == initial

    @pytest.mark.parametrize("alphabet,horizon,nodes", [
        (AB, 4, 551), (AB, 5, 629), (ABC, 3, 71),
    ])
    def test_node_counts(self, alphabet, horizon, nodes):
        assert max_productfree(alphabet, horizon).nodes == nodes

    def test_mask_budget(self):
        # ab N=12 would need 8190 words x 81924 triples > 2**28 mask bits.
        with pytest.raises(ValueError, match="enumeration budget"):
            max_productfree(AB, 12, node_budget=1)
        assert not max_productfree(AB, 11, node_budget=1).proved


def test_proved_optimum_at_horizon_seven():
    r = max_productfree(AB, 7)
    assert r.value == Fraction(4, 7)
    assert r.proved
    assert r.nodes == 394101
    assert check_explicit(r.best) is None
