"""Towers, log*, recurrences, and the exact bound expressions."""

from __future__ import annotations

import pytest

from repro.arrow import arrow_vs_tsp
from repro.bounds import (
    ab_trajectory,
    binary_tree_queuing_bound,
    constant_degree_queuing_bound,
    f_recurrence,
    list_queuing_bound,
    log_star,
    mary_tree_queuing_bound,
    min_latency_for_count,
    theorem35_lower_bound,
    theorem36_lower_bound,
    tow,
    verify_ab_tower_bound,
    verify_f_bound,
)
from repro.bounds.towers import TOW_MAX_EXACT
from repro.topology import path_graph
from repro.topology.spanning import path_spanning_tree


class TestTow:
    def test_values(self):
        assert [tow(j) for j in range(5)] == [1, 2, 4, 16, 65536]

    def test_tow5_bit_length(self):
        assert tow(5).bit_length() == 65537

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tow(-1)

    def test_too_tall_rejected(self):
        with pytest.raises(ValueError):
            tow(TOW_MAX_EXACT + 1)


class TestLogStar:
    @pytest.mark.parametrize(
        "k,expected",
        [
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (16, 3),
            (17, 4),
            (65536, 4),
            (65537, 5),
        ],
    )
    def test_integer_boundaries(self, k, expected):
        assert log_star(k) == expected

    def test_tower_boundaries_exact(self):
        for i in range(1, 6):
            assert log_star(tow(i)) == i
            assert log_star(tow(i) + 1) == i + 1

    def test_floats(self):
        assert log_star(1.0) == 0
        assert log_star(2.0) == 1
        assert log_star(16.5) == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            log_star(0)
        with pytest.raises(ValueError):
            log_star(-3.0)


class TestRecurrences:
    def test_ab_start(self):
        a, b = ab_trajectory(3)
        assert a[0] == b[0] == 1
        assert a[1] == 2 and b[1] == 3
        assert a[2] == 2 + 4 * 3 and b[2] == 3 * 5

    def test_ab_dominated_by_tower(self):
        assert verify_ab_tower_bound(4)

    def test_ab_rejects_big_t(self):
        with pytest.raises(ValueError):
            ab_trajectory(6)
        with pytest.raises(ValueError):
            ab_trajectory(-1)

    def test_f_values(self):
        assert [f_recurrence(k) for k in range(5)] == [0, 2, 8, 22, 52]

    def test_f_closed_form(self):
        # f(k) = 2^(k+2) - 2k - 4 solves the recurrence exactly.
        for k in range(20):
            assert f_recurrence(k) == (1 << (k + 2)) - 2 * k - 4

    def test_f_bound_lemma48(self):
        assert verify_f_bound(100)

    def test_f_invalid(self):
        with pytest.raises(ValueError):
            f_recurrence(-1)


class TestCountingLowerBounds:
    def test_min_latency_values(self):
        assert min_latency_for_count(1) == 0
        assert min_latency_for_count(2) == 1
        assert min_latency_for_count(4) == 1
        assert min_latency_for_count(5) == 2
        assert min_latency_for_count(65536) == 2
        assert min_latency_for_count(65537) == 3

    def test_min_latency_invalid(self):
        with pytest.raises(ValueError):
            min_latency_for_count(0)

    def test_theorem35_small_values(self):
        # n=1: count 1, latency 0.
        assert theorem35_lower_bound(1) == 0
        # n=2: counts {1,2}: latencies 0 + 1.
        assert theorem35_lower_bound(2) == 1
        # n=4: counts 1..4 -> 0+1+1+1 = 3.
        assert theorem35_lower_bound(4) == 3
        # n=5: adds count 5 at latency 2.
        assert theorem35_lower_bound(5) == 5

    def test_theorem35_block_sum_matches_naive(self):
        for n in (1, 2, 7, 16, 65, 300):
            naive = sum(min_latency_for_count(k) for k in range(1, n + 1))
            assert theorem35_lower_bound(n) == naive

    def test_theorem35_partial_requesters(self):
        assert theorem35_lower_bound(10, requesters=3) == sum(
            min_latency_for_count(k) for k in range(1, 4)
        )
        with pytest.raises(ValueError):
            theorem35_lower_bound(4, requesters=9)

    def test_theorem35_superlinear(self):
        # the bound per operation grows like log*: check n log* n shape
        lb_small = theorem35_lower_bound(64)
        lb_big = theorem35_lower_bound(128)
        assert lb_big > 2 * lb_small * 0.9  # ~linear or a bit more

    def test_theorem36(self):
        assert theorem36_lower_bound(0) == 0
        assert theorem36_lower_bound(2) == 1
        assert theorem36_lower_bound(10) == 15
        m = 50
        assert theorem36_lower_bound(100) == m * (m + 1) // 2

    def test_theorem36_invalid(self):
        with pytest.raises(ValueError):
            theorem36_lower_bound(-1)


class TestQueuingUpperBounds:
    def test_arrow_upper_bound_is_twice_tour(self):
        cmp = arrow_vs_tsp(path_spanning_tree(path_graph(16)), range(16))
        assert cmp.tsp_cost == 15
        assert cmp.within_theorem41

    def test_family_bounds(self):
        assert list_queuing_bound(10) == 60
        assert binary_tree_queuing_bound(15) == 2 * (24 + 120)
        assert mary_tree_queuing_bound(13, 3) > 0
        assert constant_degree_queuing_bound(16) == 2 * 5 * 15
