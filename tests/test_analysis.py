"""Analysis package: rank-latency profiles, contention, ASCII charts."""

from __future__ import annotations

from repro.analysis import (
    ascii_bars,
    delay_histogram,
    latency_by_rank,
    sparkline,
)
from repro.counting import run_central_counting, run_flood_counting
from repro.topology import complete_graph, diameter, path_graph


class TestRankLatency:
    def test_profile_sorted_by_rank(self):
        g = complete_graph(12)
        r = run_flood_counting(g, range(12))
        prof = latency_by_rank(r, n=12, diameter=1)
        assert prof.ranks == tuple(range(1, 13))
        assert len(prof.delays) == 12
        assert prof.respects_bounds()

    def test_diameter_bounds_populated_when_all_count(self):
        g = path_graph(10)
        r = run_central_counting(g, range(10))
        prof = latency_by_rank(r, n=10, diameter=9)
        assert any(b > 0 for b in prof.diameter_bounds)
        assert prof.respects_bounds()

    def test_diameter_bounds_zero_for_subsets(self):
        g = path_graph(10)
        r = run_central_counting(g, [2, 7])
        prof = latency_by_rank(r, n=10, diameter=9)
        assert all(b == 0 for b in prof.diameter_bounds)

    def test_slack_nonnegative_everywhere(self):
        g = complete_graph(16)
        r = run_flood_counting(g, range(16))
        prof = latency_by_rank(r, n=16, diameter=diameter(g))
        assert all(s >= 0 for s in prof.slack())

    def test_high_ranks_need_more(self):
        """The general per-op bound is non-decreasing in rank."""
        g = complete_graph(20)
        r = run_flood_counting(g, range(20))
        prof = latency_by_rank(r)
        assert list(prof.general_bounds) == sorted(prof.general_bounds)


class TestContentionAndHistogram:
    def test_histogram_sums_to_count(self):
        rows = delay_histogram({i: i for i in range(25)}, bins=5)
        assert sum(c for _, c in rows) == 25

    def test_histogram_single_value(self):
        assert delay_histogram({0: 4, 1: 4}) == [("4", 2)]

    def test_histogram_empty(self):
        assert delay_histogram({}) == []


class TestCharts:
    def test_sparkline_monotone(self):
        s = sparkline([1, 2, 3, 4, 5])
        assert len(s) == 5
        assert s[0] != s[-1]

    def test_sparkline_flat(self):
        assert sparkline([7, 7, 7]) == "..."

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_sparkline_resampled(self):
        s = sparkline(list(range(100)), width=20)
        assert len(s) == 20

    def test_bars_render(self):
        out = ascii_bars([("a", 10.0), ("bb", 5.0), ("c", 0.0)], width=10)
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5
        assert "#" not in lines[2]

    def test_bars_mapping_input(self):
        out = ascii_bars({"x": 1.0, "y": 2.0})
        assert "x" in out and "y" in out

    def test_bars_empty(self):
        assert ascii_bars([]) == "(no data)"
