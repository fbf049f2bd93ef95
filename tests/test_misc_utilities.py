"""Coverage for the smaller utility surfaces.

Metrics reduction, node helpers, table formatting, figure generation and
graph-property edge cases.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.figures import ALL_FIGURES, figure_latency_profiles, figure_separation_curve
from repro.sim.metrics import DelayRecorder
from repro.sim.node import Node
from repro.topology import (
    all_pairs_distances,
    bfs_distances,
    complete_graph,
    eccentricity,
    mesh_graph,
    path_graph,
)
from repro.topology.base import Graph


class TestMetrics:
    def test_recorder_accessors(self):
        rec = DelayRecorder()
        rec.record("x", 5, result=42, at_node=1)
        assert "x" in rec and len(rec) == 1
        assert rec.delay_by_op() == {"x": 5} and rec.result_by_op() == {"x": 42}
        assert rec.records()[0].at_node == 1


class TestNodeHelpers:
    def test_node_repr(self):
        assert "node_id=3" in repr(Node(3))


class TestGraphProperties:
    def test_bfs_unreachable_marked(self):
        g = Graph({0: (), 1: ()}, name="disc")
        dist = bfs_distances(g, 0)
        assert dist[1] == -1

    def test_eccentricity_values(self):
        g = path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2

    def test_eccentricity_disconnected_raises(self):
        g = Graph({0: (), 1: ()}, name="disc")
        with pytest.raises(ValueError):
            eccentricity(g, 0)

    def test_all_pairs_symmetric(self):
        g = mesh_graph([3, 3])
        d = all_pairs_distances(g)
        assert (d == d.T).all()
        assert (d.diagonal() == 0).all()

    def test_degree_histogram_complete(self):
        degrees = Counter(len(nbrs) for nbrs in complete_graph(5).adj.values())
        assert degrees == {4: 5}


class TestFigures:
    def test_registry(self):
        assert set(ALL_FIGURES) == {"F1", "F2"}

    def test_f1_contains_monotone_ratios(self):
        text = figure_separation_curve(sizes=(8, 16))
        assert "F1" in text and "n=8" in text and "n=16" in text

    def test_f2_bounds_respected(self):
        text = figure_latency_profiles(n=16)
        assert "respected: True" in text
        assert text.count("respected: True") == 2
