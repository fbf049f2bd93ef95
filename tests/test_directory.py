"""The arrow distributed directory (find on tree, move on graph)."""

from __future__ import annotations

import random

import pytest

from repro.directory import run_object_directory
from repro.mutex import run_token_mutex
from repro.sim import EventTrace, UniformDelay
from repro.topology import complete_graph, mesh_graph, path_graph, ring_graph
from repro.topology.spanning import bfs_spanning_tree, path_spanning_tree


class TestBasics:
    def test_home_requester_acquires_at_zero(self):
        g = path_graph(5)
        out = run_object_directory(g, path_spanning_tree(g), [0])
        assert out.acquire_rounds[0] == 0

    def test_single_remote_requester(self):
        g = path_graph(6)
        out = run_object_directory(g, path_spanning_tree(g), [5])
        # find travels 5 hops, object travels 5 back
        assert out.acquire_rounds[5] == 10

    def test_all_acquire_in_order(self):
        g = mesh_graph([3, 3])
        out = run_object_directory(g, bfs_spanning_tree(g), range(9), use_rounds=2)
        assert sorted(out.order) == list(range(9))
        assert out.exclusive_holding()

    def test_use_rounds_spacing(self):
        g = path_graph(6)
        out = run_object_directory(g, path_spanning_tree(g), range(6), use_rounds=3)
        entries = sorted(out.acquire_rounds.values())
        assert all(b - a >= 3 for a, b in zip(entries, entries[1:]))

    def test_invalid_use_rounds(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            run_object_directory(g, path_spanning_tree(g), [1], use_rounds=-1)

    def test_custom_home(self):
        g = path_graph(5)
        out = run_object_directory(g, path_spanning_tree(g), [0, 4], home=4)
        assert out.order[0] == 4


class TestShortcutting:
    def test_direct_object_moves_beat_tree_walks(self):
        """On K_n with spread-out requesters the object takes 1-hop
        shortcuts while the token mutex must walk the tree."""
        g = complete_graph(32)
        st = path_spanning_tree(g)
        req = list(range(0, 32, 4))
        d = run_object_directory(g, st, req, use_rounds=1)
        m = run_token_mutex(st, req, cs_rounds=1)
        assert d.total_waiting < m.total_waiting

    def test_on_a_tree_graph_no_shortcut_exists(self):
        g = path_graph(16)
        st = path_spanning_tree(g)
        req = list(range(0, 16, 3))
        d = run_object_directory(g, st, req, use_rounds=1)
        m = run_token_mutex(st, req, cs_rounds=1)
        assert d.total_waiting == m.total_waiting


@pytest.mark.parametrize("cs", [0, 1, 2])
@pytest.mark.parametrize(
    "graph, tree, requests, tail",
    [
        (path_graph(9), path_spanning_tree, range(9), None),
        (complete_graph(9), bfs_spanning_tree, [1, 4, 5, 8], 4),
        (ring_graph(10), bfs_spanning_tree, range(0, 10, 3), 7),
        (mesh_graph([3, 4]), bfs_spanning_tree, range(12), 5),
    ],
    ids=["path", "K9", "ring", "mesh"],
)
def test_mutex_is_the_directory_on_its_tree(graph, tree, requests, tail, cs):
    """Token mutex and directory on G = T emit the same trace, byte for byte."""
    st = tree(graph)
    traces = EventTrace(), EventTrace()
    m = run_token_mutex(st, requests, cs_rounds=cs, tail=tail, trace=traces[0])
    d = run_object_directory(
        st.as_graph(), st, requests, use_rounds=cs, home=tail, trace=traces[1]
    )
    assert traces[0].to_json() == traces[1].to_json()
    assert m.entry_rounds == d.acquire_rounds


class TestRobustness:
    def test_random_instances(self):
        rng = random.Random(77)
        for trial in range(25):
            n = rng.randint(2, 24)
            g = rng.choice([complete_graph(n), path_graph(n)])
            st = bfs_spanning_tree(g, root=rng.randrange(n))
            req = rng.sample(range(n), rng.randint(1, n))
            out = run_object_directory(
                g, st, req, use_rounds=rng.randint(0, 2), home=rng.randrange(n)
            )
            assert sorted(out.order) == sorted(set(req))

    def test_correct_under_async_delays(self):
        g = mesh_graph([3, 4])
        out = run_object_directory(
            g,
            bfs_spanning_tree(g),
            range(12),
            delay_model=UniformDelay(1, 3, seed=9),
        )
        assert sorted(out.order) == list(range(12))
        assert out.exclusive_holding()

    def test_total_waiting_metric(self):
        g = path_graph(4)
        out = run_object_directory(g, path_spanning_tree(g), [1, 3])
        assert out.total_waiting == sum(out.acquire_rounds.values())


class TestHandOffPath:
    """The token's source route is the hop-by-hop routing table's path."""

    @pytest.mark.parametrize(
        "graph",
        [mesh_graph([4, 5]), ring_graph(9), complete_graph(6), path_graph(7),
         bfs_spanning_tree(mesh_graph([5, 5])).as_graph()],
        ids=lambda g: g.name,
    )
    def test_matches_next_hops_toward(self, graph):
        from repro.directory.protocol import hand_off_path
        from repro.topology import next_hops_toward

        for src in graph.vertices():
            for dest in graph.vertices():
                if src == dest:
                    continue
                hops, v = [], src
                while v != dest:
                    v = next_hops_toward(graph, dest)[v]
                    hops.append(v)
                assert hand_off_path(graph, src, dest) == hops, (src, dest)

    def test_unreachable_destination_raises(self):
        from repro.directory.protocol import hand_off_path
        from repro.topology.base import Graph

        g = Graph.from_edges(4, [(0, 1), (2, 3)], name="two-edges")
        with pytest.raises(ValueError, match="unreachable"):
            hand_off_path(g, 0, 3)
