"""Adversarial request-set search and runner-level failure injection."""

from __future__ import annotations

import pytest

from repro.arrow import run_arrow
from repro.core.adversary import adversarial_search
from repro.core.request import exhaustive_request_sets
from repro.core.verify import VerificationError
from repro.counting import run_central_counting
from repro.topology import complete_graph, path_graph, star_graph
from repro.topology.spanning import path_spanning_tree, star_spanning_tree


class TestAdversarialSearch:
    def test_matches_exhaustive_on_tiny_star(self):
        g = star_graph(6)

        def cost(req):
            return run_central_counting(g, req).total_delay

        truth = max(cost(r) for r in exhaustive_request_sets(6))
        found = adversarial_search(g, cost, max_evaluations=200)
        assert found.best_total == truth

    def test_matches_exhaustive_on_tiny_path_arrow(self):
        g = path_graph(6)
        st = path_spanning_tree(g)

        def cost(req):
            return run_arrow(st, req, capacity=1).total_delay

        truth = max(cost(r) for r in exhaustive_request_sets(6))
        found = adversarial_search(g, cost, max_evaluations=250)
        assert found.best_total == truth

    def test_structured_scenarios_are_strong_on_star(self):
        """On the star, all-nodes should already be (near) worst-case."""
        g = star_graph(12)

        def cost(req):
            return run_central_counting(g, req).total_delay

        found = adversarial_search(g, cost, max_evaluations=120)
        all_total = cost(list(range(12)))
        assert found.best_total <= all_total * 1.05  # no big win over R=V

    def test_deterministic(self):
        g = complete_graph(8)

        def cost(req):
            return run_central_counting(g, req).total_delay

        a = adversarial_search(g, cost, max_evaluations=60)
        b = adversarial_search(g, cost, max_evaluations=60)
        assert a == b

    def test_respects_budget(self):
        g = path_graph(8)
        calls = 0

        def cost(req):
            nonlocal calls
            calls += 1
            return len(req)

        adversarial_search(g, cost, max_evaluations=10)
        assert calls <= 10

    def test_custom_seeds(self):
        g = path_graph(6)

        def cost(req):
            return sum(req)

        found = adversarial_search(g, cost, seeds=[[0], [5]], max_evaluations=50)
        assert found.best_total >= 5


class TestFailureInjection:
    """Corrupt a protocol and confirm the runner's verifier catches it."""

    def test_broken_central_counter_is_caught(self, monkeypatch):
        from repro.counting import central as central_mod

        original = central_mod._CentralNode._value

        def broken(self, origin, increment):
            self.total += 1  # double-increment: counts get holes
            return original(self, origin, increment)

        monkeypatch.setattr(central_mod._CentralNode, "_value", broken)
        with pytest.raises(VerificationError):
            run_central_counting(star_graph(6), range(6))

    def test_broken_sweep_is_caught(self, monkeypatch):
        from repro.counting import sweep as sweep_mod
        from repro.counting.sweep import run_sweep_counting

        original = sweep_mod._SweepNode._pass

        def broken(self, carried, ctx):
            if self.mode == "count" and self.requesting and carried == 2:
                carried = 7  # skip values
            original(self, carried, ctx)

        monkeypatch.setattr(sweep_mod._SweepNode, "_pass", broken)
        with pytest.raises(VerificationError):
            run_sweep_counting(path_graph(5), range(5))

    def test_broken_arrow_order_is_caught(self):
        """A predecessor map with a fork fails queuing verification."""
        from repro.core.verify import verify_queuing

        g = star_graph(5)
        res = run_arrow(star_spanning_tree(g), range(5), capacity=1)
        bad = dict(res.predecessors)
        # make two ops claim the same predecessor
        ops = list(bad)
        bad[ops[0]] = bad[ops[1]]
        with pytest.raises(VerificationError):
            verify_queuing(range(5), bad, tail=0)

    def test_broken_addition_is_caught(self, monkeypatch):
        from repro.adding import run_combining_addition
        from repro.counting import combining as comb_mod
        from repro.topology.spanning import path_spanning_tree as pst

        original = comb_mod._CombiningNode._distribute

        def broken(self, base, ctx):
            original(self, base + (1 if self.node_id == 2 else 0), ctx)

        monkeypatch.setattr(comb_mod._CombiningNode, "_distribute", broken)
        with pytest.raises(AssertionError):
            run_combining_addition(pst(path_graph(5)), {v: 1 for v in range(5)})
