"""Core problem types, verifiers, request scenarios, growth-exponent fit."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.core import (
    CountingResult,
    QueuingResult,
    VerificationError,
    all_nodes,
    alternating,
    far_half,
    growth_exponent,
    random_subset,
    scenario_suite,
    verify_counting,
    verify_queuing,
    verify_total_order_consistency,
)
from repro.core.problem import init_op, op_of
from repro.core.request import exhaustive_request_sets, request_sets_of_size
from repro.counting import run_central_counting, run_central_queuing, run_sweep_queuing
from repro.sim import RunStats
from repro.topology import complete_graph, path_graph


class TestVerifyCounting:
    def test_valid(self):
        verify_counting([3, 5, 9], {3: 2, 5: 1, 9: 3})

    def test_empty_request_set(self):
        with pytest.raises(VerificationError, match="empty request set"):
            verify_counting([], {})

    def test_empty_requests_with_counts(self):
        with pytest.raises(VerificationError):
            verify_counting([], {1: 1})

    def test_wrong_recipients(self):
        with pytest.raises(VerificationError):
            verify_counting([1, 2], {1: 1, 3: 2})

    def test_missing_recipient(self):
        with pytest.raises(VerificationError):
            verify_counting([1, 2], {1: 1})

    def test_duplicate_counts(self):
        with pytest.raises(VerificationError):
            verify_counting([1, 2], {1: 1, 2: 1})

    def test_gap_in_counts(self):
        with pytest.raises(VerificationError):
            verify_counting([1, 2], {1: 1, 2: 3})


class TestVerifyQueuing:
    def test_valid_chain(self):
        preds = {
            ("op", 2): ("init", 0),
            ("op", 5): ("op", 2),
            ("op", 1): ("op", 5),
        }
        chain = verify_queuing([1, 2, 5], preds, tail=0)
        assert chain == [("op", 2), ("op", 5), ("op", 1)]

    def test_wrong_op_set(self):
        with pytest.raises(VerificationError):
            verify_queuing([1, 2], {("op", 1): ("init", 0)}, tail=0)

    def test_fork_detected(self):
        preds = {("op", 1): ("init", 0), ("op", 2): ("init", 0)}
        with pytest.raises(VerificationError):
            verify_queuing([1, 2], preds, tail=0)

    def test_cycle_detected(self):
        preds = {("op", 1): ("op", 2), ("op", 2): ("op", 1)}
        with pytest.raises(VerificationError):
            verify_queuing([1, 2], preds, tail=0)

    def test_chain_not_anchored_at_tail(self):
        preds = {("op", 1): ("init", 9), ("op", 2): ("op", 1)}
        with pytest.raises(VerificationError):
            verify_queuing([1, 2], preds, tail=0)

    def test_empty_request_set(self):
        with pytest.raises(VerificationError, match="empty request set"):
            verify_queuing([], {}, tail=0)

    def test_duplicate_requests_collapse(self):
        # Duplicate request ids denote one operation, not two.
        preds = {("op", 1): ("init", 0)}
        chain = verify_queuing([1, 1], preds, tail=0)
        assert chain == [("op", 1)]

    def test_self_cycle_detected(self):
        preds = {("op", 1): ("init", 0), ("op", 2): ("op", 2)}
        with pytest.raises(VerificationError):
            verify_queuing([1, 2], preds, tail=0)


class TestResultsVerifyThemselves:
    """A result type checks its problem's condition when built, so no
    runner can return a wrong answer."""

    def test_counting_result_rejects_a_repeated_rank(self):
        with pytest.raises(VerificationError, match="not exactly 1..2"):
            CountingResult("x", (1, 2), {1: 1, 2: 1}, {1: 1, 2: 1}, RunStats())

    def test_queuing_result_rejects_a_forked_chain(self):
        preds = {op_of(1): init_op(0), op_of(2): init_op(0)}
        with pytest.raises(VerificationError, match="fork"):
            QueuingResult("x", (1, 2), preds, {op_of(1): 1, op_of(2): 1}, 0, RunStats())

    @pytest.mark.parametrize(
        "run",
        [
            lambda: run_central_queuing(path_graph(4), []),
            lambda: run_sweep_queuing(path_graph(4), []),
        ],
        ids=["central", "sweep"],
    )
    def test_queuing_runners_return_the_empty_result_on_no_requests(self, run):
        """As ``run_arrow`` does (``tests/test_arrow.py``)."""
        r = run()
        assert (r.requests, r.predecessors, r.delays, r.order()) == ((), {}, {}, [])

    def test_counting_on_no_requests_still_raises(self):
        with pytest.raises(VerificationError, match="empty request set"):
            run_central_counting(path_graph(4), [])

    def test_no_module_outside_core_calls_a_verifier(self):
        """Runners build result types instead of calling the validators:
        no ``src`` module outside ``repro/core/`` calls or imports
        ``verify_counting`` or ``verify_queuing``."""
        names = {"verify_counting", "verify_queuing"}
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root.parent).as_posix()
            if rel.startswith("repro/core/"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    hit = called in names
                elif isinstance(node, ast.ImportFrom):
                    hit = any(alias.name in names for alias in node.names)
                else:
                    continue
                if hit:
                    offenders.append(f"{rel}:{node.lineno}")
        assert offenders == [], "verifier used outside repro/core: " + ", ".join(offenders)


class TestOrderConsistency:
    def test_identical_orders_pass(self):
        verify_total_order_consistency([[1, 2, 3], [1, 2, 3]])

    def test_divergent_orders_fail(self):
        with pytest.raises(VerificationError):
            verify_total_order_consistency([[1, 2, 3], [1, 3, 2]])

    def test_empty(self):
        verify_total_order_consistency([])


class TestScenarios:
    def test_all_nodes(self):
        assert all_nodes()(path_graph(5)) == [0, 1, 2, 3, 4]

    def test_random_subset_seeded(self):
        s = random_subset(0.5, seed=3)
        g = complete_graph(30)
        assert s(g) == s(g)
        assert len(s(g)) >= 1

    def test_random_subset_never_empty(self):
        s = random_subset(0.0001, seed=1)
        assert len(s(path_graph(10))) >= 1

    def test_random_subset_invalid_p(self):
        with pytest.raises(ValueError):
            random_subset(0.0)
        with pytest.raises(ValueError):
            random_subset(1.5)

    def test_far_half_prefers_distance(self):
        req = far_half(0)(path_graph(10))
        assert len(req) == 5
        assert set(req) == {5, 6, 7, 8, 9}

    def test_alternating(self):
        assert alternating(3)(path_graph(10)) == [0, 3, 6, 9]
        with pytest.raises(ValueError):
            alternating(0)

    def test_suite_is_nonempty_and_named(self):
        suite = scenario_suite()
        assert len(suite) >= 4
        assert len({s.name for s in suite}) == len(suite)

    def test_exhaustive_sets(self):
        sets = exhaustive_request_sets(3)
        assert len(sets) == 7
        with pytest.raises(ValueError):
            exhaustive_request_sets(20)

    def test_fixed_size_sets(self):
        sets = request_sets_of_size(10, 3, count=5, seed=0)
        assert len(sets) == 5
        assert all(len(s) == 3 for s in sets)
        assert len({tuple(s) for s in sets}) == 5
        with pytest.raises(ValueError):
            request_sets_of_size(5, 9, count=1)


class TestComparison:
    def test_growth_exponent_shapes(self):
        ns = [8, 16, 32, 64]
        assert abs(growth_exponent(ns, [n * n for n in ns]) - 2.0) < 1e-9
        assert abs(growth_exponent(ns, ns) - 1.0) < 1e-9

    def test_growth_exponent_validation(self):
        with pytest.raises(ValueError):
            growth_exponent([1], [1])
        with pytest.raises(ValueError):
            growth_exponent([1, 2], [0, 5])
