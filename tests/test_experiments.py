"""The experiment suite: every experiment passes, and `--jobs N` changes wall-clock only."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    render_experiment,
    render_table,
    run_e2_thm35_general_lower_bound,
    run_e3_recurrences,
    run_e4_thm36_diameter_lower_bound,
    run_e5_thm41_arrow_vs_tsp,
    run_e8_cor42_rosenkrantz,
    run_e12_star_counterexample,
    run_e14_ablation_tree_choice,
)
from repro.experiments.harness import Check, ExperimentResult


class TestHarness:
    def test_check_str(self):
        assert str(Check("x", True)).startswith("[PASS]")
        assert "why" in str(Check("x", False, detail="why"))

    def test_result_passed(self):
        r = ExperimentResult("E0", "t", "ref")
        r.check("a", True)
        assert r.passed and not r.failed_checks()
        r.check("b", False, "oops")
        assert not r.passed and len(r.failed_checks()) == 1

    def test_require_raises_with_details(self):
        r = ExperimentResult("E0", "t", "ref")
        r.check("bad", False, "numbers")
        with pytest.raises(AssertionError, match="numbers"):
            r.require()

    def test_require_passes_through(self):
        r = ExperimentResult("E0", "t", "ref")
        r.check("ok", True)
        assert r.require() is r


class TestReport:
    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 22, "b": "y"}]
        text = render_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_render_table_empty(self):
        assert render_table([]) == "(no rows)"

    def test_render_table_column_selection(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_render_experiment_includes_checks(self):
        r = ExperimentResult("E0", "title", "Thm 0")
        r.rows.append({"n": 1})
        r.check("crit", True, "d")
        out = render_experiment(r)
        assert "E0" in out and "[PASS] crit" in out and "Thm 0" in out


# Small-scale parameterisations so the whole suite stays fast in CI.
SMALL = {
    "E2": lambda: run_e2_thm35_general_lower_bound(sizes=(8, 16, 32)),
    "E4": lambda: run_e4_thm36_diameter_lower_bound(
        list_sizes=(16, 32, 64), mesh_sides=(3, 4, 5)
    ),
    "E5": lambda: run_e5_thm41_arrow_vs_tsp(sizes=(8, 16, 32), seeds=(0, 1, 2)),
    "E12": lambda: run_e12_star_counterexample(sizes=(8, 16, 32)),
}


@pytest.mark.parametrize("exp_id", sorted(ALL_EXPERIMENTS))
def test_experiment_passes(exp_id):
    runner = SMALL.get(exp_id, ALL_EXPERIMENTS[exp_id])
    result = runner()
    result.require()
    assert result.rows, f"{exp_id} produced no table rows"
    assert result.exp_id == exp_id


def test_registry_complete():
    assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 23)}


# Parameters covered by neither the test-scale defaults nor bench_scale().
EXTRA = {
    "E3": lambda: run_e3_recurrences(t_max=4, k_max=40),
    "E8": lambda: run_e8_cor42_rosenkrantz(
        sizes=(15, 63, 255, 1023), seeds=(0, 1, 2, 3, 4)
    ),
    "E14": lambda: run_e14_ablation_tree_choice(n=64, mesh_side=8),
}


@pytest.mark.parametrize("exp_id", sorted(EXTRA))
def test_experiment_passes_at_extra_parameters(exp_id):
    EXTRA[exp_id]().require()


class TestExecutor:
    IDS = ["E1", "E3"]

    @staticmethod
    def _strip(doc: dict) -> dict:
        doc = json.loads(json.dumps(doc))
        doc.pop("total_elapsed_s", None)
        for row in doc["experiments"]:
            row.pop("elapsed_s", None)
        return doc

    def test_parallel_equals_serial(self):
        """The acceptance property: ``--jobs N`` changes wall-clock only.
        Everything except the (wall-clock) elapsed fields must be
        byte-identical between a serial and a parallel suite run."""
        from repro.experiments import run_suite, suite_metrics

        serial = run_suite(self.IDS, jobs=1)
        parallel = run_suite(self.IDS, jobs=4)
        assert self._strip(suite_metrics(serial)) == self._strip(
            suite_metrics(parallel)
        )
        # Order is submission order, independent of completion order.
        assert [r.exp_id for r, _ in parallel] == self.IDS
        # Full result payloads match, not just the summary rows.
        for (rs, _), (rp, _) in zip(serial, parallel):
            assert rs.rows == rp.rows
            assert [(c.name, c.passed) for c in rs.checks] == [
                (c.name, c.passed) for c in rp.checks
            ]

    def test_unknown_id_fails_fast(self):
        from repro.experiments import run_suite

        with pytest.raises(KeyError):
            run_suite(["E1", "E999"], jobs=4)

    def test_bench_scale_resolution(self):
        from repro.experiments import resolve_cell
        from repro.experiments.suite import ALL_EXPERIMENTS, bench_scale

        # E1 has no bench entry: same callable at either scale.
        assert resolve_cell("E1", "bench") is ALL_EXPERIMENTS["E1"]
        # E2 has one: bench resolves away from the registry default.
        assert resolve_cell("E2", "bench") is not ALL_EXPERIMENTS["E2"]
        # The bench map only parameterises known experiments.
        assert set(bench_scale()) <= set(ALL_EXPERIMENTS)


def test_run_jobs_flag(capsys):
    from repro.cli import main

    assert main(["run", "E1", "--jobs", "2"]) == 0
    assert "[PASS]" in capsys.readouterr().out
