"""The perf layer: bench matrix, regression compare, parallel executor."""

from __future__ import annotations

import json

import pytest

from repro.perf import BenchCell, compare_benchmarks, render_bench, run_bench


def _tiny_cells() -> tuple[BenchCell, ...]:
    """A miniature matrix so tests run in milliseconds."""
    from repro import path_graph, run_flood_counting, run_central_counting, star_graph

    return (
        BenchCell(
            "flood/path/16", "flood", "path", 16,
            lambda: run_flood_counting(path_graph(16), range(16)).stats,
        ),
        BenchCell(
            "central/star/16", "central", "star", 16,
            lambda: run_central_counting(star_graph(16), range(16)).stats,
        ),
    )


class TestRunBench:
    def test_document_structure(self):
        doc = run_bench(cells=_tiny_cells())
        assert doc["schema"] == 1
        assert doc["calibration_ops_per_sec"] > 0
        assert [c["name"] for c in doc["cells"]] == ["flood/path/16", "central/star/16"]
        for cell in doc["cells"]:
            assert cell["messages"] > 0 and cell["rounds"] > 0
            assert cell["messages_per_sec"] > 0

    def test_names_filter_and_order(self):
        doc = run_bench(cells=_tiny_cells(), names=["central/star/16"])
        assert [c["name"] for c in doc["cells"]] == ["central/star/16"]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_bench(cells=_tiny_cells(), names=["nope/zilch/0"])

    def test_document_is_json_safe(self):
        doc = run_bench(cells=_tiny_cells())
        json.dumps(doc)

    def test_render_lists_every_cell(self):
        doc = run_bench(cells=_tiny_cells())
        text = render_bench(doc)
        assert "flood/path/16" in text and "central/star/16" in text

    def test_default_matrix_contains_acceptance_cell(self):
        from repro.perf import BENCH_CELLS

        assert "flood/path/512" in {c.name for c in BENCH_CELLS}


def _doc(cells: dict[str, float], calibration: float | None = None) -> dict:
    doc = {
        "schema": 1,
        "cells": [{"name": n, "messages_per_sec": v} for n, v in cells.items()],
    }
    if calibration is not None:
        doc["calibration_ops_per_sec"] = calibration
    return doc


class TestCompare:
    def test_identical_documents_pass(self):
        doc = _doc({"a": 100.0, "b": 200.0}, calibration=1000.0)
        assert compare_benchmarks(doc, doc) == []

    def test_single_cell_regression_detected(self):
        base = _doc({"a": 100.0, "b": 100.0, "c": 100.0}, calibration=1000.0)
        cur = _doc({"a": 100.0, "b": 100.0, "c": 60.0}, calibration=1000.0)
        failures = compare_benchmarks(cur, base)
        assert len(failures) == 1 and failures[0].startswith("c:")

    def test_uniform_regression_caught_by_calibration(self):
        """Same machine (same calibration), every cell 40% slower — the
        median normalisation alone would miss this; calibration must not."""
        base = _doc({"a": 100.0, "b": 100.0}, calibration=1000.0)
        cur = _doc({"a": 60.0, "b": 60.0}, calibration=1000.0)
        failures = compare_benchmarks(cur, base)
        assert len(failures) == 2

    def test_slower_machine_tolerated(self):
        """Half-speed machine: cells AND calibration drop together — the
        normalised ratios stay at 1.0 and the gate passes."""
        base = _doc({"a": 100.0, "b": 100.0}, calibration=1000.0)
        cur = _doc({"a": 50.0, "b": 50.0}, calibration=500.0)
        assert compare_benchmarks(cur, base) == []

    def test_median_fallback_without_calibration(self):
        base = _doc({"a": 100.0, "b": 100.0, "c": 100.0})
        cur = _doc({"a": 50.0, "b": 50.0, "c": 20.0})  # c regresses vs the pack
        failures = compare_benchmarks(cur, base)
        assert len(failures) == 1 and failures[0].startswith("c:")

    def test_no_comparable_cells_is_a_failure(self):
        base = _doc({"old": 100.0})
        cur = _doc({"new": 100.0})
        failures = compare_benchmarks(cur, base)
        assert failures and "no comparable cells" in failures[0]

    def test_threshold_respected(self):
        base = _doc({"a": 100.0, "b": 100.0, "c": 100.0}, calibration=1000.0)
        cur = _doc({"a": 100.0, "b": 100.0, "c": 80.0}, calibration=1000.0)
        assert compare_benchmarks(cur, base, threshold=0.25) == []
        assert len(compare_benchmarks(cur, base, threshold=0.1)) == 1


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


class TestCliBench:
    def test_bench_writes_json_and_passes_self_compare(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--cells", "central/star/4096",
            "--json", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["cells"][0]["name"] == "central/star/4096"
        # Comparing a run against its own output passes the gate.  A wide
        # threshold keeps this robust to timing noise on a loaded machine;
        # the gate logic itself is pinned by TestCompare with synthetic docs.
        rc = main([
            "bench", "--cells", "central/star/4096",
            "--compare", str(out), "--threshold", "0.9",
        ])
        assert rc == 0

    def test_bench_compare_fails_on_regression(self, tmp_path, capsys):
        from repro.cli import main

        baseline = _doc({"central/star/4096": 10**9}, calibration=1.0)
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(baseline))
        rc = main([
            "bench", "--cells", "central/star/4096",
            "--compare", str(path),
        ])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_unknown_cell_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["bench", "--cells", "nope/zilch/0"])

    def test_run_jobs_flag(self, capsys):
        from repro.cli import main

        assert main(["run", "E1", "--jobs", "2"]) == 0
        assert "[PASS]" in capsys.readouterr().out
