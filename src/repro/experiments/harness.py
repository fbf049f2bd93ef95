"""Experiment result containers and pass-criteria records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence


@dataclass(frozen=True)
class Check:
    """One pass criterion of an experiment.

    Attributes:
        name: short criterion label, e.g. ``"counting >= Thm3.5 bound"``.
        passed: whether the criterion held on this run.
        detail: the concrete numbers behind the verdict.
    """

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}" + (f" — {self.detail}" if self.detail else "")


@dataclass
class ExperimentResult:
    """Everything one experiment produced.

    Attributes:
        exp_id: DESIGN.md experiment id, e.g. ``"E4"``.
        title: one-line description.
        paper_ref: the theorem/lemma/figure reproduced.
        rows: the regenerated table (list of column->value mappings).
        checks: pass criteria with verdicts.
        notes: free-form commentary rendered under the table.
    """

    exp_id: str
    title: str
    paper_ref: str
    rows: list[Mapping[str, Any]] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    notes: str = ""

    @property
    def passed(self) -> bool:
        """Whether every check passed."""
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> list[Check]:
        """The checks that did not hold (empty on a clean run)."""
        return [c for c in self.checks if not c.passed]

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        """Append a criterion verdict."""
        self.checks.append(Check(name=name, passed=bool(passed), detail=detail))

    def require(self) -> "ExperimentResult":
        """Raise if any check failed (used by tests and the EXPERIMENTS.md generator).

        Raises:
            AssertionError: listing every failed criterion.
        """
        bad = self.failed_checks()
        if bad:
            msgs = "\n".join(str(c) for c in bad)
            raise AssertionError(f"{self.exp_id} failed checks:\n{msgs}")
        return self

    def metrics_row(self) -> dict[str, Any]:
        """A JSON-safe summary row for metrics export (``--metrics-json``)."""
        return {
            "experiment": self.exp_id,
            "title": self.title,
            "paper_ref": self.paper_ref,
            "rows": len(self.rows),
            "checks_total": len(self.checks),
            "checks_passed": sum(1 for c in self.checks if c.passed),
            "passed": self.passed,
        }


def suite_metrics(
    runs: Sequence[tuple["ExperimentResult", float]]
) -> dict[str, Any]:
    """Aggregate metrics document for a batch of experiment runs.

    Args:
        runs: ``(result, elapsed_seconds)`` pairs in execution order.

    Returns:
        A JSON-safe document with one row per experiment plus totals —
        what ``python -m repro run --metrics-json`` writes alongside the
        rendered tables.
    """
    experiments = []
    for result, elapsed in runs:
        row = result.metrics_row()
        row["elapsed_s"] = round(elapsed, 3)
        experiments.append(row)
    return {
        "experiments": experiments,
        "experiments_run": len(experiments),
        "experiments_passed": sum(1 for r, _ in runs if r.passed),
        "total_elapsed_s": round(sum(e for _, e in runs), 3),
    }

