"""Benchmark entry point, run from the repository root::

    python3 perfbench/run.py --workload runs --seed 0 --seconds 32 --trace 0

Every measurement comes from a fresh worker process (``worker.py``).
Workers run one at a time, so all load is serial; they are started until
``--seconds`` have passed, and the medians over them are reported.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` times the hook-cost rows, then alternates untraced and
traced workers and reports the per-layer metrics.  Every metric is
printed by name with its unit; the last stdout line is the JSON result.
The full document, with provenance and every sample, goes to
``perfbench/out/``.  ``--repin`` rewrites ``pins.json`` from one
default-seed run of each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: No invocation runs past this, whatever ``--seconds`` says.
HARD_LIMIT_S = 165.0
#: Reported times are scaled to a host on which ``worker.probe()`` takes
#: this long.  On a shared host the same code runs up to twice as fast
#: or slow from one minute to the next; dividing by a probe timed next
#: to each repetition cancels that drift (see README.md).
PROBE_REF_S = 0.05


def monotonic() -> float:
    """A clock every process on the host shares (Linux ``CLOCK_MONOTONIC``)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, mode: str, timeout: float, budget: float = 0.0) -> dict[str, Any]:
    """Run one worker to completion; a timeout or crash comes back as ``error``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, f"{budget:.3f}"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"exceeded its {timeout:.0f} s time limit"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"mode": mode, "error": f"exit code {proc.returncode}: {tail[0]}"}
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready_at"] - start
    report["process_s"] = monotonic() - start
    return report


def measure(workload: dict, hook_cost: dict, seed: int, seconds: int, trace: bool) -> list[dict]:
    """The workers of one invocation, started one after another.

    Untraced, each worker repeats the workload for about a quarter of
    ``seconds``, so several set-ups are timed and most of the time goes
    to repetitions.  Traced, the hook-cost worker runs first, then
    single-repetition untraced and traced workers alternate.
    """
    start = monotonic()
    deadline = start + seconds
    workers = []
    if trace:
        workers.append(spawn("hooks", seed, "hooks", min(hook_cost["timeout_sec"], HARD_LIMIT_S)))
    modes = ["plain", "traced"] if trace else ["plain"]
    while True:
        now = monotonic()
        missing = [m for m in modes if not any(w["mode"] == m for w in workers)]
        limit = HARD_LIMIT_S - (now - start)
        if (now >= deadline and not missing) or limit < 1:
            return workers
        mode = missing[0] if missing else modes[len(workers) % len(modes)]
        budget = 0.0 if trace else min(seconds / 4, deadline - now)
        workers.append(
            spawn(workload["name"], seed, mode, min(workload["timeout_sec"], limit), budget)
        )


def account(workers: list[dict], expected_ops: int) -> None:
    """Give failed workers their failed operations and mark drift between workers.

    Simulated results repeat exactly, so every worker of one invocation,
    traced or not, must report the same results as the first.  (Each
    worker already compares its own repetitions.)
    """
    reference = None
    for w in workers:
        if w["mode"] == "hooks":
            continue
        if "error" in w:
            w["reps"] = [
                {"attempted": expected_ops, "failed": expected_ops, "failures": [w["error"]]}
            ]
            continue
        first = w["reps"][0]
        if reference is None:
            reference = first["signature"]
            continue
        differ = sorted(
            k for k in set(reference) | set(first["signature"])
            if reference.get(k) != first["signature"].get(k)
        )
        if differ:
            first["failed"] = min(first["attempted"], first["failed"] + len(differ))
            first["failures"].append(f"results differ from the first worker's: {differ}")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ok_workers(workers: list[dict], mode: str) -> list[dict]:
    return [w for w in workers if w["mode"] == mode and "error" not in w]


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, scaled to ``PROBE_REF_S``."""
    return seconds * PROBE_REF_S / probe_s


def end_to_end(workers: list[dict], attempted: int, failed: int) -> dict[str, float]:
    plain = ok_workers(workers, "plain")
    reps = [rep for w in plain for rep in w["reps"]]
    return {
        "setup_s": median([scaled(w["setup_s"], w["reps"][0]["probe_s"]) for w in plain]),
        "wall_s": median([scaled(rep["wall_s"], rep["probe_s"]) for rep in reps]),
        "msgs_per_s": median(
            [rep["delivered"] / scaled(rep["wall_s"], rep["probe_s"]) for rep in reps]
        ),
        "peak_rss_mb": median([w["rss_mb"] for w in plain]),
        "ok_frac": 1.0 - failed / attempted,
    }


def raw_medians(workers: list[dict]) -> dict[str, float]:
    """Unscaled set-up and repetition times, and the probe, as measured."""
    plain = ok_workers(workers, "plain")
    reps = [rep for w in plain for rep in w["reps"]]
    return {
        "setup_s": median([w["setup_s"] for w in plain]),
        "wall_s": median([rep["wall_s"] for rep in reps]),
        "probe_s": median([rep["probe_s"] for rep in reps]),
    }


def per_layer(workers: list[dict], names: list[str]) -> dict[str, float]:
    reps = [rep for w in ok_workers(workers, "plain") for rep in w["reps"]]
    traced = ok_workers(workers, "traced")
    hooks = next(iter(ok_workers(workers, "hooks")), None)
    out: dict[str, float] = {}
    for name in names:
        if name.startswith("suite."):
            exp_id = name[len("suite."):-len("_s")]
            out[name] = median(
                [rep["experiments"][exp_id] for rep in reps if exp_id in rep.get("experiments", {})]
            )
        elif name.startswith("hook."):
            out[name] = hooks["ratios"][name] if hooks else 0.0
        elif name == "trace.overhead":
            untraced = median([scaled(rep["wall_s"], rep["probe_s"]) for rep in reps])
            traced_wall = median(
                [scaled(w["reps"][0]["wall_s"], w["reps"][0]["probe_s"]) for w in traced]
            )
            out[name] = traced_wall / untraced if untraced else 0.0
        else:
            out[name] = median([w["layers"][name] for w in traced])
    return out


def git_rev() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    """SHA-256 over the package sources, so a checkout without ``.git`` is identified too."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    return {
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def repin(manifest: dict) -> int:
    """Rewrite ``pins.json`` from one default-seed worker per workload."""
    pins = {}
    for workload in manifest["workloads"]:
        w = spawn(workload["name"], manifest["default_seed"], "plain", workload["timeout_sec"])
        if "error" in w:
            print(f"perfbench: {workload['name']} failed, pins unchanged: {w['error']}",
                  file=sys.stderr)
            return 1
        real = [f for f in w["reps"][0]["failures"] if "drift:" not in f]
        if real:
            print(f"perfbench: {workload['name']} failed, pins unchanged: {real}", file=sys.stderr)
            return 1
        pins[workload["name"]] = w["reps"][0]["signature"]
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())
    if args.repin:
        return repin(manifest)
    workloads = {w["name"]: w for w in manifest["workloads"]}
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")
    workload = workloads[args.workload]
    seed = manifest["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    trace = bool(args.trace)

    workers = measure(workload, manifest["hook_cost"], seed, seconds, trace)
    pins_path = HERE / "pins.json"
    pins = json.loads(pins_path.read_text()).get(workload["name"], {}) if pins_path.is_file() else {}
    expected_ops = len(workload["items"]) or sum(len(v or ()) for v in pins.values()) or 1
    account(workers, expected_ops)
    reps = [rep for w in workers if w["mode"] != "hooks" for rep in w["reps"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    failures = [f for rep in reps for f in rep["failures"]]
    failures += [w["error"] for w in workers if w["mode"] == "hooks" and "error" in w]

    specs = bench["per_layer"] if trace else bench["end_to_end"]
    names = [m["name"] for m in specs]
    values = per_layer(workers, names) if trace else end_to_end(workers, attempted, failed)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    out = HERE / "out" / f"{workload['name']}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(exist_ok=True)
    raw = raw_medians(workers)
    doc = {
        "schema": "perfbench.result/1",
        "provenance": provenance(seed, seconds, trace),
        "workload": workload,
        "result": result,
        "probe_ref_s": PROBE_REF_S,
        "unscaled": raw,
        "failures": failures,
        "workers": workers,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")

    plain = [w for w in workers if w["mode"] == "plain"]
    n_traced = sum(w["mode"] == "traced" for w in workers)
    print(f"perfbench {workload['name']}  seed={seed}  seconds={seconds}  trace={int(trace)}  "
          f"workers: {len(plain)} untraced ({sum(len(w['reps']) for w in plain)} repetitions), "
          f"{n_traced} traced")
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        print("  times above are scaled to a {:.3f} s probe; as measured: setup_s {setup_s:.4g} s, "
              "wall_s {wall_s:.4g} s, probe {probe_s:.4g} s".format(PROBE_REF_S, **raw))
    shown = next(
        (w for mode in ("traced", "plain") for w in ok_workers(workers, mode)), None
    )
    for row in shown["reps"][0].get("items", ()) if shown else ():
        print(f"  {row['name']:<22} rounds/sent/total_delay {row['stats']}")
        if "split" in row:
            print("    call {call_s:.4f} s = loop {loop_s:.4f} + glue {glue_s:.4f} + verify "
                  "{verify_s:.4f};  glue = bfs {bfs_s:.4f} + network init {net_init_s:.4f} "
                  "+ unattributed {unattributed_s:.4f}".format(**row["split"]))
    print(f"  operations: {attempted} attempted, {failed} failed")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    print(f"  document: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
