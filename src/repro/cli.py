"""Command-line interface: run experiments and protocols from a shell.

Usage::

    python -m repro list
    python -m repro run E9
    python -m repro run E4 --scale bench
    python -m repro run all --scale test
    python -m repro arrow --graph complete --n 32
    python -m repro count --graph mesh --n 36 --algorithm combining
    python -m repro count --graph star --n 16 --algorithm central --sanitize
    python -m repro arrow --graph path --n 32 --faults drop=0.1,seed=7
    python -m repro count --algorithm central --faults dup=0.05 --crash 3@10:20
    python -m repro lint src/repro --format json
    python -m repro trace arrow --graph path --n 8 -o arrow.perfetto.json
    python -m repro profile flood --n 32
    python -m repro count --algorithm flood --stats --metrics-json m.json

``run`` executes experiments from the suite (test-scale defaults or the
larger ``--scale bench`` parameterisations) and prints the regenerated
tables; ``arrow``/``count`` run a single protocol and print its delays —
handy for quick exploration.  ``lint`` statically checks protocol
implementations against the model rules (see ``docs/LINT.md``);
``--sanitize`` replays a protocol run and diffs the event traces to catch
nondeterminism; ``--strict`` makes the engine raise on any per-round
send/receive budget overrun instead of queuing.

Observability (see ``docs/OBSERVABILITY.md``): ``trace`` runs a protocol
with event tracing on and writes a Chrome/Perfetto ``trace_event`` JSON
(open it at https://ui.perfetto.dev) plus a flat JSONL event stream;
``profile`` times the engine's per-round phases and prints the hottest
first; ``--stats`` on ``run``/``arrow``/``count`` prints the engine's
aggregate counters, and ``--metrics-json PATH`` dumps the full metrics
registry (counters, gauges, per-op delay and link-wait histograms) — for
``run``, a per-experiment summary document — as JSON.

``--faults``/``--crash``/``--outage`` run the protocol under a seeded
fault plan with the reliable-delivery wrapper (see ``docs/FAULTS.md``):
``--faults`` takes ``drop=0.1,dup=0.05,seed=7,runs=3``; ``--crash``
takes ``node@start:end`` (empty end = permanent) and ``--outage`` takes
``u-v@start:end``, both repeatable.

Resilience (see ``docs/RESILIENCE.md``): ``chaos`` sweeps seeded fault
plans across protocol x topology cells with invariant monitors and the
watchdog attached, shrinks every failing plan to a minimal reproducer,
and (with ``--out``) saves replayable JSON artifacts; ``chaos --replay
artifact.json`` re-runs one and verifies the identical failure; ``chaos
--ci`` exits nonzero on any finding (sweep plans are eventually
delivering, so a failure is a bug, not weather).
"""

from __future__ import annotations

import argparse
import sys

from repro.protocols import PROTOCOLS
from repro.sim.errors import StrictModeViolation


def _build_graph(name: str, n: int):
    from repro import (
        complete_graph,
        hypercube_graph,
        mesh_graph,
        path_graph,
        star_graph,
    )

    if name == "complete":
        return complete_graph(n)
    if name == "path":
        return path_graph(n)
    if name == "star":
        return star_graph(n)
    if name == "mesh":
        side = max(2, round(n**0.5))
        return mesh_graph([side, side])
    if name == "hypercube":
        d = max(1, n.bit_length() - 1)
        return hypercube_graph(d)
    raise SystemExit(f"unknown graph family {name!r}")


def cmd_list(_args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    for exp_id in sorted(ALL_EXPERIMENTS, key=lambda e: int(e[1:])):
        result_fn = ALL_EXPERIMENTS[exp_id]
        doc = (result_fn.__doc__ or "").strip().splitlines()[0]
        print(f"{exp_id:>4}  {doc}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS, render_experiment, run_suite, suite_metrics

    targets = (
        sorted(ALL_EXPERIMENTS, key=lambda e: int(e[1:]))
        if args.experiment.lower() == "all"
        else [args.experiment.upper()]
    )
    for exp_id in targets:
        if exp_id not in ALL_EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {exp_id!r}; try `python -m repro list`"
            )
    runs = run_suite(targets, scale=args.scale, jobs=args.jobs)
    failures = 0
    for result, elapsed in runs:
        print(render_experiment(result))
        if args.stats:
            row = result.metrics_row()
            print(
                f"stats: rows={row['rows']} "
                f"checks={row['checks_passed']}/{row['checks_total']} "
                f"passed={row['passed']}"
            )
        print(f"({elapsed:.1f}s)\n")
        if not result.passed:
            failures += 1
    if args.metrics_json:
        import json

        with open(args.metrics_json, "w") as fh:
            json.dump(suite_metrics(runs), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote metrics to {args.metrics_json}")
    return 1 if failures else 0


def _fault_plan(args: argparse.Namespace):
    """The :class:`FaultPlan` requested on the command line, or ``None``."""
    if not (args.faults or args.crash or args.outage):
        return None
    from repro.faults import FaultPlan

    try:
        plan = FaultPlan.parse(
            args.faults or "", crashes=args.crash, outages=args.outage
        )
    except ValueError as exc:
        raise SystemExit(f"bad fault spec: {exc}")
    return None if plan.is_empty() else plan


def _print_stats(stats) -> None:
    """Render the RunStats counters the protocol commands hide by default."""
    print(f"  rounds      : {stats.rounds}")
    print(f"  sent        : {stats.messages_sent}")
    print(f"  delivered   : {stats.messages_delivered}")
    print(f"  dropped     : {stats.messages_dropped}")
    print(f"  duplicated  : {stats.messages_duplicated}")
    print(f"  send backlog: {stats.max_send_backlog} (max outbox)")
    print(f"  recv backlog: {stats.max_recv_backlog} (max link queue)")
    print(f"  link wait   : {stats.total_link_wait} rounds total")


def _metrics_registry(args: argparse.Namespace):
    """A fresh registry when ``--metrics-json`` was given, else ``None``."""
    if not getattr(args, "metrics_json", None):
        return None
    from repro.obs import MetricsRegistry

    return MetricsRegistry()


def _write_metrics(args: argparse.Namespace, registry) -> None:
    if registry is not None:
        registry.write_json(args.metrics_json)
        print(f"  metrics     : wrote {args.metrics_json}")


def _print_fault_summary(plan, stats) -> None:
    print(f"  fault plan  : {plan.describe()}")
    print(f"  dropped     : {stats.messages_dropped}")
    print(f"  duplicated  : {stats.messages_duplicated}")
    print(f"  crashes     : {stats.node_crashes}")
    if not plan.eventually_delivers():
        print("  warning     : plan is not eventually-delivering; "
              "completion was not guaranteed")


def _proto_runner(args: argparse.Namespace, name: str):
    """``(graph, plan, runner)`` for one run of registered protocol ``name``.

    The runner accepts further run options (``trace``, ``metrics``,
    ``profiler``) and honours ``--strict`` and ``--faults``/``--crash``/
    ``--outage``; a fault plan adds reliable delivery.  Option errors
    (such as ``--strict`` with faults) exit with the runner's message.
    """
    g = _build_graph(args.graph, args.n)
    options = {"strict": args.strict}
    plan = _fault_plan(args)
    if plan is not None:
        from repro.faults import RetryPolicy

        options.update(faults=plan, reliable=RetryPolicy())
    run = PROTOCOLS[name].run

    def runner(**kw):
        try:
            return run(g, range(g.n), **options, **kw)
        except ValueError as exc:
            raise SystemExit(f"{name}: {exc}")

    return g, plan, runner


def _cmd_protocol(args: argparse.Namespace, name: str) -> int:
    """Run one registered protocol and print its delays (``arrow``/``count``)."""
    g, plan, runner = _proto_runner(args, name)
    registry = _metrics_registry(args)
    try:
        res = runner(metrics=registry)
    except StrictModeViolation as exc:
        print(f"strict mode violation: {exc}")
        return 1
    print(f"{g.name}: {getattr(res, 'algorithm', name)}")
    print(f"  total delay : {res.total_delay}")
    print(f"  max delay   : {res.max_delay}")
    if not PROTOCOLS[name].counting:
        print(f"  order       : {res.order()[:12]}{'...' if g.n > 12 else ''}")
    if args.stats:
        _print_stats(res.stats)
    if plan is not None:
        _print_fault_summary(plan, res.stats)
    _write_metrics(args, registry)
    if args.sanitize:
        return _sanitize(lambda trace: runner(trace=trace))
    return 0


def cmd_arrow(args: argparse.Namespace) -> int:
    return _cmd_protocol(args, "arrow")


def cmd_count(args: argparse.Namespace) -> int:
    return _cmd_protocol(args, args.algorithm)


def _sanitize(build_and_run) -> int:
    """Replay a protocol run and diff the event traces; 0 iff identical."""
    from repro.lint import check_determinism

    report = check_determinism(build_and_run)
    print(f"  sanitizer   : {report.describe()}")
    return 0 if report.deterministic else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry, write_chrome_trace, write_jsonl
    from repro.sim import EventTrace

    g, _, runner = _proto_runner(args, args.protocol)
    trace = EventTrace()
    registry = MetricsRegistry() if args.metrics_json else None
    res = runner(trace=trace, metrics=registry)

    out = args.output or f"{args.protocol}.perfetto.json"
    if out.endswith(".perfetto.json"):
        base = out[: -len(".perfetto.json")]
    elif out.endswith(".json"):
        base = out[: -len(".json")]
    else:
        base = out
    jsonl_path = args.jsonl or f"{base}.jsonl"
    write_chrome_trace(
        trace, out, label=f"{args.protocol} on {g.name}"
    )
    lines = write_jsonl(trace, jsonl_path)
    print(f"{g.name}: {args.protocol}")
    print(f"  rounds      : {res.stats.rounds}")
    print(f"  events      : {len(trace)}")
    print(f"  perfetto    : {out}  (open at https://ui.perfetto.dev)")
    print(f"  jsonl       : {jsonl_path}  ({lines} lines)")
    if registry is not None:
        registry.write_json(args.metrics_json)
        print(f"  metrics     : {args.metrics_json}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import PhaseProfiler

    g, _, runner = _proto_runner(args, args.protocol)
    prof = PhaseProfiler()
    res = runner(profiler=prof)
    print(f"{g.name}: {args.protocol} (total delay {res.total_delay})")
    print(prof.render())
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(prof.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote profile to {args.json}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import check_paths, render_json, render_text

    try:
        findings = check_paths(args.paths)
    except (OSError, SyntaxError) as exc:
        raise SystemExit(f"lint: cannot analyze: {exc}")
    renderer = render_json if args.format == "json" else render_text
    print(renderer(findings))
    return 1 if findings else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import os

    from repro.resilience.chaos import (
        DEFAULT_CELLS,
        ChaosCell,
        chaos_search,
        load_artifact,
        replay_artifact,
        save_artifact,
    )

    if args.replay:
        try:
            cell, plan, failure = load_artifact(args.replay)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"chaos: cannot load artifact {args.replay!r}: {exc}")
        print(f"replaying {cell.key()} ({plan.describe()})")
        print(f"  recorded: {failure.get('kind')} at round {failure.get('round')}")
        reproduced, observed = replay_artifact(
            cell, plan, failure, max_rounds=args.max_rounds
        )
        if observed["status"] == "ok":
            print("  observed: run completed cleanly")
        else:
            print(
                f"  observed: {observed['kind']} at round {observed['round']}"
            )
        print("REPRODUCED" if reproduced else "NOT REPRODUCED")
        return 0 if reproduced else 1

    specs = args.cells or DEFAULT_CELLS
    try:
        cells = [ChaosCell.parse(s) for s in specs]
    except ValueError as exc:
        raise SystemExit(f"chaos: {exc}")
    report = chaos_search(
        cells,
        range(args.seeds),
        allow_permanent=args.allow_permanent,
        shrink=not args.no_shrink,
        max_rounds=args.max_rounds,
        progress=print,
    )
    print(
        f"\n{report.runs} runs over {len(cells)} cells x {args.seeds} seeds: "
        f"{len(report.findings)} failing plan(s)"
    )
    if args.out and report.findings:
        os.makedirs(args.out, exist_ok=True)
    for i, f in enumerate(report.findings):
        print(
            f"  [{i}] {f.cell.key()}: {f.final_failure.get('kind')} at round "
            f"{f.final_failure.get('round')} ({f.final_plan.describe()})"
        )
        if args.out:
            path = os.path.join(
                args.out, f"chaos-{f.cell.key().replace(':', '-')}-{i}.json"
            )
            save_artifact(path, f.cell, f.final_plan, f.final_failure)
            print(f"      wrote {path}")
    if args.ci:
        # CI sweeps eventually-delivering plans only: any failure is a bug.
        return 1 if report.findings else 0
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Concurrent counting is harder than queuing'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the experiment suite").set_defaults(
        func=cmd_list
    )

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id, e.g. E9, or 'all'")
    run.add_argument(
        "--scale", choices=("test", "bench"), default="test",
        help="parameter scale (default: test)",
    )
    run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run experiment cells on N worker processes (default: 1; "
             "results and output order are identical, only wall-clock "
             "changes)",
    )
    run.add_argument("--stats", action="store_true",
                     help="print a per-experiment summary line (rows, checks)")
    run.add_argument("--metrics-json", metavar="PATH", default="",
                     help="write a per-experiment metrics document as JSON")
    run.set_defaults(func=cmd_run)

    def add_fault_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--faults", default="", metavar="SPEC",
            help="fault plan, e.g. drop=0.1,dup=0.05,seed=7,runs=3 "
                 "(runs=inf unbounds consecutive drops)",
        )
        p.add_argument(
            "--crash", action="append", default=[], metavar="N@S:E",
            help="crash node N in rounds [S, E); empty E = permanent; "
                 "repeatable",
        )
        p.add_argument(
            "--outage", action="append", default=[], metavar="U-V@S:E",
            help="take link {U, V} down in rounds [S, E); repeatable",
        )

    def add_obs_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--stats", action="store_true",
                       help="print the engine's RunStats counters "
                            "(messages, backlogs, link wait)")
        p.add_argument("--metrics-json", metavar="PATH", default="",
                       help="attach a metrics registry and write it as JSON")

    arrow = sub.add_parser("arrow", help="run the arrow protocol once")
    arrow.add_argument("--graph", default="complete",
                       choices=("complete", "path", "star", "mesh", "hypercube"))
    arrow.add_argument("--n", type=int, default=32)
    arrow.add_argument("--sanitize", action="store_true",
                       help="re-run and diff event traces for nondeterminism")
    arrow.add_argument("--strict", action="store_true",
                       help="raise on per-round send/receive budget overruns")
    add_obs_args(arrow)
    add_fault_args(arrow)
    arrow.set_defaults(func=cmd_arrow)

    count = sub.add_parser("count", help="run one counting algorithm once")
    count.add_argument("--graph", default="complete",
                       choices=("complete", "path", "star", "mesh", "hypercube"))
    count.add_argument("--n", type=int, default=32)
    count.add_argument("--algorithm", default="combining",
                       choices=[n for n, p in PROTOCOLS.items() if p.counting])
    count.add_argument("--sanitize", action="store_true",
                       help="re-run and diff event traces for nondeterminism")
    count.add_argument("--strict", action="store_true",
                       help="raise on per-round send/receive budget overruns")
    add_obs_args(count)
    add_fault_args(count)
    count.set_defaults(func=cmd_count)

    trace = sub.add_parser(
        "trace",
        help="run a protocol with tracing on; write Perfetto JSON + JSONL",
    )
    trace.add_argument("protocol", choices=tuple(PROTOCOLS))
    trace.add_argument("--graph", default="complete",
                       choices=("complete", "path", "star", "mesh", "hypercube"))
    trace.add_argument("--n", type=int, default=32)
    trace.add_argument("-o", "--output", default="", metavar="PATH",
                       help="Chrome trace-event JSON path "
                            "(default: <protocol>.perfetto.json)")
    trace.add_argument("--jsonl", default="", metavar="PATH",
                       help="flat JSONL event-stream path "
                            "(default: derived from -o)")
    trace.add_argument("--metrics-json", metavar="PATH", default="",
                       help="also attach a metrics registry and write it as JSON")
    add_fault_args(trace)
    trace.set_defaults(func=cmd_trace, strict=False)

    profile = sub.add_parser(
        "profile",
        help="time the engine's per-round phases for one protocol run",
    )
    profile.add_argument("protocol", choices=tuple(PROTOCOLS))
    profile.add_argument("--graph", default="complete",
                         choices=("complete", "path", "star", "mesh", "hypercube"))
    profile.add_argument("--n", type=int, default=32)
    profile.add_argument("--json", default="", metavar="PATH",
                         help="also write the profile document as JSON")
    add_fault_args(profile)
    profile.set_defaults(func=cmd_profile, strict=False)

    lint = sub.add_parser(
        "lint", help="statically check protocol code against the model rules"
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to analyze (default: src/repro)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="findings output format (default: text)")
    lint.set_defaults(func=cmd_lint)

    chaos = sub.add_parser(
        "chaos",
        help="sweep seeded fault plans over protocol cells; shrink and "
             "save failing reproducers",
    )
    chaos.add_argument(
        "--cells", action="append", default=[], metavar="PROTO:TOPO:N",
        help="cell spec, e.g. flood_ft:ring:8 (repeatable; default: a "
             "small fixed matrix)",
    )
    chaos.add_argument("--seeds", type=int, default=10, metavar="K",
                       help="plans per cell, seeds 0..K-1 (default: 10)")
    chaos.add_argument("--allow-permanent", action="store_true",
                       help="let plans include permanent crashes (failures "
                            "are then expected, useful for demos)")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="skip delta-debug shrinking of failing plans")
    chaos.add_argument("--max-rounds", type=int, default=20_000,
                       metavar="R", help="per-run round budget (default: 20000)")
    chaos.add_argument("--out", default="", metavar="DIR",
                       help="write replayable reproducer JSON artifacts here")
    chaos.add_argument("--ci", action="store_true",
                       help="exit 1 if any plan fails (plans are eventually "
                            "delivering, so failures are engine/protocol bugs)")
    chaos.add_argument("--replay", default="", metavar="ARTIFACT",
                       help="re-run one saved reproducer and verify the same "
                            "failure at the same round; exit 1 otherwise")
    chaos.set_defaults(func=cmd_chaos)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
