"""Command-line interface: regenerate any paper artifact from a shell.

Examples::

    python -m repro calibration
    python -m repro waveform urban-walk --format csv
    python -m repro fig8 --waveform step-down
    python -m repro fig10 --trials 5
    python -m repro fig14 --trials 3
    python -m repro scenario --policy odyssey
"""

import argparse
import os
import sys

from repro.version import __version__

#: The source tree this CLI runs from (no build step: src/repro/cli.py).
#: ``repro bench`` anchors its benchmark-file and baseline defaults here
#: so the command works from any working directory.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _cmd_calibration(args):
    from repro.experiments.calibration import calibration_lines

    for line in calibration_lines():
        print(line)
    return 0


def _cmd_waveform(args):
    from repro.trace.replay import serialize_trace
    from repro.trace.scenarios import SCENARIO_MODELS, generate_scenario
    from repro.trace.waveforms import waveform

    if args.name in SCENARIO_MODELS:
        trace = generate_scenario(args.name, duration_seconds=args.duration,
                                  seed=args.seed)
    else:
        trace = waveform(args.name)
    if args.format == "trace":
        print(serialize_trace(trace), end="")
    else:  # csv of (time, bandwidth)
        print("time_s,bandwidth_bytes_per_s")
        t = 0.0
        while t <= trace.duration:
            print(f"{t:.2f},{trace.bandwidth_at(t):.0f}")
            t += args.step
    return 0


def _cmd_fig8(args):
    from repro.experiments.report import format_supply_result
    from repro.experiments.supply import REFERENCE_WAVEFORMS, run_all_supply
    from repro.telemetry.export import series_to_csv, series_to_jsonl

    waveforms = (args.waveform,) if args.waveform else REFERENCE_WAVEFORMS
    for name, result in run_all_supply(args.trials, 0, waveforms).items():
        if args.format == "csv":
            print(series_to_csv(result.merged_series(),
                                header="time_s,estimate_bytes_per_s"), end="")
        elif args.format == "jsonl":
            print(series_to_jsonl(result.merged_series(),
                                  name="fig8.estimate", waveform=name), end="")
        else:
            print(format_supply_result(result))
    return 0


def _cmd_fig9(args):
    from repro.experiments.demand import UTILIZATIONS, run_all_demand
    from repro.experiments.report import format_demand_result

    utilizations = UTILIZATIONS if args.utilization is None \
        else (args.utilization,)
    for result in run_all_demand(args.trials, 0, utilizations).values():
        print(format_demand_result(result))
    return 0


def _cmd_section(args):
    from repro.experiments.summary import SECTIONS

    print(SECTIONS[args.command](args.trials, 0))
    return 0


def _cmd_all(args):
    from repro.experiments.summary import run_everything

    report = run_everything(trials=args.trials, master_seed=args.seed,
                            include_extensions=not args.no_extensions)
    print(report, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


def _cmd_disconnected(args):
    from repro.experiments.disconnected import run_disconnected_comparison

    cached, uncached = run_disconnected_comparison(
        policy=args.policy, seed=args.seed,
        max_staleness=args.max_staleness,
    )
    print(f"disconnected operation (policy {args.policy}, seed {args.seed})")
    for label, r in (("degraded service", cached), ("no cache", uncached)):
        print(f"  {label}:")
        print(f"    blackout reads : {r.blackout_successes}/"
              f"{r.blackout_attempts} answered "
              f"({100.0 * r.blackout_success_rate:.0f}%)")
        print(f"    served stale   : {r.served_stale} "
              f"(mean staleness {r.mean_staleness:.1f} s)")
        print(f"    failed fast    : {r.failed_disconnected} disconnected, "
              f"{r.failed_timeout} timed out")
        print(f"    writes         : {r.posts_live} live, "
              f"{r.posts_deferred} deferred")
        reintegrated = ", ".join(f"{count} {status}" for status, count
                                 in sorted(r.reintegrated.items())) or "none"
        order = "in order" if r.replay_in_order else "OUT OF ORDER"
        print(f"    reintegration  : {reintegrated} ({order})")
        print(f"    disconnect upcalls: {r.disconnect_upcalls}; "
              f"final state {r.final_state}")
    return 0


def _cmd_fleet(args):
    from repro.fleet import (
        format_fleet_report,
        format_scaling_curve,
        run_fleet,
        run_scaling_curve,
    )

    common = {
        "shards": args.shards, "duration": args.duration,
        "policy": args.policy, "family": args.family,
        "master_seed": args.seed,
    }
    if args.curve:
        print(format_scaling_curve(run_scaling_curve(args.curve, **common)))
    else:
        print(format_fleet_report(run_fleet(args.clients, **common)))
    return 0


def _cmd_chaos(args):
    from repro.chaos import format_chaos_report, run_chaos_fleet

    if args.sweep:
        from repro.experiments.chaos import (
            format_chaos_matrix,
            run_chaos_matrix,
        )

        matrix = run_chaos_matrix(
            clients=args.clients, shards=args.shards,
            duration=args.duration, family=args.family, policy=args.policy,
            master_seed=args.seed, drill=not args.no_drill,
        )
        for line in format_chaos_matrix(matrix):
            print(line)
        if matrix.total_violations or matrix.total_ops_lost:
            print(f"error: {matrix.total_violations} invariant violations, "
                  f"{matrix.total_ops_lost} deferred ops lost",
                  file=sys.stderr)
            return 1
        return 0

    report = run_chaos_fleet(
        args.clients, shards=args.shards, duration=args.duration,
        profile=args.profile, drill=not args.no_drill,
        policy=args.policy, family=args.family, master_seed=args.seed,
    )
    for line in format_chaos_report(report, verbose=args.verbose):
        print(line)
    if report.total_violations or report.ops_lost:
        print(f"error: {report.total_violations} invariant violations, "
              f"{report.ops_lost} deferred ops lost", file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args):
    from repro.parallel import ResultCache

    cache = ResultCache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"cache root : {stats['root']}")
    print(f"entries    : {stats['entries']} ({stats['bytes']} bytes)")
    for experiment, count in sorted(stats["experiments"].items()):
        print(f"  {experiment:14s} {count}")
    return 0


#: Benchmark files ``repro bench`` runs by default: the substrate
#: microbenchmarks whose speed every figure regeneration rides on, plus
#: the end-to-end suite sweep that records ``suite_wall_seconds``.
BENCH_DEFAULT_PATHS = (
    os.path.join(_REPO_ROOT, "benchmarks", "test_bench_kernel.py"),
    os.path.join(_REPO_ROOT, "benchmarks", "test_bench_estimation_micro.py"),
    os.path.join(_REPO_ROOT, "benchmarks", "test_bench_transport_micro.py"),
    os.path.join(_REPO_ROOT, "benchmarks", "test_bench_suite.py"),
    os.path.join(_REPO_ROOT, "benchmarks", "test_bench_fleet.py"),
    os.path.join(_REPO_ROOT, "benchmarks", "test_bench_chaos.py"),
)

BENCH_DEFAULT_BASELINE = os.path.join(_REPO_ROOT, "benchmarks",
                                      "baseline.json")


def _unique_path(path):
    """``path`` if free, else the first ``stem-2``, ``stem-3``, ... that is.

    ``repro bench`` records one capture per invocation; a same-day rerun
    must not silently clobber the earlier trajectory point.
    """
    if not os.path.exists(path):
        return path
    stem, ext = os.path.splitext(path)
    n = 2
    while os.path.exists(f"{stem}-{n}{ext}"):
        n += 1
    return f"{stem}-{n}{ext}"


def _cmd_bench(args):
    import datetime
    import subprocess
    import tempfile

    from repro.bench.baseline import (
        capture_run,
        compare_metrics,
        format_report,
        headline_metrics,
        load_baseline,
        load_report,
        write_baseline,
    )
    from repro.errors import BenchmarkError

    today = datetime.date.today().isoformat()
    try:
        if args.json:
            run_json = args.json
        else:
            fd, run_json = tempfile.mkstemp(prefix="repro-bench-",
                                            suffix=".json")
            os.close(fd)
            paths = args.paths or list(BENCH_DEFAULT_PATHS)
            # Profiled runs swap --benchmark-only for --benchmark-disable
            # (pytest-benchmark rejects the pair): cProfile's hook cannot
            # survive pytest-benchmark's save/restore of sys.getprofile()
            # around its timed sections, and profiled timings are
            # worthless anyway, so each benchmark runs once as a plain
            # call under the profiler.
            command = [
                sys.executable, "-m", "pytest", "-q",
                "--benchmark-disable" if args.profile else "--benchmark-only",
                f"--benchmark-json={run_json}", *paths,
            ]
            if args.jobs != 1:
                command.append(f"--repro-jobs={args.jobs}")
            print(f"# running: {' '.join(command)}", file=sys.stderr)
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.join(_REPO_ROOT, "src"),
                            env.get("PYTHONPATH")) if p
            )
            if args.profile:
                profile_dir = os.path.join(args.out_dir, "profiles")
                env["REPRO_BENCH_PROFILE_DIR"] = profile_dir
                print(f"# profiling into {profile_dir}/ "
                      "(pstats dump + top-20 table per benchmark)",
                      file=sys.stderr)
            proc = subprocess.run(command, env=env)
            if proc.returncode != 0:
                print(f"error: benchmark run failed (exit {proc.returncode})",
                      file=sys.stderr)
                return proc.returncode
            if args.profile:
                # Profiler overhead distorts every timing, so a profiled
                # run never records a trajectory point, never refreshes
                # the baseline, and never judges a comparison.
                print("# profile run: skipping capture and baseline "
                      "comparison (timings carry profiler overhead)",
                      file=sys.stderr)
                return 0
        metrics = headline_metrics(load_report(run_json))
        if not metrics:
            raise BenchmarkError(f"no metrics found in {run_json!r}")
        # Record the perf trajectory: one BENCH_<date>.json per capture,
        # in the same schema as the baseline so a good run can be promoted
        # to benchmarks/baseline.json by copying it.  Never clobber an
        # earlier capture: same-day reruns get a ``-2``/``-3`` suffix.
        trajectory = _unique_path(
            args.out or os.path.join(args.out_dir, f"BENCH_{today}.json")
        )
        write_baseline(
            capture_run(metrics, captured_at=today,
                        notes="captured by `repro bench`"),
            trajectory,
        )
        print(f"# wrote {len(metrics)} metrics to {trajectory}",
              file=sys.stderr)
        if args.update_baseline:
            write_baseline(
                capture_run(metrics, captured_at=today,
                            notes="refreshed by `repro bench "
                                  "--update-baseline`"),
                args.baseline,
            )
            print(f"# refreshed baseline {args.baseline}", file=sys.stderr)
            return 0
        try:
            baseline = load_baseline(args.baseline)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print("hint: seed one with `repro bench --update-baseline`",
                  file=sys.stderr)
            return 2
        only = None
        if args.metrics:
            only = [name for name in
                    (part.strip() for part in args.metrics.split(","))
                    if name]
        report = compare_metrics(current=metrics, baseline_doc=baseline,
                                 tolerance_scale=args.tolerance_scale,
                                 only=only)
        print(format_report(report))
        return 0 if report.ok else 1
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


#: Scenarios the ``telemetry`` command can drive: one in-process trial
#: of a registered experiment, its one parameter read from an option.
TELEMETRY_SCENARIOS = {
    "fig8-supply": ("supply", "waveform_name", "waveform"),
    "fig9-demand": ("demand", "utilization", "utilization"),
    "adaptation": ("adaptation", "waveform_name", "waveform"),
}


def _cmd_telemetry(args):
    from repro import telemetry
    from repro.parallel import resolve_trial_function
    from repro.telemetry.export import metrics_summary, write_recorder_jsonl

    experiment, param, option = TELEMETRY_SCENARIOS[args.scenario]
    with telemetry.enabled() as rec:
        resolve_trial_function(experiment)(**{param: getattr(args, option)},
                                           seed=args.seed)
    if args.events_out:
        count, dropped = write_recorder_jsonl(rec, args.events_out)
        print(f"# wrote {count} events to {args.events_out} "
              f"({dropped} dropped)", file=sys.stderr)
    print(metrics_summary(rec.registry.snapshot()), end="")
    return 0


def _cmd_serve(args):
    import asyncio

    from repro.broker import Broker

    async def serve():
        broker = Broker(host=args.host, port=args.port,
                        heartbeat_timeout=args.heartbeat)
        await broker.start()
        host, port = broker.address
        print(f"broker listening on {host}:{port} "
              f"(heartbeat budget {args.heartbeat:g} s)", flush=True)
        try:
            if args.run_seconds is not None:
                await asyncio.sleep(args.run_seconds)
            else:
                while True:
                    await asyncio.sleep(3600.0)
        finally:
            stats = broker.describe()
            await broker.close()
            print(f"broker stopped: {stats['calls_served']} calls served, "
                  f"{stats['calls_relayed']} relayed, "
                  f"{stats['upcalls_sent']} upcalls, "
                  f"{stats['connections_accepted']} connections")

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_connect(args):
    import asyncio
    import json

    from repro.broker import BrokerClient
    from repro.errors import ReproError

    async def connect():
        client = BrokerClient(args.host, args.port, args.name)
        await client.connect(timeout=args.timeout)
        print(f"connected to {args.host}:{args.port} as {client.name} "
              f"(namespace {client.namespace})")
        latencies = []
        for _ in range(args.pings):
            latencies.append(await client.ping(timeout=args.timeout))
        if latencies:
            mean_ms = 1000.0 * sum(latencies) / len(latencies)
            worst_ms = 1000.0 * max(latencies)
            print(f"ping x{len(latencies)}: mean {mean_ms:.3f} ms, "
                  f"max {worst_ms:.3f} ms")
        if args.call:
            body = json.loads(args.body) if args.body else None
            reply = await client.call(args.call, body, timeout=args.timeout)
            print(f"{args.call} -> {reply!r}")
        await client.close()

    try:
        asyncio.run(connect())
    except (ReproError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_loadtest(args):
    from repro.broker import format_loadtest_report, run_loadtest
    from repro.errors import ReproError

    try:
        report = run_loadtest(clients=args.clients, seconds=args.seconds,
                              host=args.host, port=args.port)
    except (ReproError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_loadtest_report(report))
    return 0 if report.ok else 1


def _cmd_live(args):
    import asyncio
    import json

    from repro.errors import ReproError
    from repro.live import format_live_report, run_live_demo

    def narrate(name, at, fraction, rung):
        print(f"  [{at:10.3f}] {name}: fidelity -> {rung} ({fraction:g})",
              flush=True)

    try:
        report = asyncio.run(run_live_demo(
            clients=args.clients, seconds=args.seconds,
            chunk_bytes=args.chunk_bytes, period=args.period,
            high_per_client=args.high, low_per_client=args.low,
            on_transition=None if args.quiet else narrate,
        ))
    except (ReproError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"# wrote report to {args.json_out}", file=sys.stderr)
    print(format_live_report(report))
    return 0 if report.ok else 1


def _cmd_scenario(args):
    from repro.experiments.concurrent import PAPER_FIG14, run_concurrent_trial

    result = run_concurrent_trial(args.policy, seed=args.seed)
    video, web, speech = result.video, result.web, result.speech
    paper = PAPER_FIG14[args.policy]
    print(f"policy: {args.policy} (seed {args.seed})")
    print(f"  video : drops {video.stats.drops} (paper {paper[0]}), "
          f"fidelity {video.fidelity:.2f} (paper {paper[1]})")
    print(f"  web   : {web.stats.mean_seconds:.2f} s (paper {paper[2]}), "
          f"fidelity {web.stats.mean_fidelity:.2f} (paper {paper[3]})")
    print(f"  speech: {speech.stats.mean_seconds:.2f} s (paper {paper[4]})")
    return 0


#: The figure commands whose whole output is one report section
#: (``repro.experiments.summary.SECTIONS``), with their help texts.
SECTION_COMMANDS = (
    ("fig10", "video player table"),
    ("fig11", "web browser table"),
    ("fig12", "speech recognizer table"),
    ("fig14", "concurrent applications table"),
    ("turbulence", "impulse detectability sweep"),
    ("adaptation", "end-to-end adaptation agility"),
)


def positive_int(text):
    """argparse type: an integer of at least 1 (anything else exits 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_float(text):
    """argparse type: a finite number above zero (anything else exits 2)."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def waveform_name(text):
    """argparse type: a reference waveform or a generated scenario family
    (anything else exits 2, listing both)."""
    from repro.trace.scenarios import SCENARIO_MODELS
    from repro.trace.waveforms import WAVEFORMS

    if text not in WAVEFORMS and text not in SCENARIO_MODELS:
        known = ", ".join(sorted({*WAVEFORMS, *SCENARIO_MODELS}))
        raise argparse.ArgumentTypeError(
            f"unknown waveform {text!r}; known: {known}")
    return text


def client_counts(text):
    """argparse type for ``--curve``: comma-separated positive integers."""
    return [positive_int(part) for part in text.split(",")]


def build_parser():
    from repro.chaos import PROFILE_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Agile Application-Aware Adaptation for "
                    "Mobility' (Odyssey, SOSP 1997)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for trial execution "
                             "(default 1 = serial; 0 = all cores)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache "
                             "(.repro-cache/)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock watchdog per trial unit; a unit "
                             "that exceeds it aborts the run with a "
                             "ParallelError naming the unit (default: none)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("calibration",
                   help="print every calibrated constant and its provenance"
                   ).set_defaults(fn=_cmd_calibration)

    p = sub.add_parser("waveform", help="emit a reference waveform, the "
                                        "urban walk, or a generated scenario")
    p.add_argument("name", type=waveform_name,
                   help="step-up, step-down, impulse-up, impulse-down, "
                        "urban-walk, ethernet; or a generated family: "
                        "urban, highway, office, robustness")
    p.add_argument("--format", choices=("trace", "csv"), default="trace")
    p.add_argument("--step", type=positive_float, default=0.5,
                   help="sampling step for csv output (seconds)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for generated scenario families")
    p.add_argument("--duration", type=positive_float, default=900.0,
                   help="duration for generated scenario families (seconds)")
    p.set_defaults(fn=_cmd_waveform)

    def parallel_options(p):
        # Mirrors of the global options, so they also parse after the
        # subcommand; SUPPRESS keeps the subparser from clobbering a
        # value the main parser already set.
        p.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                       metavar="N",
                       help="worker processes (default 1; 0 = all cores)")
        p.add_argument("--no-cache", action="store_true",
                       default=argparse.SUPPRESS,
                       help="bypass the on-disk result cache")
        p.add_argument("--timeout", type=float, default=argparse.SUPPRESS,
                       metavar="SECONDS",
                       help="wall-clock watchdog per trial unit")

    def experiment_parser(name, help_text, fn, extra=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--trials", type=positive_int, default=3,
                       help="trials per cell (paper uses 5)")
        p.add_argument("--events-out", metavar="PATH",
                       help="run with telemetry enabled and write the event "
                            "trace as JSONL here")
        parallel_options(p)
        if extra:
            extra(p)
        p.set_defaults(fn=fn)
        return p

    experiment_parser(
        "fig8", "supply-estimation agility", _cmd_fig8,
        lambda p: (p.add_argument("--waveform"),
                   p.add_argument("--format", choices=("text", "csv", "jsonl"),
                                  default="text")),
    )
    experiment_parser(
        "fig9", "demand-estimation agility", _cmd_fig9,
        lambda p: p.add_argument("--utilization", type=float),
    )
    for name, help_text in SECTION_COMMANDS:
        experiment_parser(name, help_text, _cmd_section)
    experiment_parser(
        "all", "regenerate every table and figure into one report",
        _cmd_all,
        lambda p: (p.add_argument("--out", help="also write the report here"),
                   p.add_argument("--seed", type=int, default=0),
                   p.add_argument("--no-extensions", action="store_true",
                                  help="paper artifacts only")),
    )

    p = sub.add_parser("disconnected",
                       help="disconnected-operation arc: blackout, degraded "
                            "service, deferred writes, reintegration")
    p.add_argument("--policy", default="odyssey",
                   choices=("odyssey", "laissez-faire", "blind-optimism"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-staleness", type=float, default=None,
                   help="staleness bound for degraded reads (seconds; "
                        "default: serve any cached copy)")
    parallel_options(p)
    p.set_defaults(fn=_cmd_disconnected)

    p = sub.add_parser(
        "fleet",
        help="fleet-scale sharded simulation: thousands of adaptive "
             "clients across per-region viceroys, merged deterministically")
    p.add_argument("--clients", type=int, default=1000,
                   help="total simulated clients (default 1000)")
    p.add_argument("--shards", type=int, default=8,
                   help="per-region shards, one simulator each (default 8)")
    p.add_argument("--duration", type=float, default=60.0,
                   help="measured window per shard, simulated seconds")
    p.add_argument("--policy", default="odyssey",
                   choices=("odyssey", "laissez-faire", "blind-optimism"))
    p.add_argument("--family", default="urban",
                   choices=("urban", "highway", "office", "robustness"),
                   help="scenario family each shard draws its trace from")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curve", type=client_counts, metavar="N,N,...",
                   help="run a scaling curve over these client counts "
                        "instead of one fleet (e.g. 250,500,1000)")
    parallel_options(p)
    p.set_defaults(fn=_cmd_fleet)

    p = sub.add_parser(
        "chaos",
        help="fleet-scale chaos harness: correlated fault storms, a "
             "mid-run crash–recovery drill, and a continuous "
             "invariant auditor")
    p.add_argument("--clients", type=int, default=256,
                   help="total simulated clients (default 256)")
    p.add_argument("--shards", type=int, default=4,
                   help="per-region shards, one simulator each (default 4)")
    p.add_argument("--duration", type=float, default=30.0,
                   help="measured window per shard, simulated seconds")
    p.add_argument("--profile", default="regional-blackout",
                   choices=PROFILE_NAMES,
                   help="storm profile (default regional-blackout)")
    p.add_argument("--no-drill", action="store_true",
                   help="skip the mid-run viceroy crash–restore drill")
    p.add_argument("--sweep", action="store_true",
                   help="run every profile into a scorecard matrix "
                        "(ignores --profile)")
    p.add_argument("--policy", default="odyssey",
                   choices=("odyssey", "laissez-faire", "blind-optimism"))
    p.add_argument("--family", default="urban",
                   choices=("urban", "highway", "office", "robustness"),
                   help="scenario family each shard draws its trace from")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true",
                   help="list every auditor violation row")
    parallel_options(p)
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("cache",
                       help="inspect or clear the on-disk result cache")
    p.add_argument("action", choices=("stats", "clear"), nargs="?",
                   default="stats")
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser(
        "serve",
        help="run the RPC broker: real asyncio TCP, many clients, "
             "namespaced registrations, upcall routing")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (default 0 = ephemeral, printed "
                        "on startup)")
    p.add_argument("--heartbeat", type=float, default=10.0,
                   help="seconds of client silence before the session "
                        "is reaped (default 10)")
    p.add_argument("--run-seconds", type=float, default=None,
                   help="serve for this long then exit cleanly "
                        "(default: until interrupted)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("connect",
                       help="connect to a running broker, measure ping "
                            "latency, optionally call one operation")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--name", default="probe",
                   help="client name to register (default 'probe')")
    p.add_argument("--pings", type=int, default=3,
                   help="round-trip probes to send (default 3)")
    p.add_argument("--call", metavar="OP",
                   help="also call this operation once")
    p.add_argument("--body", metavar="JSON",
                   help="JSON body for --call")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="per-call timeout, seconds (default 5)")
    p.set_defaults(fn=_cmd_connect)

    p = sub.add_parser(
        "loadtest",
        help="hammer a broker with concurrent clients and report "
             "wall-clock throughput, latency percentiles, and upcall "
             "delivery (exit 1 on any error or lost upcall)")
    p.add_argument("--clients", type=int, default=64,
                   help="concurrent asyncio clients (default 64)")
    p.add_argument("--seconds", type=float, default=2.0,
                   help="timed-phase duration, wall seconds (default 2)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="target an already-running broker (default: "
                        "start one in-process on an ephemeral port)")
    p.set_defaults(fn=_cmd_loadtest)

    p = sub.add_parser(
        "live",
        help="run the live adaptation demo: a broker with a square-wave "
             "synthetic link and N adapting clients over real TCP (exit 1 "
             "on lost upcalls or stuck adaptation)")
    p.add_argument("--clients", type=int, default=4,
                   help="adapting clients, alternating video/web ladders "
                        "(default 4)")
    p.add_argument("--seconds", type=float, default=3.0,
                   help="demo duration, wall seconds; the link wave runs "
                        "three phases high/low/high inside it (default 3)")
    p.add_argument("--chunk-bytes", type=int, default=16 * 1024,
                   help="full-fidelity chunk size per period (default 16384)")
    p.add_argument("--period", type=float, default=0.25,
                   help="chunk cadence, seconds (default 0.25)")
    p.add_argument("--high", type=int, default=80_000,
                   help="high-phase link budget per client, bytes/s "
                        "(default 80000)")
    p.add_argument("--low", type=int, default=8_000,
                   help="low-phase link budget per client, bytes/s "
                        "(default 8000)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the live fidelity-transition log")
    p.add_argument("--json-out", metavar="PATH",
                   help="also write the full report as JSON here")
    p.set_defaults(fn=_cmd_live)

    p = sub.add_parser("scenario",
                       help="one urban-walk trial under a chosen policy")
    p.add_argument("--policy", default="odyssey",
                   choices=("odyssey", "laissez-faire", "blind-optimism"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_scenario)

    p = sub.add_parser("telemetry",
                       help="run one instrumented trial and print the "
                            "metrics summary (optionally dumping the "
                            "event trace as JSONL)")
    p.add_argument("--scenario", choices=TELEMETRY_SCENARIOS,
                   default="fig8-supply")
    p.add_argument("--waveform", default="step-up",
                   help="waveform for fig8-supply / adaptation scenarios")
    p.add_argument("--utilization", type=float, default=0.45,
                   help="offered load for the fig9-demand scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events-out", metavar="PATH",
                   help="write the event trace as JSONL here")
    p.set_defaults(fn=_cmd_telemetry)

    p = sub.add_parser(
        "bench",
        help="run the substrate benchmarks, record BENCH_<date>.json, and "
             "compare against benchmarks/baseline.json (exit 1 on "
             "regression)")
    p.add_argument("paths", nargs="*",
                   help="benchmark files to run (default: the kernel and "
                        "estimation microbenchmarks)")
    p.add_argument("--json", metavar="REPORT",
                   help="compare an existing pytest-benchmark JSON report "
                        "instead of running the suite")
    p.add_argument("--baseline", default=BENCH_DEFAULT_BASELINE,
                   help="baseline document to compare against "
                        "(default: benchmarks/baseline.json)")
    p.add_argument("--out-dir", default=".",
                   help="directory for the BENCH_<date>.json capture")
    p.add_argument("--out", metavar="PATH",
                   help="exact path for the capture (overrides --out-dir; "
                        "still never overwrites an existing file)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes inside the benchmarked sweeps "
                        "(passed to pytest as --repro-jobs)")
    p.add_argument("--tolerance-scale", type=float, default=1.0,
                   help="multiply every tolerance band")
    p.add_argument("--metrics", metavar="NAMES",
                   help="comma-separated metric names: compare only these "
                        "(each must exist in baseline and run)")
    p.add_argument("--profile", action="store_true",
                   help="run each benchmark under cProfile, writing a "
                        ".pstats dump and top-20 cumulative table per "
                        "benchmark to OUT_DIR/profiles/ (skips capture "
                        "and comparison: profiled timings are distorted)")
    p.add_argument("--update-baseline", action="store_true",
                   help="refresh the baseline from this run instead of "
                        "comparing")
    p.set_defaults(fn=_cmd_bench)

    return parser


def _run_command(args):
    events_out = getattr(args, "events_out", None)
    if events_out and args.fn is not _cmd_telemetry:
        # Any experiment command gains an event log for free: run it under
        # a live recorder and dump the trace afterwards.  With --jobs > 1
        # the runner merges per-worker event shards into this recorder in
        # unit order, labelling each event with the worker's pid.
        from repro import telemetry
        from repro.telemetry.export import write_recorder_jsonl

        with telemetry.enabled() as rec:
            status = args.fn(args)
        count, dropped = write_recorder_jsonl(rec, events_out)
        print(f"# wrote {count} events to {events_out} "
              f"({dropped} dropped)", file=sys.stderr)
        return status
    return args.fn(args)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.parallel import (
        ResultCache, overrides, resolve_jobs, resolve_timeout,
    )

    jobs = resolve_jobs(getattr(args, "jobs", 1))
    cache = None if getattr(args, "no_cache", False) else ResultCache()
    timeout = resolve_timeout(getattr(args, "timeout", None))
    # Scoped, not global: repeated main() calls (tests, embedding) must
    # not leak one invocation's settings into the next.
    with overrides(jobs=jobs, cache=cache, timeout=timeout):
        return _run_command(args)


if __name__ == "__main__":
    sys.exit(main())
