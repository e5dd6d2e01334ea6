"""The repository benchmark: one command, every metric by name.

    python3 bench/run.py --seed N [--workload W] [--traced] [--smoke]
                         [--repeat K] [--out FILE]

runs every workload of ``BENCHMARK.json`` (or the one named), each in a
fresh single-threaded subprocess, checks its outputs, and prints each
metric with unit, direction and bound.  ``--traced`` adds the per-layer
run; ``--out`` writes a result file for ``compare.py``.

The driver's form is

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

whose last line of output is the contract's JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is non-zero when a run could not be made or any
correctness check failed.
"""

import argparse
import json
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    REPO,
    load_average,
    load_spec,
    machine_fingerprint,
    median,
    require_source_tree,
    spread,
)

#: A worker that has not finished by then is killed (the contract's
#: limit on a whole run is 180 s).
WORKER_TIMEOUT = 170.0
#: Set-up is repeated in fresh processes and its median reported.
SETUP_REPEATS = 3


class RunFailed(Exception):
    """A worker died, hung, or printed something that is not a result."""


def spawn_worker(workload, seed, seconds, trace, scale, setup_only=False):
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scale", str(scale),
               "--spawned-at", repr(time.monotonic())]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(command, cwd=REPO, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload}: worker exceeded {WORKER_TIMEOUT} s") \
            from None
    if done.returncode != 0:
        raise RunFailed(f"{workload}: worker exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"{workload}: worker printed no result") from None


def run_workload(spec, workload, seed, seconds, trace, scale, setup_repeats):
    """One run: the worker itself plus the extra set-up-only processes."""
    result = spawn_worker(workload, seed, seconds, trace, scale)
    setups = [result["setup_s"]]
    # Set-up time is an end-to-end metric; a traced run reports none.
    for _ in range(0 if trace else setup_repeats - 1):
        extra = spawn_worker(workload, seed, seconds, trace, scale,
                             setup_only=True)
        setups.append(extra["setup_s"])
        result["problems"] += extra["problems"]
    values = result.pop("metrics")
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        # A layer a workload never enters did no work there: zero.
        metrics = {name: values.get(name, 0.0) for name in names}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values["setup_s"] = median(setups)
        metrics = {name: values[name] for name in names if name in values}
    if set(values) - set(names) or len(metrics) != len(names):
        raise RunFailed(f"{workload}: emitted {sorted(values)}, but "
                        f"BENCHMARK.json names {names}")
    result.update({"seed": seed, "seconds": seconds, "trace": trace,
                   "scale": scale, "metrics": metrics,
                   "setup_samples": setups,
                   "correct": not result["problems"]
                   and result["failed"] == 0})
    return result


def contract_object(spec, run):
    """The JSON object the benchmark contract asks for."""
    kind = "per_layer" if run["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    return {
        "correct": run["correct"],
        "attempted": max(1, run["attempted"]),
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in run["metrics"].items()},
    }


def print_table(spec, workload, runs):
    """Every metric of one workload by name, unit, direction and bound."""
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        chosen = [r for r in runs if r["trace"] == trace]
        if not chosen:
            continue
        seeds = ", ".join(str(r["seed"]) for r in chosen)
        print(f"\n{workload}  [{kind}]  seed {seeds}  "
              f"{chosen[0]['seconds']:g} s")
        print(f"  {'metric':<32} {'median':>14} {'unit':<8} {'better':<7} "
              f"{'bound':>6} {'spread':>7}")
        for metric in spec[kind]:
            values = [r["metrics"][metric["name"]] for r in chosen]
            if trace and not any(values):
                continue  # a layer this workload never enters
            wide = spread(values)
            print(f"  {metric['name']:<32} {median(values):>14.6g} "
                  f"{metric['unit']:<8} {metric['better']:<7} "
                  f"{metric.get('bound', ''):>6} "
                  f"{'' if wide is None else format(wide, '.3f'):>7}")
        for run in chosen:
            counts = ", ".join(f"{k}={v}" for k, v in run["samples"].items())
            print(f"  seed {run['seed']}: attempted {run['attempted']}, "
                  f"failed {run['failed']}, samples: {counts}")
            for name, value in run["exact"].items():
                print(f"    exact {name} = {value!r}")
            for problem in run["problems"]:
                print(f"    PROBLEM: {problem}")


def main(argv=None):
    require_source_tree()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed section per run (default "
                             f"{spec['run_seconds']}; 1/10 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end run only; 1: per-layer run only")
    parser.add_argument("--traced", action="store_true",
                        help="make both the end-to-end and the per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1/10 size, all checks on")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds N, N+1, ...")
    parser.add_argument("--out", help="write a result file for compare.py")
    args = parser.parse_args(argv)

    scale = 0.1 if args.smoke else 1.0
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"] * scale
    setup_repeats = 1 if args.smoke else SETUP_REPEATS
    traces = (0, 1) if args.traced else (args.trace or 0,)
    workloads = [args.workload] if args.workload else names
    # Only a result file carries the fingerprint (it asks git for the
    # commit); the driver's form touches nothing outside the checkout.
    fingerprint = machine_fingerprint(args.seed) if args.out else None

    runs = []
    try:
        for workload in workloads:
            for seed in range(args.seed, args.seed + args.repeat):
                for trace in traces:
                    runs.append(run_workload(spec, workload, seed, seconds,
                                             trace, scale, setup_repeats))
            print_table(spec, workload,
                        [r for r in runs if r["workload"] == workload])
    except RunFailed as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2

    if args.out:
        fingerprint["load_average_end"] = load_average()
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"fingerprint": fingerprint, "smoke": args.smoke,
                       "runs": runs}, handle, indent=1)
    correct = all(run["correct"] for run in runs)
    print()
    if len(runs) == 1:
        print(json.dumps(contract_object(spec, runs[0])))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "runs": len(runs),
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
