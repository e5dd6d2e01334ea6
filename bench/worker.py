"""Run one workload in this (fresh, single-threaded) process.

``run.py`` starts this file once per run; nothing else should.  The last
line of standard output is one JSON object describing the run.
"""

import argparse
import json
import resource
import sys
import time

from common import require_source_tree

#: Set-up ends, and the timed section begins, at the first timed operation;
#: the parent's spawn instant comes in on the command line because
#: ``time.monotonic`` is one clock for every process on the host.
PROCESS_STARTED = time.monotonic()


def workload_classes():
    from live_workloads import BrokerRpc, LiveAdapt, LiveBulk
    from sim_workloads import Fig8Agility, Fig14Urban, Fleet512

    classes = (Fig14Urban, Fleet512, Fig8Agility, BrokerRpc, LiveBulk,
               LiveAdapt)
    return {cls.name: cls for cls in classes}


def run(args):
    require_source_tree()
    workload = workload_classes()[args.workload](args.seed, args.scale)
    started = args.spawned_at if args.spawned_at is not None \
        else PROCESS_STARTED
    workload.setup()
    setup_s = time.monotonic() - started
    try:
        if not args.setup_only:
            if args.trace:
                workload.trace(args.seconds)
            else:
                workload.measure(args.seconds)
                workload.check()
    finally:
        workload.teardown()
    result = {
        "workload": workload.name,
        "setup_s": setup_s,
        "problems": workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
    }
    if not args.setup_only:
        if args.trace:
            metrics = workload.layer
        else:
            metrics = workload.end_to_end()
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update({
            "metrics": metrics,
            "exact": workload.exact,
            "samples": {name: len(values)
                        for name, values in workload.samples.items()},
            "timed_wall_s": workload.wall_seconds,
            "timed_cpu_s": workload.cpu_seconds,
            "info": workload.info,
        })
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
