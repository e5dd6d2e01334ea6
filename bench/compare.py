"""Compare two result files written by ``run.py --out``.

    python3 bench/compare.py A.json B.json

One row per workload and end-to-end metric: both medians, how much worse
B is than A (in the metric's own direction, as a share of A), the bound,
and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is
``unresolved``  the run-to-run spread of either file is wider than the
                bound, so the medians cannot settle it — unless every run
                of B reads better than every run of A, which is ``ok``

Simulated statistics and call counts are exact for a seed: for runs the
two files share (same workload, seed and kind) they must be identical,
and a difference is reported as ``differs``.  The exit code is non-zero
on any ``worse`` or ``differs``, or when B failed a larger share of its
operations than A.
"""

import json
import math
import sys

from common import load_spec, median, spread

#: Workloads on the simulated clock: their call counts repeat exactly.
SIMULATED = ("fig14_urban", "fleet_512", "fig8_agility")


def load_runs(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def worse_by(metric, base, new):
    """Relative worsening of ``new`` against ``base`` for ``metric``
    (positive = worse, in the metric's own direction)."""
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return -change if metric["better"] == "higher" else change


def widest_spread(a_values, b_values):
    """The wider of the two files' run-to-run spreads (``None`` when
    neither file holds two runs)."""
    return max((s for s in (spread(a_values), spread(b_values))
                if s is not None), default=None)


def verdict(metric, a_values, b_values):
    bound = metric["bound"]
    if (widest_spread(a_values, b_values) or 0.0) > bound:
        sign = 1 if metric["better"] == "higher" else -1
        if min(sign * b for b in b_values) > max(sign * a for a in a_values):
            return "ok"
        return "unresolved"
    worsening = worse_by(metric, median(a_values), median(b_values))
    return "worse" if worsening > bound else "ok"


def failed_share(runs):
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def exact_values(spec, run):
    """What must repeat bit-for-bit when the seed does."""
    values = dict(run["exact"])
    if run["trace"] and run["workload"] in SIMULATED:
        values.update((m["name"], run["metrics"][m["name"]])
                      for m in spec["per_layer"] if m["unit"] == "count")
    return values


def compare(spec, a_runs, b_runs, out=sys.stdout):
    """Print the comparison; returns the number of failing rows."""
    bad = 0
    out.write(f"{'workload':<14} {'metric':<16} {'A':>12} {'B':>12} "
              f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict\n")
    for workload in [w["name"] for w in spec["workloads"]]:
        a = [r for r in a_runs if r["workload"] == workload and not r["trace"]]
        b = [r for r in b_runs if r["workload"] == workload and not r["trace"]]
        if not a or not b:
            continue
        for metric in spec["end_to_end"]:
            a_values = [r["metrics"][metric["name"]] for r in a]
            b_values = [r["metrics"][metric["name"]] for r in b]
            result = verdict(metric, a_values, b_values)
            bad += result == "worse"
            wide = widest_spread(a_values, b_values)
            out.write(
                f"{workload:<14} {metric['name']:<16} "
                f"{median(a_values):>12.6g} {median(b_values):>12.6g} "
                f"{worse_by(metric, median(a_values), median(b_values)):>+9.3f} "
                f"{metric['bound']:>6} "
                f"{'' if wide is None else format(wide, '.3f'):>7}  {result}\n")
        if failed_share(b) > failed_share(a):
            bad += 1
            out.write(f"{workload:<14} failed share rose from "
                      f"{failed_share(a):.6f} to {failed_share(b):.6f}  worse\n")

    keyed = {(r["workload"], r["seed"], r["trace"], r["scale"]): r
             for r in a_runs}
    for run in b_runs:
        twin = keyed.get((run["workload"], run["seed"], run["trace"],
                          run["scale"]))
        if twin is None:
            continue
        ours, theirs = exact_values(spec, run), exact_values(spec, twin)
        for name in sorted(set(ours) | set(theirs)):
            if ours.get(name) != theirs.get(name):
                bad += 1
                out.write(f"{run['workload']:<14} {name} at seed "
                          f"{run['seed']}: {theirs.get(name)!r} -> "
                          f"{ours.get(name)!r}  differs\n")
    return bad


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    bad = compare(load_spec(), load_runs(argv[0]), load_runs(argv[1]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
