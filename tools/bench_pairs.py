"""Alternated benchmark pairs of two checkouts of sixff.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
                                 [--seed N] [--pairs K] [--claim METRIC]

Runs ``perfbench/run.py --workload W --seed N --trace 0`` in each
checkout, at that script's own run length, K times each, alternating:
the parent runs first in odd pairs (1, 3, ...) and the change first in
even pairs.  Prints one JSON object in the shape of the ``pairs``
summary of a ``BENCH_<pr>.json``: per end-to-end metric, both sides'
values, medians and quartiles, the change against the parent, the
parent's IQR and how many pairs the change won (lower is better for
every metric).  Each metric with a bound among the ``end_to_end``
metrics of the parent's ``BENCHMARK.json`` also gets that ``bound`` and
a ``verdict``; with ``--workload all`` a metric named
``<workload>.<metric>`` is looked up by its part after the workload:

- ``worse``: the change's median is worse than the parent's by more than
  the bound, relative to the parent's median;
- ``unresolved``: the parent's IQR exceeds the bound relative to its
  median, and not every change run beats every parent run;
- ``ok``: otherwise.

With ``--claim METRIC`` it adds whether the change won at least nine
pairs in ten and its median gap exceeds the parent's IQR.
It stops with exit status 1 at the first run that is not ``correct`` or
whose last line is not JSON, so no summary is drawn from a wrong run.
Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, args):
    """The final JSON line of one untraced benchmark run in `checkout`;
    exit status 1 unless it is JSON and reports the run correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        run = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        run = None
    if not isinstance(run, dict):
        raise SystemExit("%s: last line is not a JSON object (exit %d)\n%s"
                         % (checkout, proc.returncode, proc.stderr))
    if run.get("correct") is not True:
        raise SystemExit("%s: run not correct (exit %d)\n%s"
                         % (checkout, proc.returncode, lines[-1]))
    return run


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def summarise(parent, change):
    """The summary of one metric over the pairs, lower being better."""
    pm, cm = statistics.median(parent), statistics.median(change)
    pq = quartiles(parent)
    return {
        "parent": [round(v, 4) for v in parent],
        "change": [round(v, 4) for v in change],
        "parent_median": round(pm, 4),
        "change_median": round(cm, 4),
        "change_vs_parent": round(cm / pm - 1, 4) if pm else None,
        "parent_quartiles": pq,
        "change_quartiles": quartiles(change),
        "parent_iqr": round(pq[1] - pq[0], 4),
        "change_wins": sum(c < p for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def bounds(checkout):
    """The end-to-end metrics of `checkout`'s BENCHMARK.json by name."""
    path = Path(checkout) / "BENCHMARK.json"
    try:
        with open(path) as fh:
            metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit("%s: no end-to-end bounds (%s)" % (path, exc))
    higher = [n for n, m in metrics.items() if m.get("better") == "higher"]
    if higher:
        raise SystemExit("%s: higher is better for %s; every metric here "
                         "is compared lower-is-better" % (path, higher))
    return metrics


def verdict(summary, bound):
    """`worse`, `unresolved` or `ok` for one summarised metric, lower being
    better, against its relative bound."""
    pm = summary["parent_median"]
    if summary["change_median"] > pm * (1 + bound):
        return "worse"
    if summary["parent_iqr"] > bound * pm and \
            max(summary["change"]) >= min(summary["parent"]):
        return "unresolved"
    return "ok"


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Alternated benchmark pairs of two sixff checkouts.")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", help="end-to-end metric the change claims")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for the quartiles")
    bound_of = bounds(args.parent)
    runs = {"parent": [], "change": []}
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args))
            print("pair %d %s done" % (k, side), file=sys.stderr)
    out = {
        "command": "python3 perfbench/run.py --workload %s --seed %d "
                   "--trace 0, %d pairs" % (args.workload, args.seed,
                                            args.pairs),
        "order": "parent first in odd pairs (1, 3, ...), change first in "
                 "even pairs",
        "correct": all(r["correct"] for rs in runs.values() for r in rs),
        "failed": sum(r["failed"] for rs in runs.values() for r in rs),
        "attempted": {side: sum(r["attempted"] for r in rs)
                      for side, rs in runs.items()},
    }
    for name in runs["parent"][0]["metrics"]:
        out[name] = s = summarise(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]])
        # `--workload all` names each metric <workload>.<metric>
        metric = bound_of.get(name.split(".", 1)[-1], {})
        if "bound" in metric:
            s["bound"] = metric["bound"]
            s["verdict"] = verdict(s, s["bound"])
    if args.claim:
        s = out[args.claim]
        gap = s["parent_median"] - s["change_median"]
        out["claim"] = {
            "metric": args.claim, "median_gap": round(gap, 4),
            "met": 10 * s["change_wins"] >= 9 * s["pairs"]
            and gap > s["parent_iqr"]}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
