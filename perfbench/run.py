"""sixff benchmark: three certification workloads, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

NAME is ``kernel-coherence``, ``six-ops-fresh``, ``hecke-duality`` or
``all``.  Each round of a workload runs in a fresh single-threaded process
(``worker.py``), so every round pays the cold cost a user of ``sixff`` pays.

With ``--trace 0`` the run starts a few set-up-only processes, then rounds
until ``--seconds`` are used, and reports the end-to-end metrics.  With
``--trace 1`` it runs one untraced round, one round under the span tracer
and one under the count-only tracer, and reports the per-layer metrics.
The metric names and units are those of ``BENCHMARK.json``.

Every instance is checked: sixff's own certificate, the benchmark's
independent oracle, agreement between rounds and, at the default seed, the
per-instance digests in ``reference.json``.  The last line of standard
output is one JSON object; the exit code is 1 on any failure or mismatch
and 2 when the checkout holds no sixff sources.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("kernel-coherence", "six-ops-fresh", "hecke-duality")
DEFAULT_SEED = 0
# Set-up-only processes per untraced run.  Round processes add their own
# set-up times to the same sample.
SETUP_PROBES = 9
# Tail percentile per workload: one round already leaves at least ten
# samples beyond it (40, 160 and 241 instances), so a slow machine that fits
# fewer rounds reports the same percentile.  LADDER is the fallback for the
# tiny scale.
TAIL_PERCENTILE = {"kernel-coherence": 75, "six-ops-fresh": 90,
                   "hecke-duality": 90}
LADDER = (99, 95, 90, 75, 50)
# A run must end within this many seconds.
DEADLINE_S = 175.0


class RunError(Exception):
    """A worker process failed; the run has no valid result."""


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker(workload, seed, mode, scale, deadline):
    """Run one worker process and return its JSON result."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--scale", scale]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("%s %s round exceeded the run deadline"
                       % (workload, mode))
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise RunError("%s %s worker exited %d:\n  %s"
                       % (workload, mode, proc.returncode, "\n  ".join(tail)))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def percentile(sorted_values, p):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    n = len(sorted_values)
    k = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[k - 1], n - k


def tail(workload, values):
    """(percentile, value, samples beyond): the workload's fixed tail
    percentile if it leaves ten samples beyond it, else the highest rung of
    LADDER that does."""
    values = sorted(values)
    for p in (TAIL_PERCENTILE[workload],) + LADDER:
        v, beyond = percentile(values, p)
        if beyond >= 10:
            return p, v, beyond
    return (50,) + percentile(values, 50)


def load_reference(seed, scale):
    if seed != DEFAULT_SEED or scale != "full":
        return None
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def check_rounds(workload, rounds, reference):
    """Count failed instances and mismatches over all rounds.  A mismatch is
    an oracle disagreement, a digest that differs between rounds or from
    the reference, or a differing input fingerprint."""
    failed = sum(len(r["failures"]) for r in rounds)
    mismatch = sum(len(r["mismatches"]) for r in rounds)
    notes = [m for r in rounds for m in r["failures"] + r["mismatches"]]
    want_fp, want = rounds[0]["fingerprint"], {}
    if reference is not None:
        want_fp = reference["fingerprints"][workload]
        want = reference["digests"][workload]
    for r in rounds:
        if r["fingerprint"] != want_fp:
            mismatch += 1
            notes.append("input fingerprint %s, expected %s"
                         % (r["fingerprint"], want_fp))
        for iid, digest in r["digests"].items():
            expected = want.get(iid) if reference is not None \
                else want.setdefault(iid, digest)
            if expected != digest:
                mismatch += 1
                notes.append("%s: digest %s, expected %s"
                             % (iid, digest, expected))
    attempted = sum(len(r["instance_s"]) for r in rounds)
    return attempted, failed, mismatch, notes


def run_untraced(workload, seed, seconds, scale, deadline):
    start = time.monotonic()
    worker(workload, seed, "setup", scale, deadline)   # warms bytecode caches
    setups = [worker(workload, seed, "setup", scale, deadline)
              for _ in range(SETUP_PROBES)]
    rounds = [worker(workload, seed, "plain", scale, deadline)]
    while True:
        # another round only if the median round still fits in the time left
        now = time.monotonic()
        left = min(seconds - (now - start), deadline - now)
        if statistics.median(r["wall_s"] for r in rounds) > left:
            break
        rounds.append(worker(workload, seed, "plain", scale, deadline))
    instance_ms = [t * 1000.0 for r in rounds for t in r["instance_s"]]
    p, tail_ms, beyond = tail(workload, instance_ms)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + rounds),
        "verdict_s": statistics.median(r["verdict_s"] for r in rounds),
        "instance_p50_ms": statistics.median(instance_ms),
        "instance_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    info = {"rounds": len(rounds), "instances": rounds[0]["instances"],
            "fingerprint": rounds[0]["fingerprint"],
            "tail": "p%g of %d samples, %d beyond" % (p, len(instance_ms),
                                                       beyond)}
    return rounds, metrics, info


def run_traced(workload, seed, scale, deadline):
    plain = worker(workload, seed, "plain", scale, deadline)
    spans = worker(workload, seed, "spans", scale, deadline)
    counts = worker(workload, seed, "counts", scale, deadline)
    if spans["missing_wrappers"]:
        raise RunError("%s: expected wrappers never fired: %s"
                       % (workload, ", ".join(spans["missing_wrappers"])))
    metrics = dict(spans["layers"])
    metrics.update(counts["layers"])
    metrics["bench.trace_overhead"] = spans["verdict_s"] / plain["verdict_s"]
    info = {"rounds": 3, "instances": plain["instances"],
            "fingerprint": plain["fingerprint"],
            "spans": spans["spans_file"]}
    return [plain, spans, counts], metrics, info


def run_workload(workload, args, deadline):
    """Run one workload, print its metrics by name, and return its result
    object (correct, attempted, failed, metrics)."""
    bench = spec()
    if args.trace:
        rounds, values, info = run_traced(workload, args.seed, args.scale,
                                          deadline)
        wanted = bench["per_layer"]
    else:
        rounds, values, info = run_untraced(workload, args.seed, args.seconds,
                                            args.scale, deadline)
        wanted = bench["end_to_end"]
    reference = load_reference(args.seed, args.scale)
    attempted, failed, mismatch, notes = check_rounds(workload, rounds,
                                                      reference)
    print("%s seed %d (%s): inputs %s, %d instances, %d rounds"
          % (workload, args.seed, args.scale, info["fingerprint"],
             info["instances"], info["rounds"]))
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        extra = "  (%s)" % info["tail"] if m["name"] == "instance_tail_ms" \
            else ""
        print("  %-32s %14.6g %s%s" % (m["name"], value, m["unit"], extra))
    print("  %-32s %14.6g ratio  (%d of %d instances)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    print("  %-32s %14d count  (reference: %s)"
          % ("verdict_mismatch", mismatch,
             "reference.json" if reference else "rounds agree, oracle"))
    if args.trace:
        print("  spans written to %s" % info["spans"])
    for note in notes[:10]:
        print("  ! " + note)
    correct = failed == 0 and mismatch == 0
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Run the sixff benchmark (see perfbench/README.md).")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measurement time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sixff" / "__init__.py").is_file():
        print("perfbench: no sixff sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, deadline)
    except RunError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
