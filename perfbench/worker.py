"""One round of one sixff benchmark workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                [--scale full|tiny]

MODE is one of:

- ``setup``: import sixff and generate the inputs, then stop;
- ``plain``: certify every instance with no tracing (the timed pass);
- ``spans``: the same under the span tracer, writing the spans to
  ``.bench_out/`` at the root of the checkout;
- ``counts``: the same under the count-only tracer.

The last line of standard output is one JSON object with the round's
timings, per-instance digests and, when traced, the per-layer metrics.
``run.py`` starts these processes and aggregates them.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_sixff():
    """Put the checkout's own sixff first on the path, or exit 2."""
    if not (SRC / "sixff" / "__init__.py").is_file():
        print("perfbench: no sixff sources at %s" % SRC, file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import sixff
    if Path(sixff.__file__).resolve().parent != (SRC / "sixff").resolve():
        print("perfbench: imported sixff from %s, not from the checkout"
              % sixff.__file__, file=sys.stderr)
        raise SystemExit(2)


def run_round(args):
    import_sixff()
    import tracing
    import workloads

    tracer = None
    if args.mode == "spans":
        tracer = tracing.SpanTracer()
    elif args.mode == "counts":
        tracer = tracing.CountTracer()
    if tracer is not None:
        tracer.install()
    try:
        wl = workloads.make(args.workload, args.seed, args.scale)
        t_setup = time.perf_counter() - T_START
        result = {"workload": args.workload, "seed": args.seed,
                  "scale": args.scale, "mode": args.mode,
                  "fingerprint": wl.fingerprint, "setup_s": t_setup,
                  "instances": len(wl.instances)}
        if args.mode == "setup":
            return result
        times, digests, failures, mismatches = [], {}, [], []
        for inst in wl.instances:
            if args.mode == "spans":
                tracer.instance = inst.id
            t0 = time.perf_counter()
            try:
                out = wl.certify(inst)
            except Exception as exc:  # every error counts as a failure
                times.append(time.perf_counter() - t0)
                failures.append("%s: %s: %s" % (inst.id, type(exc).__name__,
                                                exc))
                continue
            times.append(time.perf_counter() - t0)
            verdict, digest, oracle = wl.check(inst, out)
            digests[inst.id] = digest
            if not verdict:
                failures.append("%s: certificate false or not invertible"
                                % inst.id)
            if not oracle:
                mismatches.append("%s: disagrees with the benchmark's oracle"
                                  % inst.id)
    finally:
        if tracer is not None:
            tracer.remove()
            tracing.assert_clean()
    result.update({
        "instance_s": times, "verdict_s": sum(times), "digests": digests,
        "failures": failures, "mismatches": mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    })
    if args.mode == "spans":
        fired = tracer.fired()
        result["missing_wrappers"] = [
            p for p in tracing.EXPECTED[args.workload] if p not in fired]
        parts = {inst.id: inst.part for inst in wl.instances}
        result["layers"] = tracer.layer_metrics(parts)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / ("spans-%s-%s-seed%d.jsonl.gz"
                          % (args.workload, args.scale, args.seed))
        tracer.dump(path, T_START)
        result["spans_file"] = str(path.relative_to(ROOT))
    elif args.mode == "counts":
        result["layers"] = dict(tracer.counts)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("kernel-coherence", "six-ops-fresh",
                             "hecke-duality"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "plain", "spans", "counts"))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = ap.parse_args(argv)
    print(json.dumps(run_round(args)))


if __name__ == "__main__":
    main()
