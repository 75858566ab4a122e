"""Write perfbench/reference.json: the input fingerprint and the digest of
every instance's certified outputs, for the default seed at full scale.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter certified outputs; the digests
are the benchmark's check that an optimisation left every certificate
bit-identical.  It refuses to record a round with any failure or oracle
disagreement.
"""

import json
import sys
import time

from run import DEFAULT_SEED, HERE, WORKLOADS, RunError, worker


def main():
    ref = {"seed": DEFAULT_SEED, "scale": "full", "fingerprints": {},
           "digests": {}}
    deadline = time.monotonic() + 600.0
    for name in WORKLOADS:
        try:
            r = worker(name, DEFAULT_SEED, "plain", "full", deadline)
        except RunError as exc:
            print("make_reference: %s" % exc, file=sys.stderr)
            return 1
        if r["failures"] or r["mismatches"]:
            print("make_reference: %s has failures: %s"
                  % (name, r["failures"] + r["mismatches"]), file=sys.stderr)
            return 1
        ref["fingerprints"][name] = r["fingerprint"]
        ref["digests"][name] = r["digests"]
        print("%s: %d instances, inputs %s" % (name, len(r["digests"]),
                                               r["fingerprint"]))
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
