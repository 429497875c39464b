#!/usr/bin/env python3
"""Regenerate reference.json: the virtual-output digest of one repetition
of every workload for seeds 0-31.

    python3 perfbench/make_reference.py

Run from the repository root after a deliberate change to the simulator's
virtual behaviour, and record why in CHANGES.md. Digests are a pure
function of (workload, seed, steps), so host speed does not matter.
"""

import concurrent.futures
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEEDS = range(32)


def digest(binary, workload, seed):
    rec, error = run.run_rep(binary, workload, seed, False, None, 300)
    if rec is None or rec["jobs_failed"] or rec["steps_failed"]:
        raise RuntimeError("%s seed %d failed: %s" % (
            workload, seed, error or rec["errors"]))
    return rec["digest"]


def main():
    binary, _ = run.build()
    ref = {}
    # Two repetitions at a time: startup peaks near 1 GB RSS each.
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        for workload in sorted(run.STEPS):
            futures = {seed: pool.submit(digest, binary, workload, seed)
                       for seed in SEEDS}
            ref[workload] = {
                "steps": run.STEPS[workload],
                "digests": {str(s): f.result() for s, f in futures.items()},
            }
    with open(os.path.join(run.HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
