#!/usr/bin/env python3
"""Host-cost benchmark of the simulator.

    python3 perfbench/run.py --workload startup|collective|hybrid \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_host from ../src (Release,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then
repeats the workload, one process per repetition, until S seconds have
passed (at least MIN_REPS repetitions). Each repetition runs the same
seeded inputs, so every repetition must produce the same virtual digest;
for seeds in reference.json the digest must also equal the stored one.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones. README.md defines every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Steps per repetition. Fixed, so a repetition's virtual output is a pure
# function of the seed and its digest can be stored.
STEPS = {"startup": 3, "collective": 25, "hybrid": 3}
MIN_REPS = 3
# A run must end within RUN_LIMIT_S of starting to measure.
RUN_LIMIT_S = 150.0
OPS = ["put_first", "put_warm", "fcollect_8", "fcollect_4k", "reduce",
       "barrier"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build perfbench_host; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_host",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_host"), build_dir


def run_rep(binary, workload, seed, trace, trace_out, timeout):
    """One repetition in its own process. Returns (record, error)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--steps", str(STEPS[workload]), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "timed out after %.0f s (hang or livelock)" % timeout
    if proc.returncode != 0:
        return None, "exit code %d: %s" % (proc.returncode, err.strip()[-500:])
    try:
        return json.loads(out.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unreadable output: " + out[-500:]


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def load_reference(workload, seed):
    try:
        with open(os.path.join(HERE, "reference.json")) as f:
            ref = json.load(f)
    except FileNotFoundError:
        return None
    entry = ref.get(workload, {})
    if entry.get("steps") != STEPS[workload]:
        return None
    return entry.get("digests", {}).get(str(seed))


class Tally:
    """Attempted/failed jobs and steps, plus digest agreement."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.reference = load_reference(workload, seed)
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, rec, error):
        # A repetition is every job of the workload plus every step of each.
        jobs = 2 if self.workload == "startup" else 1
        planned = jobs + jobs * STEPS[self.workload]
        self.attempted += planned
        if rec is None:
            self.failed += planned
            self.errors.append(error)
            return
        failed = rec["jobs_failed"] + rec["steps_failed"]
        self.errors += rec["errors"]
        # Traced and untraced repetitions are held to one digest: telemetry
        # must leave virtual time bit-identical.
        digest = rec["digest"]
        if self.digest is None:
            self.digest = digest
        expected = self.reference or self.digest
        if digest != expected:
            # Virtual output changed: every job of the repetition failed.
            failed = max(failed, rec["jobs"])
            self.errors.append("virtual digest %s != %s%s" % (
                digest, expected,
                " (stored reference)" if self.reference else
                " (first repetition)"))
        self.failed += failed


def end_to_end(recs):
    steps = [ms for r in recs for ms in r["step_host_ms"]]
    metrics = {
        "host_s": (median([r["host_s"] for r in recs]), "s"),
        "setup_s": (median([r["setup_s"] for r in recs]), "s"),
        "events_per_s": (median([r["events"] / r["run_host_s"]
                                 for r in recs]), "1/s"),
        "step_host_ms.p50": (percentile(steps, 50), "ms"),
        "step_host_ms.p90": (percentile(steps, 90), "ms"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in recs]), "MB"),
    }
    log("%s: %d repetitions, step_host_ms p50 %.2f / p90 %.2f over %d steps"
        % (recs[0]["workload"], len(recs), metrics["step_host_ms.p50"][0],
           metrics["step_host_ms.p90"][0], len(steps)))
    return metrics


def per_layer(traced, untraced):
    first = traced[0]
    c = first["counters"]
    ph = first["phases_vns"]
    fid = first["fidelity"]
    hs = first["handshake"]

    def cnt(*names):
        return float(sum(c.get(n, 0) for n in names))

    def med(key):
        return median([r[key] for r in traced])

    od_heap = first["od_reg_heap_bytes"]
    m = {
        "sim.events": (float(first["events"]), "count"),
        "sim.run_host_s": (med("run_host_s"), "s"),
        "sim.ns_per_event": (median([1e9 * r["run_host_s"] / r["events"]
                                     for r in traced]), "ns"),
        "sim.dispatch_ns": (med("dispatch_ns"), "ns"),
        "phase.init_host_s": (med("phase_init_host_s"), "s"),
        "phase.work_host_s": (med("phase_work_host_s"), "s"),
        "phase.finalize_host_s": (med("phase_finalize_host_s"), "s"),
        "mem.setup_mb": (med("mem_setup_mb"), "MB"),
        "mem.init_mb": (med("mem_init_mb"), "MB"),
        "fabric.qp_created_rc": (cnt("qp_created_rc"), "count"),
        "fabric.qp_created_ud": (cnt("qp_created_ud"), "count"),
        "fabric.rma_ops": (cnt("shmem_put", "shmem_get", "shmem_atomic"),
                           "count"),
        "fabric.reg.chunk_misses": (cnt("reg_chunk_misses"), "count"),
        "fabric.reg.faults_served": (cnt("reg_faults_served"), "count"),
        "fabric.reg.pinned_hw_frac": (
            cnt("reg_pinned_highwater_bytes") / od_heap if od_heap else 0.0,
            "frac"),
        "core.connections_established": (cnt("connections_established"),
                                         "count"),
        "core.conn_retransmits": (cnt("conn_retransmits"), "count"),
        "core.conn_collisions": (cnt("conn_collisions"), "count"),
        "core.handshake_vus.p50": (hs.get("p50_vus", 0.0), "us"),
        "core.handshake_vus.p99": (hs.get("p99_vus", 0.0), "us"),
        "core.evictions": (cnt("conn_evictions"), "count"),
        "core.qp_reclaimed": (cnt("qp_retired_reclaimed"), "count"),
        "core.am_sent": (cnt("am_sent"), "count"),
        "core.am_bytes": (float(first["am_bytes"]), "B"),
        "core.bulk_tier_eager": (cnt("bulk_tier_eager"), "count"),
        "core.bulk_tier_pipelined": (cnt("bulk_tier_pipelined"), "count"),
        "core.bulk_tier_rendezvous": (cnt("bulk_tier_rendezvous"), "count"),
        "core.bulk_fragments_sent": (cnt("bulk_fragments_sent"), "count"),
        "core.credit_stalls": (cnt("credit_stalls"), "count"),
        "core.credit_stall_vus": (ph.get("credit_stall_time", 0) / 1e3,
                                  "us"),
        "pmi.exchange_vs": (fid["pmi.exchange_vs"], "s"),
        "shmem.start_pes_vs": (fid["shmem.start_pes_vs"], "s"),
        "shmem.endpoints_per_pe": (fid["shmem.endpoints_per_pe"], "count"),
        "shmem.peers_per_pe": (fid["shmem.peers_per_pe"], "count"),
    }
    for op in OPS:
        vus = [v for r in traced for v in r["ops"].get(op, {}).get("vus", [])]
        hms = [v for r in traced
               for v in r["ops"].get(op, {}).get("host_ms", [])]
        m["shmem.%s_vus.p50" % op] = (percentile(vus, 50), "us")
        m["shmem.%s_host_ms.p50" % op] = (percentile(hms, 50), "ms")
    m.update({
        "mpi.sends": (cnt("mpi_send"), "count"),
        "mpi.rdv_sends": (cnt("mpi_rdv_sends"), "count"),
        "mpi.credit_stalls": (cnt("mpi_credit_stalls"), "count"),
        "mpi.matchbox_created": (cnt("mpi_matchbox_created"), "count"),
        "telemetry.overhead_frac": (
            median([r["host_s"] for r in traced]) /
            median([r["host_s"] for r in untraced]) - 1.0, "frac"),
        "telemetry.spans": (float(first["spans"]), "count"),
    })
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(STEPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        binary, build_dir = build()
    except (RuntimeError, OSError) as e:
        log("perfbench: %s" % e)
        return 1

    tally = Tally(args.workload, args.seed)
    untraced, traced = [], []
    trace_out = os.path.join(build_dir,
                             "trace_%s_%d.json" % (args.workload, args.seed))
    start = time.monotonic()
    reps = 0
    # With --trace 1, traced and untraced repetitions alternate so the
    # telemetry overhead compares runs under the same machine conditions.
    while True:
        elapsed = time.monotonic() - start
        if reps >= MIN_REPS * (2 if args.trace else 1) and \
                elapsed >= args.seconds:
            break
        trace = bool(args.trace) and reps % 2 == 1
        rec, error = run_rep(binary, args.workload, args.seed, trace,
                             trace_out if trace else None,
                             RUN_LIMIT_S - elapsed)
        reps += 1
        tally.add(rec, error)
        if rec is not None:
            (traced if trace else untraced).append(rec)
        elif error.startswith("timed out"):
            break  # a hang used up the run's time

    for e in tally.errors[:10]:
        log("perfbench: FAILED: %s" % e)
    if tally.reference is None:
        log("perfbench: no stored reference digest for %s seed %d; "
            "repetitions checked against each other" %
            (args.workload, args.seed))
    log("perfbench: digest %s, failed_frac %d/%d" %
        (tally.digest, tally.failed, tally.attempted))

    if args.trace:
        ok = traced and untraced
        metrics = per_layer(traced, untraced) if ok else {}
    else:
        metrics = end_to_end(untraced) if untraced else {}
    print(json.dumps({
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
