#!/usr/bin/env python3
"""FairLedger benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator libraries and the fairbench program from source
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR or .bench_build, runs the
workload, checks its outputs and prints one JSON object as the last line of
standard output:

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

--trace 0 measures the end-to-end metrics: a fixed number of fairbench
processes for the workload and S (never a count that depends on elapsed
time), two timed runs each.  Host times are thread CPU seconds.  The run
phase is the sum of each simulated-time chunk's best time, set-up time the
best set-up, peak memory the median process.  The simulated metrics are
deterministic in the seed and must be identical in every repetition.
--trace 1 makes one traced run and prints the per-layer metrics.  Any
failed check exits non-zero without a result.  perfbench/README.md
describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import benchstats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _BENCH = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}
WORKLOADS = [w["name"] for w in _BENCH["workloads"]]

# Host seconds one plain fairbench process takes on the reference host
# (perfbench/README.md).  --seconds S runs round(S / this) processes: a
# fixed count for a given S, whatever the speed of the host or of set-up.
PROCESS_S = {"paper_knee": 2.7, "wide_endorse": 3.4, "zipf_contended": 3.4}
MIN_PROCESSES = 3
# The traced run of this workload also times the fig5-style grid
# ("paper_sweep") through the sweep pool; the sweep's wall on a shared
# 4-vCPU host spread too far across seeds to carry an end-to-end bound.
SWEEP_HOST = "paper_knee"
# Measured only in SWEEP_HOST's traced run; 0 elsewhere.
SWEEP_ONLY = [name for name in PER_LAYER if name.startswith("harness.")]

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures once and builds fairbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) are missing next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "fairbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "fairbench")


def fairbench(binary, workload, seed, mode, *extra):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--mode", mode, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError("fairbench %s exited %d" % (mode, proc.returncode))
    return json.loads(proc.stdout)


def same_sim(runs, what):
    first = runs[0]["sim"]
    for other in runs[1:]:
        if other["sim"] != first:
            raise BenchError("check failed: simulated metrics and fingerprints "
                             "identical across " + what)


def source_hash():
    """SHA-256 over the library and benchmark sources (the checkout need
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, run):
    p = dict(run["provenance"])
    p.pop("config", None)
    p.update({"git_sha": git_sha(), "source_hash": source_hash(),
              "seconds": args.seconds, "trace": args.trace})
    return p


def measure(binary, args):
    """--trace 0: a fixed number of timed processes plus one audited run."""
    processes = max(MIN_PROCESSES, round(args.seconds / PROCESS_S[args.workload]))
    reps = [fairbench(binary, args.workload, args.seed, "plain") for _ in range(processes)]
    audited = fairbench(binary, args.workload, args.seed, "audited")
    same_sim(reps + [audited], "repetitions and the audited run")

    sim = reps[0]["sim"]["values"]
    setups = [s for r in reps for s in r["setup_cpu_s"]]
    # Other load on a shared host only ever slows a set-up or a run, and
    # its median drifts with that load, so host times are best-of over the
    # same number of samples every time.  A run of one seed repeats the same
    # events, so its fixed simulated-time chunks do the same work in every
    # repetition, and the run phase is the sum of each chunk's best time.
    chunks = [c for r in reps for c in r["chunk_cpu_s"]]
    runs = [sum(c) for c in chunks]
    if len({len(c) for c in chunks}) != 1:
        raise BenchError("check failed: every repetition runs the same chunks")
    run_s = sum(min(column) for column in zip(*chunks))
    terminal = reps[0]["terminal"]
    values = {
        "sim_tx_per_s": terminal / run_s,
        "setup_s": min(setups),
        "peak_rss_mib": benchstats.median([r["peak_rss_mib"] for r in reps]),
    }
    log("run phase: chunk-best %.6g s, median run %.6g s, best run %.6g s; "
        "set-up median %.6g s, best %.6g s"
        % (run_s, benchstats.median(runs), min(runs), benchstats.median(setups), min(setups)))
    counts = {"sim_tx_per_s": len(runs), "setup_s": len(setups),
              "peak_rss_mib": len(reps), "share_jain": 1}
    for name in END_TO_END:
        if name in sim:
            values[name] = sim[name]
            counts[name] = int(sim.get(name + ".n", 1))
    values["share_jain"] = audited["share_jain"]
    for name in ("commit_p50_s", "commit_p99_s", "high_commit_p99_s", "low_commit_p99_s"):
        p = sim[name + ".p"]
        log("%s: p%.4g of n=%d (%d beyond)" % (name, p, sim[name + ".n"],
                                              sim[name + ".beyond"]))
    attempted = int(sim["submitted"]) * (len(runs) + 1)
    return values, counts, attempted, reps + [audited]


def trace(binary, args):
    """--trace 1: the traced run, an untraced process to compare it with and,
    for SWEEP_HOST, the probed grid."""
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.csv" % (args.workload, args.seed))
    traced = fairbench(binary, args.workload, args.seed, "traced", "--spans", spans)
    plain = fairbench(binary, args.workload, args.seed, "plain")
    same_sim([traced, plain], "traced and untraced processes")
    runs = [traced, plain]
    values = dict(traced["per_layer"])
    submitted = int(traced["sim"]["values"]["submitted"])
    attempted = submitted * (traced["networks"] + 1)
    if args.workload == SWEEP_HOST:
        sweep = fairbench(binary, "paper_sweep", args.seed, "sweep")
        values.update(sweep["per_layer"])
        attempted += 2 * int(sweep["sim"]["values"]["submitted"])  # N threads, then 1
        runs.append(sweep)
    else:
        for name in SWEEP_ONLY:
            values[name] = 0.0
    missing = [n for n in PER_LAYER if n not in values]
    if missing:
        raise BenchError("traced run lacks per-layer metrics: " + ", ".join(missing))
    counts = {name: 1 for name in PER_LAYER}
    return values, counts, attempted, runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
        if args.trace:
            values, counts, attempted, runs = trace(binary, args)
            units = PER_LAYER
        else:
            values, counts, attempted, runs = measure(binary, args)
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, OSError) as e:
        log("perfbench: %s" % e)
        return 1

    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    prov = provenance(args, runs[0])
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"provenance": prov, "runs": runs}, f, indent=1)
    print(json.dumps({"provenance": prov}))
    for name in units:
        print("%-34s %-16.10g %-6s n=%d" % (name, values[name], units[name], counts[name]))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
