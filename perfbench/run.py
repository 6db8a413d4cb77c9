#!/usr/bin/env python3
"""Segment-to-alarm benchmark for dcs_netsim::run_pipeline.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload flood_fanin --seed 1 --seconds 25 --trace 0

Builds the `perfbench` crate (release, into $CARGO_TARGET_DIR or
.bench_build), then:

  --trace 0  alternates, CHUNKS times, COLD_PER_CHUNK fresh processes that
             each generate feeds from a seed derived from --seed and make
             one cold run_pipeline pass (setup_s, peak_rss_mb), and one
             process that times warm run_pipeline passes and the untraced
             serial replay for --seconds / CHUNKS (segments_per_s,
             serial_segments_per_s, from the median of the pooled passes);
  --trace 1  runs one process that replays the job through the layers'
             public calls inside spans for --seconds and reports the
             per-layer metrics (spans go to perfbench/out/). The counts
             that the workload's configuration fixes (evaluations,
             alarms, saves, sample counts...) go on a `counts:` line.

Every pass is checked. The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only if every pass was correct.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("flood_fanin", "pulse_window", "spoof_sharded")
# A --trace 0 run is cut into CHUNKS, each a few cold processes and then a
# warm process, so that both kinds of sample span the whole run rather
# than one end of it. Medians over all cold processes and over the warm
# passes pooled across chunks are reported.
CHUNKS = 2
COLD_PER_CHUNK = 5
BUILD_TIMEOUT_S = 850
CHILD_TIMEOUT_S = 170

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary and returns its path, or None."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"build failed: {err}")
        return None
    binary = target / "release" / "perfbench"
    if done.returncode != 0 or not binary.is_file():
        log(f"build failed (exit {done.returncode})")
        return None
    return binary


def run_child(binary, mode, args, seed, seconds):
    """Runs one benchmark process; returns its parsed output line."""
    cmd = [str(binary), mode, "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--out", str(OUT)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{mode} run failed: {err}")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(f"{mode} run failed (exit {done.returncode})")
        return None
    return json.loads(lines[-1])


def host_record(seed):
    """Seed, core count, CPU model and the build's rustflags."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    flags = "none"
    config = ROOT / ".cargo" / "config.toml"
    if config.is_file():
        found = re.search(r"^rustflags\s*=\s*\[(.*)\]", config.read_text(),
                          re.MULTILINE)
        if found:
            flags = " ".join(re.findall(r'"([^"]*)"', found.group(1)))
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "rustflags": flags}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(binary, args):
    # Each cold process gets its own input instance, derived from the
    # seed, so the median also evens out how memory depends on the input
    # (on spoof_sharded, 192-232 MB across inputs, repeatable per input).
    cold_runs = CHUNKS * COLD_PER_CHUNK
    cold, warm = [], []
    for chunk in range(CHUNKS):
        for i in range(chunk * COLD_PER_CHUNK, (chunk + 1) * COLD_PER_CHUNK):
            cold.append(run_child(binary, "cold", args,
                                  args.seed * cold_runs + i, 0))
        warm.append(run_child(binary, "warm", args, args.seed,
                              args.seconds / CHUNKS))
    runs = cold + warm
    if any(r is None for r in runs):
        return None
    cold_results = [r["result"] for r in cold]
    setup = [c["generate_s"] + c["pass_s"] for c in cold_results]
    rss = [c["peak_rss_mb"] for c in cold_results]
    pipeline_s = [t for w in warm for t in w["result"]["pipeline_s"]]
    serial_s = [t for w in warm for t in w["result"]["serial_s"]]
    segments = warm[0]["result"]["segments"]
    log(f"cold setup_s {[round(s, 4) for s in setup]}, "
        f"peak_rss_mb {[round(r, 2) for r in rss]}; "
        f"{len(pipeline_s)} warm rounds over {segments} segments "
        f"-> {warm[0]['result']['updates']} updates")
    metrics = {
        "segments_per_s": metric(segments / statistics.median(pipeline_s), "1/s"),
        "serial_segments_per_s": metric(segments / statistics.median(serial_s), "1/s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    return runs, metrics, {}


def per_layer(binary, args):
    traced = run_child(binary, "traced", args, args.seed, args.seconds)
    if traced is None:
        return None
    return [traced], traced["result"]["metrics"], traced["result"]["counts"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    record = host_record(args.seed)
    measured = (per_layer if args.trace else end_to_end)(binary, args)
    if measured is None:
        return 2
    runs, metrics, counts = measured
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(
        json.dumps(dict(record, counts=counts, **result), indent=1) + "\n")
    print(f"workload: {args.workload}  seed: {args.seed}  nproc: {record['nproc']}  "
          f"cpu: {record['cpu']}  rustflags: {record['rustflags']}")
    if counts:
        print(f"counts: {json.dumps(counts)}")
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} passes failed)")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
