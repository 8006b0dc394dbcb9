#!/usr/bin/env python3
"""Builds and runs the mcpart benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package
(perfbench/Cargo.toml) and the `mcpart` binary into $CARGO_TARGET_DIR
(default .bench_build), prints a host stamp, runs the workload in a
fresh process, and relays its output. The last stdout line is the
workload's JSON result. The exit code is non-zero when the build fails,
a check fails, the result does not match BENCHMARK.json, or the
deterministic outputs differ from an earlier run of the same binaries
and seed.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["mediabench", "gdp_scale", "edit_replay", "serve_resubmit"]
# Outputs that must repeat exactly at a fixed seed (the determinism
# guard); reported under these names untraced and as out.<name> traced.
DETERMINISTIC = ["cycles", "dynamic_moves", "gdp_vs_unified", "gdp_cut"]
RUN_TIMEOUT_S = 170
SERVICE_PROGRESS = re.compile(r"^(job \S+: |serve summary: |recovery: )")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in [("perfbench/Cargo.toml", []), ("Cargo.toml", ["--bin", "mcpart"])]:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(ROOT, manifest)] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    bench = os.path.join(target, "release", "mcpart-perfbench")
    mcpart = os.path.join(target, "release", "mcpart")
    for path in (bench, mcpart):
        if not os.path.isfile(path):
            fail(f"build produced no {path}")
    return bench, mcpart


def stop_session(pid):
    """Kills whatever is left of the workload's session (a daemon the
    workload failed to stop); a no-op when it has already ended."""
    try:
        os.killpg(pid, signal.SIGKILL)
        for _ in range(500):  # wait up to 5 s for the session to end
            time.sleep(0.01)
            os.killpg(pid, 0)
    except ProcessLookupError:
        pass


def host_stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"host: nproc={nproc} cpu={cpu!r} rustc={rustc!r} profile=release"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()[:16]


def deterministic_values(lines, result, trace):
    if trace:
        return {n: result["metrics"][f"out.{n}"]["value"] for n in DETERMINISTIC
                if f"out.{n}" in result["metrics"]}
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "metric" and parts[1] in DETERMINISTIC:
            out[parts[1]] = float(parts[2])
    return out


def guard_determinism(target, key, values):
    """Compares with the values an earlier run of the same binaries,
    workload and seed recorded; returns the names that differ."""
    path = os.path.join(target, "perfbench", "determinism.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    earlier = seen.get(key)
    if earlier is None:
        seen[key] = values
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(seen, f, sort_keys=True)
        os.replace(tmp, path)
        return []
    return sorted(n for n in set(earlier) | set(values) if earlier.get(n) != values.get(n))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    trace = args.trace == "1"

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    bench, mcpart = build(target)
    work = os.path.join(target, "perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    print(host_stamp(), flush=True)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--mcpart", mcpart, "--work-dir", work]
    # One malloc arena: with one per thread, where the set-ups' memory
    # lands depends on the seed, and gdp_scale's peak RSS
    # read 158 or 236 MB by seed; with one it reads 156 MB for every seed.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    # A session of its own, so a timeout also stops the service daemons
    # the workload started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_session(proc.pid)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    stop_session(proc.pid)
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(stdout)
        fail(f"{args.workload} printed no JSON result (exit {proc.returncode})")
    for line in lines[:-1]:
        # The traced serve_resubmit run hosts the service in-process;
        # its per-job progress lines are not benchmark output.
        if not SERVICE_PROGRESS.match(line):
            print(line)

    problems = []
    want = expected_metrics(trace)
    got = {n: m.get("unit") for n, m in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}")
    key = f"{digest([bench, mcpart])}/{args.workload}/{args.seed}/{args.trace}"
    changed = guard_determinism(target, key, deterministic_values(lines, result, trace))
    if changed:
        problems.append(f"determinism: {changed} differ from an earlier run of the same binaries and seed")
    for p in problems:
        print(f"FAILED: {p}")
    if problems:
        result["correct"] = False
        print(json.dumps(result, separators=(",", ":")))
    else:
        print(lines[-1])
    sys.exit(proc.returncode if proc.returncode != 0 else (1 if problems else 0))


if __name__ == "__main__":
    main()
