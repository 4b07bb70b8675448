#!/usr/bin/env python3
"""Repository benchmark: build perfbench and alt_server from source, run one
workload, check every answer, print one JSON object as the last line.

    python3 perfbench/run.py --workload index-read --seed 1 --seconds 10 --trace 0

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
(default .bench_build); every result set, with its environment record, is
stored under <build dir>/results/. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("index-read", "index-write", "served")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure once, then build incrementally; serialized by a lock file."""
    cmake_dir = os.path.join(bdir, "cmake")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(os.path.join(bdir, "build.lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1),
                      "--target", "perfbench", "alt_server_bin"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return (os.path.join(cmake_dir, "perfbench"),
            os.path.join(cmake_dir, "alt_index", "tools", "alt_server", "alt_server"),
            cmake_dir)


def read_text(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def environment(cmake_dir, binary_env):
    """The record stored with every result set."""
    cpu_model = "unknown"
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    build_type = "unknown"
    for line in read_text(os.path.join(cmake_dir, "CMakeCache.txt")).splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    perf_env = "unavailable"
    script = os.path.join(ROOT, "scripts", "perf_env.sh")
    if os.path.exists(script):
        try:
            perf_env = subprocess.run(["bash", script, "report"], capture_output=True,
                                      text=True, timeout=20).stdout
        except subprocess.TimeoutExpired:
            perf_env = "timed out"
    commit = "unavailable (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # The checkout the benchmark runs in may not be a git repository, so the
    # sources are also identified by content.
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "simd_mode": binary_env.get("simd"),
        "alt_force_scalar": binary_env.get("alt_force_scalar"),
        "cmake_build_type": build_type,
        "perf_env_report": perf_env,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def reap_group(pgid):
    """Kill whatever is left in the process group and wait until it is empty."""
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_binary(cmd):
    """Run in its own process group so that nothing it spawned can outlive it.
    perfbench stops and reaps its servers itself; the group kill covers a crash."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        out, err = proc.communicate()
        sys.stderr.write(err)
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    reap_group(proc.pid)
    return proc.returncode, out, err


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small key sets, for the self-check")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    bdir = build_dir()
    binary, server_bin, cmake_dir = build(bdir)
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    rc, out, err = run_binary([binary, "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--server-bin", server_bin, "--out-dir", results,
                               "--scale", args.scale])
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if not lines:
        fail("workload exited with code %d and printed no result" % rc)
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("workload printed no JSON result (exit code %d)" % rc)

    problems = list(res.get("failures", []))
    metrics = {}
    for name, unit in expected_metrics(args.trace).items():
        m = res["metrics"].get(name)
        if m is None or m.get("unit") != unit or not isinstance(m.get("value"), (int, float)) \
                or not math.isfinite(m["value"]):
            problems.append("metric %s missing or malformed" % name)
            continue
        metrics[name] = {"value": m["value"], "unit": unit}
    correct = bool(res["correct"]) and rc == 0 and not problems
    final = {"correct": correct, "attempted": int(res["attempted"]),
             "failed": int(res["failed"]), "metrics": metrics}

    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {"args": vars(args), "env": environment(cmake_dir, res.get("env", {})),
              "result": final, "diagnostics": res.get("diagnostics", {}),
              "failures": problems}
    record_path = os.path.join(results, "%s-seed%d-trace%d-%s.json" % (
        args.workload, args.seed, args.trace, stamp))
    with open(record_path, "w") as f:
        json.dump(record, f, indent=2)

    print("perfbench %s seed=%d seconds=%d trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    for name, m in metrics.items():
        print("  %-30s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, text in res.get("diagnostics", {}).items():
        print("  # %s: %s" % (name, text))
    for p in problems:
        print("  ! " + p)
    print("  # result set: " + os.path.relpath(record_path, ROOT))
    print(json.dumps(final), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
