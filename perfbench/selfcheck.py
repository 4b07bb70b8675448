#!/usr/bin/env python3
"""Self-check of the benchmark at tiny scale (seconds per run).

    python3 perfbench/selfcheck.py

For every workload, untraced and traced: run.py must exit 0, report
correct with no failed op, and print every metric BENCHMARK.json names for
that mode with its unit; a traced run must write its span file. Finally the
benchmark must fail, without printing a result, in a directory that holds
only BENCHMARK.json and perfbench/. Exits non-zero on the first problem.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(cond, msg):
    if not cond:
        print("selfcheck FAILED: " + msg)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                "--seed", "7", "--seconds", "1", "--trace", str(trace),
                                "--scale", "tiny"], capture_output=True, text=True, cwd=ROOT,
                               timeout=300)
            what = "%s trace=%d" % (w, trace)
            check(r.returncode == 0, "%s exited %d:\n%s" % (what, r.returncode, r.stderr[-3000:]))
            lines = r.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  what + ": last line must hold exactly correct/attempted/failed/metrics")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  what + ": not correct")
            expected = spec["per_layer" if trace else "end_to_end"]
            for m in expected:
                got = res["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      "%s: metric %s missing or with the wrong unit" % (what, m["name"]))
            check(len(res["metrics"]) == len(expected), what + ": unexpected extra metrics")
            if trace:
                span = [ln for ln in lines if "# span_file:" in ln]
                check(span, what + ": no span file reported")
                path = span[0].split("# span_file:")[1].split(" (")[0].strip()
                with open(path if os.path.isabs(path) else os.path.join(ROOT, path)) as f:
                    check(json.load(f)["traceEvents"], what + ": empty span file")
            print("ok  " + what)

    # Only BENCHMARK.json and the benchmark's own files: no sources to build.
    bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bare = os.path.join(bdir if os.path.isabs(bdir) else os.path.join(ROOT, bdir), "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "served", "--seed",
                        "1", "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                       cwd=bare, env=env, timeout=180)
    check(r.returncode != 0, "a bare directory must make the benchmark fail")
    check(not r.stdout.strip().startswith("{") and '"correct"' not in r.stdout,
          "a bare directory must print no result")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
