#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, measured the way it is judged.

    python3 perfbench/spread.py --workloads served --seeds 1-5 [--seconds 10]

Runs run.py once per (workload, seed), then prints for every end-to-end
metric the median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Raw results go to <build dir>/results/spread-<stamp>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="index-read,index-write,served")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    raw = {}
    ok = True
    for w in args.workloads.split(","):
        raw[w] = []
        for s in args.seeds:
            t0 = time.time()
            r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                "--seed", str(s), "--seconds", str(seconds),
                                "--trace", "0"],
                               capture_output=True, text=True, cwd=ROOT)
            wall = time.time() - t0
            lines = r.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if r.returncode == 0 and lines else None
            if res is None or not res["correct"]:
                ok = False
                print("%s seed %d FAILED (exit %d)\n%s" % (w, s, r.returncode, r.stderr[-2000:]))
                continue
            res["wall_s"] = wall
            raw[w].append(res)
            print("%s seed %d: %.1f s wall" % (w, s, wall), flush=True)
        if len(raw[w]) < 2:
            continue
        print("\n%s over %d runs" % (w, len(raw[w])))
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in raw[w]]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = m["bound"]
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print("  %-30s median %12.6g %-7s spread %6.3f  bound %s %s" % (
                m["name"], med, m["unit"], spread, bound, flag))
        print(flush=True)
    bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT if not os.path.isabs(bdir) else "", bdir, "results",
                       "spread-%s.json" % time.strftime("%Y%m%dT%H%M%S"))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)
    print("raw results: " + os.path.relpath(out, ROOT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
