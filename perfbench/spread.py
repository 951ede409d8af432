#!/usr/bin/env python3
"""Runs the benchmark once per seed on one workload and prints, for every
end-to-end metric, its median and its interquartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload restart --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload reproduce --seeds 1-10 --out runs.jsonl

A spread at or above a third of its bound is flagged; setup_s's spread is
shown but, like the acceptance check, not held to its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(args):
    out = []
    for a in args:
        lo, _, hi = a.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", nargs="+", default=["1-5"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", help="append every run's two output lines here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        res = json.loads(lines[-1])
        detail = json.loads(lines[-2]) if len(lines) > 1 else {}
        env = detail.get("env", {})
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              f"wall={wall:.1f}s cpu_ref_ms={env.get('cpu_ref_ms_start', 0):.1f}/{env.get('cpu_ref_ms_end', 0):.1f}",
              flush=True)
        if args.out:
            with open(args.out, "a") as f:
                f.write("\n".join(lines[-2:]) + "\n")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for m in metrics:
        vs = values.get(m["name"])
        if not vs:
            continue
        med = statistics.median(vs)
        line = f"{m['name']:36s} median {med:12.6g}"
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            sp = (q3 - q1) / abs(med)
            line += f"  spread {sp:6.3f}"
            bound = m.get("bound")
            if bound is not None:
                flag = "" if m["name"] == "setup_s" or sp < bound / 3 else "  <-- over bound/3"
                line += f"  bound {bound}{flag}"
        print(line)


if __name__ == "__main__":
    main()
