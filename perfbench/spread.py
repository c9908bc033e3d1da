#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload suite_sim --seeds 1-10 [--trace 0]
        [--seconds N] [--binary PATH]

For every metric of the runs' last JSON line it prints the median, the
distance between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median, and, for end-to-end metrics, the bound from
``BENCHMARK.json`` and whether the spread stays under a third of it. Without
``--binary`` each run uses the command in ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", default="0")
    p.add_argument("--seconds", type=int)
    p.add_argument("--binary")
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    base = [args.binary] if args.binary else bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in seeds_of(args.seeds):
        cmd = base + ["--workload", args.workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", args.trace]
        start = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        took = time.time() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({took:.1f}s)", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    ok = True
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
        else:
            spread = 0.0
        line = f"{name:40s} median {med:<14.6g} spread {spread:.4f}"
        if name in bounds:
            steady = spread < bounds[name] / 3 or name == "setup_s"
            ok &= steady
            line += f"  bound {bounds[name]}  {'ok' if steady else 'WIDE'}"
        print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
