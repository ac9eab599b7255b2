#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median and
quartile spread, the statistic the benchmark's bounds are checked against.

    python3 perfbench/spread.py --workload daemon --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --workload cold --seeds 7,7,7 --trace 1

Run it from the repository root. The spread is (Q3 - Q1) / median, with
the quartiles of statistics.quantiles(values, n=4). With --bounds it also
flags every end-to-end metric whose spread exceeds a third of its bound in
BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def cpu_ticks():
    """Total and stolen CPU ticks of the host so far (Linux), or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7] if len(fields) > 7 else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bounds", action="store_true")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    units = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        before = cpu_ticks()
        run = subprocess.run(cmd, capture_output=True, text=True)
        after = cpu_ticks()
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.stderr.write(run.stdout + run.stderr)
            sys.exit(f"seed {seed}: exit {run.returncode}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: correct={res['correct']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        steal = ""
        if before and after and after[0] > before[0]:
            steal = f", host steal {100 * (after[1] - before[1]) / (after[0] - before[0]):.1f}% of cpu time"
        print(f"seed {seed}: attempted {res['attempted']}{steal}", file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        flag = ""
        if args.bounds and name in bounds and name != "setup_s" and spread > bounds[name] / 3:
            flag = f"  > bound/3 ({bounds[name] / 3:.4f})"
            worst += 1
        print(f"{name:34s} median {med:14.4f} {units[name]:12s} spread {spread:7.4f}{flag}")
        if args.values:
            print("    " + " ".join(f"{v:.4g}" for v in vs))
    sys.exit(1 if worst else 0)


if __name__ == "__main__":
    main()
