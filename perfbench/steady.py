#!/usr/bin/env python3
"""Steadiness check for one benchmark workload.

Runs the benchmark command from BENCHMARK.json on one workload N times,
each with another seed, then K times with the first seed alone. For
every end-to-end metric it prints the median and quartiles of the
seeded runs and two spreads (interquartile range over median) next to
the metric's bound: across seeds, which mixes input variation with
machine noise, and across repeats of one seed, which is machine noise
alone. It then asserts that the modelled ratios repeat exactly over the
same-seed runs, and that every per-layer count repeats exactly over two
traced runs of that seed. Run from the repository root:

    python3 perfbench/steady.py --workload compile --runs 10 --repeats 5

Exit status: 0 when both spreads of every metric are within its bound
and every exact repeat holds, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys

# End-to-end metrics the program computes from counts alone: they must
# repeat exactly for a fixed seed.
EXACT = {"ok_rate", "modelled_ratio"}


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"steady: {' '.join(argv)} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"steady: seed {seed}: correct=false, {result['failed']} of "
              f"{result['attempted']} operations failed")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs, one seed each")
    ap.add_argument("--repeats", type=int, default=5,
                    help="further runs of the first seed")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    args = ap.parse_args()
    if args.runs < 2 or args.repeats < 1:
        sys.exit("steady: need --runs >= 2 and --repeats >= 1")
    bench = json.load(open("BENCHMARK.json"))
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seeded = [run(command, args.workload, args.seed + i, seconds, 0)
              for i in range(args.runs)]
    same = [seeded[0]] + [run(command, args.workload, args.seed, seconds, 0)
                          for _ in range(args.repeats)]
    ok = True
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'seeds':>8} {'1 seed':>8} {'bound':>6}")
    for name in seeded[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in seeded]
        repeated = [r["metrics"][name]["value"] for r in same]
        q1, med, q3, across = spread(values)
        within = spread(repeated)[3]
        bound = bounds[name]
        worst = max(across, within)
        verdict = "ok" if worst <= bound / 3 else ("near" if worst <= bound else "OVER")
        if worst > bound:
            ok = False
        print(f"{name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{across:>8.4f} {within:>8.4f} {bound:>6} {verdict}")
        print(f"{'':<20} seeds:  {' '.join(f'{v:.6g}' for v in values)}")
        print(f"{'':<20} seed {args.seed}: {' '.join(f'{v:.6g}' for v in repeated)}")

    exact = sorted(EXACT & seeded[0]["metrics"].keys())
    for name in exact:
        got = {r["metrics"][name]["value"] for r in same}
        if len(got) > 1:
            ok = False
            print(f"steady: {name} did not repeat for seed {args.seed}: {sorted(got)}")
    traced = [run(command, args.workload, args.seed, seconds, 1) for _ in range(2)]
    counts = [n for n, m in traced[0]["metrics"].items() if m["unit"] == "count"]
    for name in counts:
        a, b = (t["metrics"][name]["value"] for t in traced)
        if a != b:
            ok = False
            print(f"steady: layer count {name} did not repeat: {a} vs {b}")
    print(f"steady: exact repeats checked ({len(exact)} ratios over "
          f"{len(same)} runs, {len(counts)} layer counts over 2 traced runs)")
    print("steady: PASS" if ok else "steady: FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
