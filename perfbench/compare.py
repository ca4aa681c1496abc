#!/usr/bin/env python3
"""Compare two checkouts of the repository on the benchmark: a parent (A)
and a change (B).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
                                 [--workloads W ...] [--first-seed 1]

Each checkout's benchmark is built into its own target directory
(<dir>/.bench_build).  Pair i runs both sides on seed first_seed + i,
alternating which side runs first (A B, B A, A B, ...), so slow and fast
phases of the host fall on both sides alike.  The two sides of a pair must
print the same workload fingerprint; a mismatch means the change altered
simulated output and the comparison stops.  Per workload and end-to-end
metric it prints each side's median and quartiles, the ratio B/A of the
medians, and the share of pairs B wins (ties count for neither).  A gain is
claimed only over at least ten pairs, where B wins at least 9 pairs in 10
and the medians differ by more than A's quartile spread; a regression where
B's median is worse than A's by more than the metric's bound.
"""

import argparse
import os
import sys

import benchlib


def main():
    bench = benchlib.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    trees = {"A": os.path.abspath(args.parent), "B": os.path.abspath(args.change)}

    status = 0
    for w in args.workloads:
        values = {side: {m["name"]: [] for m in bench["end_to_end"]} for side in trees}
        for i in range(args.pairs):
            seed = args.first_seed + i
            fingerprints = {}
            for side in ("AB" if i % 2 == 0 else "BA"):
                tree = trees[side]
                result, fingerprint, _ = benchlib.run_once(
                    tree, w, seed, args.seconds,
                    target_dir=os.path.join(tree, ".bench_build"))
                if not result["correct"]:
                    print(f"{w} seed {seed}: side {side} INCORRECT: {result}")
                    return 1
                fingerprints[side] = fingerprint
                for name in values[side]:
                    values[side][name].append(result["metrics"][name]["value"])
            if fingerprints["A"] != fingerprints["B"]:
                print(f"{w} seed {seed}: fingerprint parity FAILED: "
                      f"A {fingerprints['A']} B {fingerprints['B']}")
                return 1
            print(f"{w} pair {i + 1}/{args.pairs} seed {seed}: fingerprint "
                  f"{fingerprints['A']} on both sides", flush=True)

        for m in bench["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            a, b = values["A"][name], values["B"][name]
            sa, sb = benchlib.summary(a), benchlib.summary(b)
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            ratio = sb["median"] / sa["median"] if sa["median"] else float("nan")
            worse = (ratio - 1) if lower else (1 - ratio)
            if worse > m["bound"]:
                verdict = "REGRESSION"
                status = 1
            elif wins >= 0.9 * len(a) and abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]:
                verdict = "gain" if len(a) >= 10 else "gain? (fewer than 10 pairs: not claimable)"
            elif sa["spread"] > m["bound"]:
                verdict = "unresolved (A's spread exceeds the bound)"
            else:
                verdict = "within bound"
            print(f"  {w:<12} {name:<13} A {sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}]"
                  f"  B {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}] {m['unit']}"
                  f"  B/A {ratio:.4f}  B wins {wins}/{len(a)}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
