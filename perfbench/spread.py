#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and quartile spread against its bound.

    python3 perfbench/spread.py [--workloads W ...] [--seeds 10]
                                [--first-seed 1] [--write-baseline FILE]

Run from the root of a checkout.  Every run must be correct.  A spread
(q3 - q1) / median above a third of the metric's bound is flagged; setup_s
is exempt (only its median must hold between sets of runs).  With
--write-baseline the medians and quartiles are written as JSON together
with the host block and, per workload, the per-layer metrics of one traced
run on the first seed, as perfbench/baseline.json records them.
"""

import argparse
import json
import sys

import benchlib


def traced(workloads, seed, seconds):
    """The per-layer metrics of one traced run of each workload."""
    out = {}
    for w in workloads:
        result, _, _ = benchlib.run_once(benchlib.ROOT, w, seed, seconds, trace=1)
        if not result["correct"]:
            raise RuntimeError(f"traced run of {w} seed {seed} is incorrect: {result}")
        out[w] = {k: v["value"] for k, v in result["metrics"].items()}
    return out


def main():
    bench = benchlib.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--write-baseline")
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    baseline = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for w in args.workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in seeds:
            result, fingerprint, host = benchlib.run_once(benchlib.ROOT, w, seed, args.seconds)
            baseline["host"] = host
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: INCORRECT {result}", flush=True)
                ok = False
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"{w} seed {seed}: fingerprint {fingerprint} " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        baseline["workloads"][w] = {}
        for m in metrics:
            s = benchlib.summary(values[m["name"]])
            s["unit"] = m["unit"]
            baseline["workloads"][w][m["name"]] = s
            exempt = m["name"] == "setup_s"
            steady = exempt or s["spread"] <= m["bound"] / 3
            ok &= steady
            print(f"  {w:<12} {m['name']:<13} median {s['median']:.6g} {m['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {m['bound']} {'ok' if steady else 'TOO WIDE'}"
                  f"{' (exempt)' if exempt else ''}", flush=True)
    if args.write_baseline:
        baseline["per_layer_seed"] = seeds[0]
        baseline["per_layer"] = traced(args.workloads, seeds[0], args.seconds)
        with open(args.write_baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
