"""Helpers shared by spread.py and compare.py: run one benchmark invocation
in a checkout and summarise repeated readings."""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark(tree=ROOT):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(tree, workload, seed, seconds, trace=0, target_dir=None):
    """Run the benchmark of checkout `tree` once, building into
    `target_dir` (default: $CARGO_TARGET_DIR, else the tree's .bench_build).

    Returns (result, fingerprint, host): the final JSON object, the
    fingerprint line's fold (None if absent) and the host block.  Raises
    RuntimeError if the run fails or prints no result.
    """
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = (target_dir or env.get("CARGO_TARGET_DIR")
                               or os.path.join(tree, ".bench_build"))
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                           f"{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    fingerprint, host = None, None
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = line.split()[2]
        elif line.startswith("host "):
            host = json.loads(line[len("host "):])
    return result, fingerprint, host


def summary(values):
    """Median, first and third quartile (statistics.quantiles, n=4), and
    the quartile spread as a share of the median."""
    values = sorted(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}
