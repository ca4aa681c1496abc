#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the benchmark package (and with it
the repository's crates) in release mode into $CARGO_TARGET_DIR, default
.bench_build, then runs it pinned to one CPU with one malloc arena.  Prints
a `host` line (CPU count, pinning, malloc arenas, rustc, commit, kernel),
the benchmark's report, and as the last line the result as one JSON object.
Exits nonzero, printing no result, if the build or any step fails.  Any
other argument (e.g. --write-golden) is passed to the benchmark binary.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Leaves margin under the 180 s a run may take in all.
RUN_TIMEOUT_S = 170
# glibc malloc arenas for the benchmark process.  By default each rank
# thread may be handed a fresh arena, depending on which others hold theirs
# at that moment, so the resident peak of identical passes jumped between
# ~12.5 and ~21 MiB.  One arena makes it follow the program's own
# allocations; pinned to one CPU, more arenas buy no parallelism anyway.
MALLOC_ARENA_MAX = "1"


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(quiet=True):
    """Build the benchmark binary; return its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if quiet:
        cmd.append("--quiet")
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def command_output(cmd, cwd=ROOT):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def pin_cpu():
    """The CPU the benchmark is pinned to: the highest one allowed."""
    return max(os.sched_getaffinity(0))


def host_block(cpu):
    commit = os.environ.get("BENCH_COMMIT")
    if commit is None and os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "allowed_cpus": sorted(os.sched_getaffinity(0)),
        "pinning": f"cpu {cpu} (sched_setaffinity)",
        "malloc_arena_max": MALLOC_ARENA_MAX,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": commit or "unknown",
        "kernel": platform.release(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    binary = build()
    if binary is None:
        return 1
    cpu = pin_cpu()
    print("host " + json.dumps(host_block(cpu)), flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace] + extra
    env = dict(os.environ, MALLOC_ARENA_MAX=MALLOC_ARENA_MAX)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
