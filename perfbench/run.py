#!/usr/bin/env python3
"""Run one end-to-end benchmark workload of the CATAPULT pipeline.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0 --data-seed 23

Run from the repository root. Builds the `perfbench` binary from source
(release profile, into $CARGO_TARGET_DIR, default `.bench_build`), runs the
workload in its own process pinned to two worker threads, and relays its
output: the last stdout line is the JSON result. Exits non-zero without
printing a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = "2"
# A run must end within 180 s; leave room to report a hung one.
RUN_TIMEOUT_S = 170


def build(env):
    """Build the benchmark binary; return its path, or None on failure."""
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo", "build", "--release", "--quiet", "--offline", "--locked",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def main():
    env = dict(os.environ)
    binary = build(env)
    if binary is None:
        return 1
    env["CATAPULT_THREADS"] = THREADS
    try:
        done = subprocess.run(
            [binary] + sys.argv[1:], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        # Whatever the run printed is diagnostics, not a result.
        sys.stderr.write(done.stdout)
        return done.returncode
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
