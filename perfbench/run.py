#!/usr/bin/env python3
"""Build the semcluster benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper-build, sim-steady, serve-rw, durable-commit. The
benchmark binary is built with cargo (offline) into $CARGO_TARGET_DIR,
or `.bench_build` at the repository root when that is unset, and runs
in its own process. Its last line of standard output is the JSON result;
build output and the human-readable detail go to standard error. A
failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    scratch = os.path.join(target, "perfbench-scratch")
    run = subprocess.run([binary, *sys.argv[1:], "--scratch", scratch], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
