#!/usr/bin/env python3
"""Builds the benchmark and chgraphd from source in release mode, then runs it.

    python3 perfbench/run.py --workload <sim-pr|prep-cold|figures-grid|serve-mix> \
        --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. Build output goes to $CARGO_TARGET_DIR (default
.bench_build); cargo's messages go to stderr so that the last line of standard
output is the benchmark's JSON result. Exits non-zero, without a result, when
either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "chgraphd"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "chg-perfbench"),
        *sys.argv[1:],
        "--chgraphd",
        os.path.join(release, "chgraphd"),
        "--work-dir",
        os.path.join(target, "perfbench-work"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
