#!/usr/bin/env python3
"""Build the benchmark and the memlat-server binary from source, then run
one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sim_paper, sim_lru_ring, sim_m10k, server_etc. Builds go to
$CARGO_TARGET_DIR (default .bench_build). Build output goes to stderr, so
stdout carries only the benchmark's own lines; its last line is the
result object. The exit code is the benchmark's, or 2 if a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        [
            "--manifest-path",
            os.path.join(ROOT, "Cargo.toml"),
            "-p",
            "memlat-server",
            "--bin",
            "memlat-server",
        ],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "memlat-perfbench"),
        *sys.argv[1:],
        "--server-bin",
        os.path.join(release, "memlat-server"),
        "--git-rev",
        git_rev(),
    ]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
