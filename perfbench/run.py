#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload cold-tune|replay-tune|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds, in release mode and into
$CARGO_TARGET_DIR (default: .bench_build), the `perfbench` package in
this directory plus the `acclaim` daemon (package `acclaim-cli`) and the
`obs-check` trace validator from the workspace, then runs the workload.
The last line of standard output is the result object. Exits non-zero
without printing a result when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-tune", "replay-tune", "serve-mixed")


def cargo_build(target_dir, args):
    cmd = ["cargo", "build", "--release", "--quiet", "--offline"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    built = cargo_build(target, ["--manifest-path", os.path.join(HERE, "Cargo.toml")]) and cargo_build(
        target,
        [
            "--manifest-path",
            os.path.join(root, "Cargo.toml"),
            "-p", "acclaim-cli",
            "-p", "acclaim-obs",
            "--bin", "acclaim",
            "--bin", "obs-check",
        ],
    )
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    bin_dir = os.path.join(target, "release")
    run_dir = os.path.join(".perfbench-run", f"{a.workload}-{os.getpid()}")
    # The benchmark and the daemon it starts share a process group, so
    # an interrupted run leaves no process behind.
    proc = subprocess.Popen(
        [
            os.path.join(bin_dir, "perfbench"),
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--seconds", str(a.seconds),
            "--trace", a.trace,
            "--daemon", os.path.join(bin_dir, "acclaim"),
            "--obs-check", os.path.join(bin_dir, "obs-check"),
            "--run-dir", run_dir,
        ],
        start_new_session=True,
    )

    def interrupted(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    try:
        return proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(".perfbench-run")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
