#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <table2|faults-b4|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

The build is an offline release build of the `perfbench` crate (its own
workspace, depending on the repository's crates by path) into
`$CARGO_TARGET_DIR`, or `perfbench/target` when that is unset. The
benchmark then runs on one core. Build
output goes to stderr; the benchmark's stdout passes through, so its
last line is the result object. The exit code is the build's when the
build fails, otherwise the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--offline",
            "--release",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    # Every scheduler cell runs on a fresh thread; with one malloc arena
    # per thread, peak RSS would depend on which arena each cell landed
    # in. One arena makes peak_rss_mb measure live memory.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    # At one job only one thread works at a time, but each cell or
    # request hands over to another thread. Left free, the kernel places
    # that thread on either core, and work that lands on the core whose
    # private cache did not just touch the data runs up to twice as
    # slowly; the microsecond repeat latencies flipped between the two
    # cases from batch to batch. One core removes the coin toss, and the
    # calibration samples then run where the work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return subprocess.run([binary, *sys.argv[1:]], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
