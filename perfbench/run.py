#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the JSON result; the line before it is
the run record. Build output goes to standard error. The build lands in
$CARGO_TARGET_DIR (default `.bench_build`), and so does the benchmark's
scratch space (registry spill files, span dumps). The benchmark runs on one
CPU: the highest-numbered one this process may use. See perfbench/NOTES.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Exit well inside the 180 s a run may take, even if the program hangs.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # On one CPU, a request hops between client, connection and batcher
    # threads without waking an idle vCPU, whose cost varies with the host.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    exe = os.path.join(target, "release", "perfbench")
    scratch = os.path.join(target, "perfbench-scratch")
    try:
        run = subprocess.run([exe, *sys.argv[1:], "--scratch", scratch], env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
