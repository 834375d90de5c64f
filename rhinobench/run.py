#!/usr/bin/env python3
"""Build and run the multi-process Rhino cluster benchmark.

    python3 rhinobench/run.py --workload hot|big|churn --seed N --seconds S --trace 0|1
    python3 rhinobench/run.py --self-test

Builds the repository's libraries, `rhino_node` and the `rhino_bench`
coordinator (Release) into ./.bench_build, then replaces itself with the
coordinator, so the process that prints the result line is the one that
owns the node processes. Build output goes to stderr; the last line of
stdout is the result JSON. Exits non-zero without a result when the build
fails (for example when the sources under ./src are missing).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "rhino_bench", "rhino_node"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    try:
        ok = build()
    except OSError as e:  # cmake missing
        print(f"benchmark build failed: {e}", file=sys.stderr)
        ok = False
    if not ok:
        print("benchmark build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "rhino_bench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
