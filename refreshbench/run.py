#!/usr/bin/env python3
"""Build the refresh benchmark from source and run one workload.

Usage (from the root of a checkout):
    python3 refreshbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds refreshbench/refreshbench.exe with dune against the repository's
libraries, then runs it with the same arguments plus --out refreshbench/out,
where it leaves a per-run JSON record (and, when traced, its spans).  The
last line of standard output is the benchmark's result object.  Exits
non-zero, without a result, when the repository's sources are missing or
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "refreshbench", "refreshbench.exe")
OUT = os.path.join(HERE, "out")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kw):
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} not found under {ROOT}; nothing to build",
                  file=sys.stderr)
            return 2
    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(["dune", "build", "--root", ".", "./refreshbench/refreshbench.exe"],
               BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0:
        print(f"run.py: build failed ({code})", file=sys.stderr)
        return code or 1
    os.makedirs(OUT, exist_ok=True)
    return run([EXE, *sys.argv[1:], "--out", OUT], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
