#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source tree.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: set-read, set-resize, kv-inproc (see
perfbench/README.md). Builds perfbench/bench.exe and the nbhash_cli
server with dune, then runs one measurement; the last line of stdout
is the result as one JSON object. Exits nonzero, printing no result,
when the tree cannot be built or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["set-read", "set-resize", "kv-inproc"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
TMP_DIR = ".perfbench_tmp"


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"{cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: not at the root of the nbhash source tree", file=sys.stderr)
        return 2
    build = ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/nbhash_cli.exe"]
    # The shared dune cache lives outside the tree; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    if run(build, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env) != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    os.makedirs(TMP_DIR, exist_ok=True)
    bench = [
        os.path.join("_build", "default", "perfbench", "bench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join("_build", "default", "bin", "nbhash_cli.exe"),
        "--tmp", TMP_DIR,
    ]
    return run(bench, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
