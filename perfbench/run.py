"""Benchmark entry point: run one workload against the checkout's src/.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  This process imports no numpy: it pins
the BLAS/OpenMP thread counts to 1 in the environment of every process it
starts, times set-up in fresh interpreters (--trace 0 only), then runs
the workload in a single child process and relays the child's result.
The last line of stdout is the result object; the line before it holds
the input digest and the recorded environment.  Exits non-zero, without
a result, when the checkout has no package to measure or the child fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "oracle", "descent")
SETUP_SAMPLES = 3
# every run, set-up included, must end well inside 180 s
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import gree, gree.cli\n"
    "print(repr(time.time()))\n"
)


def pinned_env():
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    return env


def setup_seconds(env):
    """Median time from process start to `import gree, gree.cli` done."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.time()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src")],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - started)
    return statistics.median(samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "gree" / "__init__.py").is_file():
        print("no package at %s; run from the root of a gree checkout"
              % (ROOT / "src" / "gree"), file=sys.stderr)
        return 2
    began = time.monotonic()
    env = pinned_env()
    setup_s = None if args.trace else setup_seconds(env)
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "workload.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", str(ROOT)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=DEADLINE_S - (time.monotonic() - began),
        )
    except subprocess.TimeoutExpired:
        print("workload process killed after %.0f s" % DEADLINE_S, file=sys.stderr)
        return 4
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        print("workload process exited with %d" % child.returncode, file=sys.stderr)
        return 3
    info_line, result_line = child.stdout.strip().splitlines()[-2:]
    info, result = json.loads(info_line), json.loads(result_line)
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
