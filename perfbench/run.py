"""Benchmark entry point: runs workloads of the isohash benchmark, each in a
fresh Python process with the BLAS thread count pinned to one.

    python3 perfbench/run.py --workload nibh_allpairs --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run it from any directory; the package is imported from ``src/`` of the
checkout that holds this file. The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; with ``--workload all`` it
aggregates the three workloads and prefixes each metric with its workload.
The exit code is not 0 when a workload could not be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("nibh_allpairs", "nibh_cg", "eval_allpairs")
# a run has 180 s to finish; the child gets what the parent does not need
CHILD_TIMEOUT_S = 170


def run_one(workload: str, args) -> tuple[int, list[str]]:
    env = dict(os.environ)
    # one BLAS thread: steadier timings, and results that do not depend on
    # the thread count through the order of floating-point sums
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "isohash" / "__init__.py").is_file():
        print(f"no isohash sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        code, lines = run_one(name, args)
        if code != 0 or not lines:
            print(f"{name}: benchmark process exited with code {code}",
                  file=sys.stderr)
            return code or 1
        print("\n".join(lines[:-1] if len(names) == 1 else lines))
        results[name] = json.loads(lines[-1])

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": v for name, r in results.items()
                    for metric, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
