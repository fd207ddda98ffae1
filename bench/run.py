"""folkrel benchmark: end-to-end and per-layer metrics on generated inputs.

Usage, from the root of a folkrel source checkout::

    python3 bench/run.py --workload ground-zipf --seed 1 --seconds 55 --trace 0

Workloads (why each was chosen is in ``workloads.py``):

- ``ground-zipf``: power-law corpus cut to its top tags, small taxonomy;
- ``ground-wordnet``: ~200-tag corpus over a WordNet-sized noun+verb DAG,
  with corpus IC counts.

The inputs are generated from ``--seed`` in a child process, under
``.bench_work/`` in the checkout, and removed afterwards.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine, library versions, seed and input shape.
``--seconds`` is how long the measured rounds take, from the start of
the first measured phase; generating the inputs before and checking the
outputs after come on top.  ``--size smoke`` runs a seconds-long miniature
of the same workload.

Exit status is 2, with nothing printed on standard output, when the
checkout has no ``src/folkrel`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("ground-zipf", "ground-wordnet")
UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_frac": "ratio",
         "_residual": "L1"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
GEN_TIMEOUT_S = 120


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args, shape: dict, samples: dict, checks) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "inputs": shape, "samples": samples,
        "error_rate": checks.failed / checks.attempted,
        "failures": checks.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "folkrel" / "__init__.py").is_file():
        print(f"error: {SRC / 'folkrel'} not found; run from a folkrel "
              f"source checkout", file=sys.stderr)
        return 2
    # One compute thread per process; set before numpy loads.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        start = time.perf_counter()
        # A child process generates, so its memory stays out of peak RSS.
        subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--dir", str(work / "inputs"),
             "--size", args.size],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=True, timeout=GEN_TIMEOUT_S)
        generate_s = time.perf_counter() - start
        inputs = workloads.Inputs.load(work / "inputs")
        outcome = workloads.run_workload(args.workload, inputs, args.seed,
                                         args.seconds, bool(args.trace), work)
        outcome.samples["generate_s"] = round(generate_s, 3)
        shape = json.loads((work / "inputs" / "inputs.json").read_text())["shape"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = outcome.checks
    print(json.dumps({"record": run_record(args, shape, outcome.samples,
                                           checks)}, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
