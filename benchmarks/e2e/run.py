"""Run the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload monitor --seed 0 --seconds 24 --trace 0

prints every metric by name with its unit, then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes the spans under ``benchmarks/e2e/.cache/traces/``).
Without ``--workload`` every workload runs, each in a fresh child process,
one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("monitor", "churn", "serve", "cold-open"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2

    if args.workload is None:
        status = 0
        for workload in ("monitor", "churn", "serve", "cold-open"):
            print(f"== {workload}", flush=True)
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                check=False,
            )
            status = status or child.returncode
        return status

    # One CPU, chosen before NumPy starts its thread pool.  On shared vCPUs
    # the serve threads' interpreter-lock hand-offs otherwise wait on
    # whichever vCPU the host is slow to schedule, so serve's latencies
    # would follow the neighbours' load (see README, "One CPU").
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE.parent))
    from e2e.workloads import DEFAULT_CACHE, run

    result = run(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    for note in result["notes"][:20]:
        print(f"note: {note}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:10s} {name:26s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{args.workload:10s} episodes {result['episodes']}, boxes rejected at generation "
          f"{result['rejected']}, checksum {result['checksums'][0]:#010x}")
    tracer = result["tracer"]
    if tracer is not None:
        for target in tracer.absent:
            print(f"{args.workload:10s} absent trace target {target}")
        tracer.write(DEFAULT_CACHE / "traces" / f"{args.workload}-s{args.seed}.jsonl")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
