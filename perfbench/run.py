"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Every input is generated from ``--seed``. With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` the per-layer metrics of a traced
run. Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full report goes to ``perfbench/results/<workload>-seed<n>-trace<t>.json``
and, when tracing, the spans to the matching ``.spans.npz`` file.

BLAS runs single-threaded (pinned before numpy loads); the thread count is
recorded in the report. Bounded times are given at reference speed (see
``perfbench/machine.py``); wall-clock medians are printed beside them. Exit status is 2, with no result line, when the
program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"


def main(argv: list[str] | None = None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(HERE.parent))
    from perfbench import harness  # numpy loads here, after the pin
    from perfbench.machine import reference_s
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    try:
        report = harness.run(workload, args.seed, args.seconds, bool(args.trace))
    except harness.ProgramNotFound as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    tracer = report.pop("tracer", None)
    if tracer is not None:
        tracer.save(RESULTS / f"{stem}.spans.npz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    env = report["env"]
    print(" ".join(f"{k}={v}" for k, v in env.items()) + f" workload={workload.name}")
    print(f"{workload.name}: {workload.size()}; {report['attempted']} operations")
    for name, metric in report["metrics"].items():
        print(f"{workload.name} {name} {metric['value']!r} {metric['unit']}")
    if "wall" in report:
        nominal = reference_s(workload.reference_svds)
        print(f"{workload.name} wall clock: " + " ".join(
            f"{k} {v!r} s" for k, v in report["wall"].items()
        ) + f" (times above are at reference speed, where the reference takes {nominal} s)")
    if "tail" in report:
        t = report["tail"]
        print(f"{workload.name} op_tail_s is p{t['percentile']}, "
              f"{t['beyond']} of {t['ops']} operations beyond it")
    if "fingerprint" in report:
        print(f"{workload.name} fingerprint {json.dumps(report['fingerprint'])}")
    print(f"{workload.name} error_rate {report['error_rate']!r} "
          f"({report['failed']} of {report['attempted']} failed)")
    for failure in report["failures"][:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(harness.result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
