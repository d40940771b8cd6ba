"""Run one chordscan benchmark workload and print its metrics as JSON.

    python3 chordbench/run.py --threads 1 --workload exact-fields \\
        --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``pass_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones, and the
spans are written to ``.chordbench_out/``. See README.md in this directory.

This entry point fixes the BLAS/OpenMP thread count before anything imports
numpy; the measuring is in ``harness``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("exact-fields", "semiclassical-fields", "blindspot-search")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS/OpenMP threads (capped at the CPUs available)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {'setup_s': ...} and exit (used for "
                             "the extra set-up samples)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.threads < 1:
        parser.error("--seconds and --threads must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    args.threads = min(args.threads, len(os.sched_getaffinity(0)))
    for name in THREAD_VARIABLES:
        os.environ[name] = str(args.threads)
    if not (ROOT / "src" / "chordscan").is_dir() or not (ROOT / "recipes").is_dir():
        print(f"chordbench: no chordscan sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness

    return harness.run(args, ROOT, STARTED)


if __name__ == "__main__":
    sys.exit(main())
