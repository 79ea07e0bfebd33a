"""Benchmark for spantree.embed_spanning.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is imported from its
src/ directory, never from an installed copy.  The last line of stdout is
one JSON object with the end-to-end metrics (--trace 0) or the per-module
metrics (--trace 1).  perfbench/README.md describes the workloads.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

# One BLAS thread: the property-S products are small, and a fixed count keeps
# runs comparable on a shared box.  It must be set before numpy loads.
BLAS_THREADS = 1


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main() -> int:
    if not (SRC / "spantree" / "__init__.py").is_file():
        print(f"perfbench: no spantree sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import bench

    args = parse_args(sys.argv[1:], sorted(bench.WORKLOADS))
    return bench.run(args, PROCESS_T0, SRC, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
