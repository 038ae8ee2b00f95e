"""Command line of the wignerpf benchmark; ``harness.py`` says what it measures.

Run from the repository root::

    python3 bench/run.py --workload distinct --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
"""

import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    # One BLAS/OpenMP thread, set before numpy loads: with two threads on a
    # two-core machine the op times measured the scheduler, not the program.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    package = os.path.join(os.path.dirname(bench_dir), "src", "wignerpf")
    if not os.path.isdir(package):
        print(f"benchmark: no package source at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, bench_dir)
    import harness

    return harness.main(sys.argv[1:], import_s=time.perf_counter() - start)


if __name__ == "__main__":
    sys.exit(main())
