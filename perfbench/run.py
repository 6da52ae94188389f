"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload exp-identify --seed 1 --seconds 20 --trace 0

Pins the BLAS to one thread before numpy loads and imports viscostring from
this checkout's src/ (there is nothing to build).  Exits 2 without a result
when the checkout has no src/viscostring.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "viscostring", "__init__.py")):
        sys.stderr.write(f"no viscostring package under {SRC}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import bench  # noqa: E402
    import viscostring  # noqa: E402

    if not os.path.abspath(viscostring.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"viscostring was imported from {viscostring.__file__}, not {SRC}\n")
        sys.exit(2)
    sys.exit(bench.main(sys.argv[1:], T_START))
