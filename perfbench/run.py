"""Prequential benchmark of parsnet: one workload, one seed, one run.

    python3 perfbench/run.py --workload sea-delay --seed 1 --seconds 38 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` makes the traced and counted runs
that give the per-layer metrics.  The last line of standard output is the
result as one JSON object; the lines before it are the same numbers for a
reader, plus the machine record.  The exit code is 2 when parsnet cannot be
imported from the checkout's ``src``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS/OpenMP to one thread and put the checkout's parsnet first on
    the path, for this process and the set-up probes it starts.  Must run
    before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    sys.path.insert(0, SRC)


if __name__ == "__main__":
    prepare()
    try:
        import parsnet
    except ImportError as exc:
        print(f"perfbench: cannot import parsnet from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not os.path.abspath(parsnet.__file__).startswith(SRC + os.sep):
        print(f"perfbench: parsnet was imported from {parsnet.__file__}, not from {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    import bench
    raise SystemExit(bench.main(sys.argv[1:]))
