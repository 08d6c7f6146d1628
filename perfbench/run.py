"""Layered pipeline benchmark of lattice_recon.

    python3 perfbench/run.py --workload recon-pipeline --seed 1 \
        --seconds 30 --trace 0

Runs one seeded workload (recon-pipeline, integ-highdim or recon-large-n,
see workloads.py) in this process as a closed loop: one caller issues the
next operation only after the previous one returned.  Every operation is
checked.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The program is imported from ``src/`` next to this directory; the run
fails with exit code 2 when it is not there.
"""

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one process, no extra threads: BLAS and OpenMP pools capped at one
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class MissingProgram(RuntimeError):
    """The checkout holds no lattice_recon sources to benchmark."""


def load_program():
    """Cap the thread pools, then import lattice_recon from the checkout's
    ``src/``.  Returns the import time in seconds."""
    os.environ.update(THREAD_CAPS)
    package = SRC / "lattice_recon"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no lattice_recon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import lattice_recon
    elapsed = time.perf_counter() - start
    if Path(lattice_recon.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"lattice_recon was imported from "
                             f"{lattice_recon.__file__}, not from {SRC}")
    return elapsed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("recon-pipeline", "integ-highdim",
                            "recon-large-n"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        import_s = load_program()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness  # imports numpy and the program: after load_program
    return harness.main(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
