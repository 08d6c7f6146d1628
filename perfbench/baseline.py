"""Reproduce the ROADMAP Baseline rows that finish on the seed.

    python3 perfbench/baseline.py

Not one of the measured workloads.  Each row is a product-rule set with
all betas 1, built by ``cbc_construct`` with the default mixed strategy in
a child process of its own, so that the peak RSS printed is the row's own.
The table puts the CBC wall time and n next to the ROADMAP values.
"""

import argparse
import json
import resource
import subprocess
import sys
import time

import run

# (label, d, degree, space, plan, ROADMAP n, ROADMAP CBC wall seconds)
ROWS = (
    ("d=3 deg 8, fourier", 3, 8, "fourier", None, 797, 0.08),
    ("d=3 deg 8, cosine/A", 3, 8, "cosine", "A", 3251, 2.0),
    ("d=3 deg 8, cosine/B", 3, 8, "cosine", "B", 3607, 0.40),
    ("d=4 deg 10, cosine/C", 4, 10, "cosine", "C", 1939901, 3.7),
    ("d=5 deg 8, fourier", 5, 8, "fourier", None, 28687, 9.8),
)

# Baseline rows left out, and the changes after which a benchmark change
# should bring them in.
EXCLUDED = (
    ("d=5 deg 8, cosine/A",
     "OOM-killed: M(L)+M(L) is 1.45e8 rows x 5 int64 (5.8 GB) before "
     "deduplication",
     "ROADMAP items 2 and 5"),
    ("d=5 deg 8, cosine/B",
     "137 s and 1.5 GB RSS on the seed",
     "ROADMAP items 2 and 5"),
)


def run_row(index):
    """Build one row in this process; prints one JSON line."""
    run.load_program()
    from lattice_recon import (CbcTask, WeightedSetRule, cbc_construct,
                               make_weighted_set)
    _, d, degree, space, plan, _, _ = ROWS[index]
    L = make_weighted_set(WeightedSetRule("product", (1.0,) * d, degree), d)
    task = CbcTask(space, "reconstruction", L, plan=plan)
    start = time.perf_counter()
    res = cbc_construct(task)
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"size": len(L), "n": res.n, "cbc_s": wall,
                      "rss_mb": rss}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--row", type=int, choices=range(len(ROWS)),
                   help="build one row in this process")
    args = p.parse_args(argv)
    if args.row is not None:
        run_row(args.row)
        return 0
    print(f"{'row':24s} {'|L|':>6s} {'n':>9s} {'ROADMAP n':>9s} "
          f"{'CBC s':>8s} {'ROADMAP s':>9s} {'RSS MB':>7s}")
    for index, (label, *_, roadmap_n, roadmap_s) in enumerate(ROWS):
        proc = subprocess.run([sys.executable, __file__, "--row", str(index)],
                              capture_output=True, text=True, check=True,
                              timeout=900)
        r = json.loads(proc.stdout.splitlines()[-1])
        print(f"{label:24s} {r['size']:6d} {r['n']:9d} {roadmap_n:9d} "
              f"{r['cbc_s']:8.2f} {roadmap_s:9.2f} {r['rss_mb']:7.0f}",
              flush=True)
    for label, reason, after in EXCLUDED:
        print(f"excluded {label}: {reason}; bring in after {after}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
