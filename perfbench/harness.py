"""Set-up, the timed closed loop, and the metrics of one benchmark run.

The loop issues the workload's tasks in order, one at a time, and stops at
the end of the first pass over the batch that ends after ``--seconds``.

End-to-end metrics (``--trace 0``):

* ``setup_s`` -- import + median of SETUP_REPS input generations (with the
  recon-large-n lattice build) + one untimed warm-up operation.
* ``op_p50_s`` -- median wall time of one operation.
* ``op_tail_s`` -- the highest percentile with at least ten operations
  beyond it; the ``# run`` line states the percentile and sample count.
* ``ops_per_s`` -- operations that passed their checks per timed second.
* ``peak_rss_mb`` -- ``ru_maxrss`` at the end of the run.

The failure ratio is ``failed / attempted`` of the result line: an
operation fails on any exception or failed check, and the loop goes on.

Per-layer metrics (``--trace 1``) come from spans the benchmark records
around public calls.  Each traced operation runs twice, untraced and then
traced, so that the tracing overhead is measured in the same process.
Times are seconds per traced operation (self time of the layer's spans);
counts are per operation over one pass of the workload's batch and repeat
exactly for a given seed.
"""

import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import lattice_recon
import workloads
from run import THREAD_CAPS
from spans import NullTracer, Tracer

SETUP_REPS = 3
SPAN_DIR = Path(__file__).resolve().parent / "out"

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer time metric -> span name
LAYER_SPANS = {
    "indexset.mirror_s": "indexset.mirror",
    "indexset.aux_s": "indexset.aux",
    "cbc.required_n_s": "cbc.required_n",
    "cbc.construct_s": "cbc.construct",
    "lattice.oracle_s": "lattice.oracle",
    "transform.verify_s": "transform.verify",
    "transform.sample_s": "transform.sample",
    "transform.synth_s": "transform.synth",
    "transform.forward_s": "transform.forward",
}

# per-layer count metric -> key of Outcome.counts
LAYER_COUNTS = {
    "indexset.mirror_rows": "mirror_rows",
    "indexset.aux_pairs": "aux_pairs",
    "indexset.aux_rows": "aux_rows",
    "cbc.candidates": "candidates",
    "cbc.restarts": "restarts",
    "cbc.elim_steps": "elim_steps",
    "kernels.residue_evals": "residue_evals",
    "lattice.oracle_rows": "oracle_rows",
    "transform.sample_evals": "sample_evals",
    "transform.fft_len": "fft_len",
    "transform.fft_flops_computed": "fft_flops",
}

UNITS = {
    "indexset.mirror_rows": "rows", "indexset.aux_pairs": "rows",
    "indexset.aux_rows": "rows", "indexset.aux_dedup_ratio": "ratio",
    "cbc.candidates": "count", "cbc.accept_ratio": "ratio",
    "cbc.restarts": "count", "cbc.elim_steps": "count",
    "kernels.residue_evals": "count", "kernels.bytes_computed": "bytes",
    "lattice.oracle_rows": "rows", "transform.sample_evals": "count",
    "transform.fft_len": "count", "transform.fft_flops_computed": "count",
    "transform.coeff_err_max": "abs",
}

RESIDUE_BYTES = 16  # one int64 prefix and one int64 last component per row


def tail_percentile(times):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(times)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


class Loop:
    """Outcomes of the timed operations and the checks across repeats."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.fingerprints = {}
        self.counts = {}
        self.mismatches = []
        self.err_max = 0.0

    def record(self, index, item, out):
        self.attempted += 1
        if not out.ok:
            self.failures.append(out.reason)
            return
        self.err_max = max(self.err_max, out.err)
        first = self.fingerprints.setdefault(index, out.fingerprint)
        if first != out.fingerprint:
            self.mismatches.append(f"{item.label}: lattice {out.fingerprint}"
                                   f" differs from {first}")
        if out.counts:
            first = self.counts.setdefault(index, out.counts)
            if first != out.counts:
                self.mismatches.append(f"{item.label}: counts {out.counts} "
                                       f"differ from {first}")

    def digest(self):
        joined = ";".join(self.fingerprints[i]
                          for i in sorted(self.fingerprints))
        return hashlib.sha256(joined.encode()).hexdigest()[:16]


def measure(name, seed, seconds, trace, import_s):
    """Run one workload; returns (result dict, info dict)."""
    null = NullTracer()
    tracer = Tracer() if trace else null
    setup_times, digests = [], []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        state = workloads.setup(name, seed,
                                tracer if rep == SETUP_REPS - 1 else null)
        setup_times.append(time.perf_counter() - start)
        digests.append(state.digest())
    items, built = state.items, state.built

    warm_item = items[0]
    coeffs = workloads.coefficients(warm_item, seed, -1)
    start = time.perf_counter()
    warm = workloads.run_op(warm_item, coeffs, null, built)
    warm_s = time.perf_counter() - start
    setup_s = import_s + statistics.median(setup_times) + warm_s

    loop = Loop()
    op_times = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    # whole passes over the batch, so that each run weighs its tasks alike
    # and a traced run counts every task
    while i % len(items) or time.perf_counter() < deadline:
        index = i % len(items)
        item = items[index]
        coeffs = workloads.coefficients(item, seed, i)
        t0 = time.perf_counter()
        out = workloads.run_op(item, coeffs, null, built)
        op_times.append(time.perf_counter() - t0)
        loop.record(index, item, out)
        if trace:
            tracer.op = i
            loop.record(index, item,
                        workloads.run_op(item, coeffs, tracer, built))
        i += 1
    wall = time.perf_counter() - start

    problems = list(loop.mismatches)
    if len(set(digests)) != 1:
        problems.append(f"set-up produced different inputs: {digests}")
    if not warm.ok:
        problems.append(f"warm-up failed: {warm.reason}")
    failed = len(loop.failures)
    for reason in (loop.failures + problems)[:5]:
        print(f"perfbench: {reason}", file=sys.stderr)

    tail, pct = tail_percentile(op_times)
    info = {"workload": name, "seed": seed, "trace": trace,
            "attempted": loop.attempted, "failed": failed,
            "fail_ratio": failed / loop.attempted,
            "timed_s": wall, "op_samples": len(op_times),
            "op_tail_percentile": pct, "input_digest": digests[0],
            "lattice_digest": loop.digest(),
            "lattices": len(loop.fingerprints),
            "setup_parts_s": {"import": import_s, "inputs": setup_times,
                              "warm_up": warm_s}}
    if trace:
        metrics = layer_metrics(tracer, loop, op_times, items)
        path = SPAN_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(path)
        info["spans"] = str(path.relative_to(SPAN_DIR.parent.parent))
    else:
        values = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(op_times),
            "op_tail_s": tail,
            "ops_per_s": (loop.attempted - failed) / wall,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    result = {"correct": failed == 0 and not problems,
              "attempted": loop.attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def layer_metrics(tracer, loop, untraced_times, items):
    """Per-layer metrics of a traced run; traced op i repeats untraced op
    i, whose time is ``untraced_times[i]``."""
    ops = range(len(untraced_times))
    per_op = len(ops)
    self_s = dict.fromkeys(LAYER_SPANS.values(), 0.0)
    for name, op, seconds in tracer.self_times():
        if op in ops and name in self_s:
            self_s[name] += seconds
    values = {metric: self_s[span] / per_op
              for metric, span in LAYER_SPANS.items()}
    values["cbc.residual_s"] = values["cbc.construct_s"] - (
        values["cbc.required_n_s"] + values["indexset.aux_s"]
        + values["lattice.oracle_s"])

    # counts: one pass of the batch, per operation
    batch = [loop.counts.get(i, {}) for i in range(len(items))]
    totals = {key: sum(c.get(key, 0) for c in batch)
              for key in set(LAYER_COUNTS.values()) | {"bf_steps"}}
    for metric, key in LAYER_COUNTS.items():
        values[metric] = totals[key] / len(items)
    values["indexset.aux_dedup_ratio"] = (
        totals["aux_rows"] / totals["aux_pairs"] if totals["aux_pairs"]
        else 0.0)
    values["cbc.accept_ratio"] = (
        totals["bf_steps"] / totals["candidates"] if totals["candidates"]
        else 0.0)
    values["kernels.bytes_computed"] = (values["kernels.residue_evals"]
                                        * RESIDUE_BYTES)
    values["transform.coeff_err_max"] = loop.err_max

    # overhead: traced root span minus the untraced run of the same op
    roots = tracer.durations("op")
    values["trace.op_p50_s"] = statistics.median(roots[op] for op in ops)
    values["trace.overhead_s"] = statistics.median(
        roots[op] - untraced_times[op] for op in ops)
    return {k: {"value": v, "unit": UNITS.get(k, "s")}
            for k, v in values.items()}


def environment():
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version,
            "lattice_recon": lattice_recon.__version__,
            "backend": getattr(lattice_recon, "BACKEND", None),
            "nproc": os.cpu_count(), "cpu": cpu,
            "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS}}


def main(args, import_s):
    print("# env " + json.dumps(environment()), flush=True)
    result, info = measure(args.workload, args.seed, args.seconds,
                           args.trace, import_s)
    print("# run " + json.dumps(info))
    print(json.dumps(result))
    return 0
