"""Tests of the benchmark's own correctness gate.

    python3 -m pytest perfbench

They feed lattices known to alias through the operation path and check
that the gate counts them as failed, then run a short seeded traced pass
of every workload and check that nothing fails and the computed counts
repeat.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()

import harness  # noqa: E402  (needs load_program first)
import lattice_recon as lr  # noqa: E402
import workloads  # noqa: E402
from lattice_recon import (CbcResult, CbcStats, CbcTask,  # noqa: E402
                           WeightedSetRule, make_weighted_set,
                           smooth_function)
from spans import NullTracer  # noqa: E402

RUN = Path(run.__file__)


def product_set(d, degree):
    return make_weighted_set(WeightedSetRule("product", (1.0,) * d, degree), d)


def aliasing(d, n=7):
    """z = (1, ..., 1) at a small prime n: k and k' with the same component
    sum share a residue, so any set with d >= 2 beyond degree 1 aliases."""
    return CbcResult((1,) * d, n, None, CbcStats())


def invoke(workload, seed, seconds=1, trace=1, cwd=None):
    proc = subprocess.run(
        [sys.executable, str(RUN if cwd is None else cwd / RUN.name),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("# run "))


# forward maps that skip the program's verifier, as a verifier that
# wrongly passes an aliasing lattice would
TRUSTING = {
    "fourier": lambda lat, L, plan, values, c_table:
        lr.fourier_coeffs_from_values(lat, L, values, unsafe=True),
    "cosine": lambda lat, L, plan, values, c_table:
        lr.cosine_coeffs_from_values(lat, L, plan, values, c_table=c_table,
                                     unsafe=True),
    "chebyshev": lambda lat, L, plan, values, c_table:
        lr.chebyshev_coeffs_from_values(lat, L, plan, values,
                                        c_table=c_table, unsafe=True),
}


@pytest.mark.parametrize("space,plan", [("fourier", None), ("cosine", "A"),
                                        ("cosine", "B"),
                                        ("chebyshev", "B")])
def test_aliasing_lattice_fails_reconstruction(space, plan, monkeypatch):
    task = CbcTask(space, "reconstruction", product_set(3, 4), plan=plan)
    item = workloads.Item("alias", task, smooth_function(space, 3))
    coeffs = workloads.coefficients(item, 0, 0)
    out = workloads.run_op(item, coeffs, NullTracer(), aliasing(3))
    assert not out.ok and "AliasingDetected" in out.reason

    monkeypatch.setitem(workloads.FORWARD, space, TRUSTING[space])
    out = workloads.run_op(item, coeffs, NullTracer(), aliasing(3))
    assert not out.ok and "coefficients recovered" in out.reason


@pytest.mark.parametrize("space", ["fourier", "cosine", "chebyshev"])
def test_aliasing_lattice_fails_integration(space):
    task = CbcTask(space, "integration", product_set(2, 8))
    item = workloads.Item("alias", task)
    out = workloads.run_op(item, None, NullTracer(), aliasing(2))
    assert not out.ok and "dual lattice" in out.reason


def test_constructed_lattice_passes_the_gate():
    task = CbcTask("cosine", "reconstruction", product_set(3, 4), plan="C")
    item = workloads.Item("ok", task, smooth_function("cosine", 3))
    built = workloads.construct(task, NullTracer())
    out = workloads.run_op(item, workloads.coefficients(item, 0, 0),
                           NullTracer(), built)
    assert out.ok, out.reason
    assert out.err <= workloads.COEFF_TOL


def test_tail_percentile_leaves_ten_samples_beyond():
    assert harness.tail_percentile(list(range(40))) == (29, 75.0)
    assert harness.tail_percentile([3.0, 1.0]) == (3.0, 100.0)


@pytest.mark.parametrize("workload", ["recon-pipeline", "integ-highdim",
                                      "recon-large-n"])
def test_short_pass_has_no_failures(workload):
    result, info = result_of(invoke(workload, seed=3))
    assert result["correct"]
    assert result["failed"] == 0 and info["fail_ratio"] == 0
    # a traced run covers the whole batch
    batch = {"recon-pipeline": len(workloads.PIPELINE),
             "integ-highdim": len(workloads.INTEG), "recon-large-n": 2}
    assert info["lattices"] == batch[workload]


def test_counts_repeat_for_a_seed():
    first, first_info = result_of(invoke("recon-pipeline", seed=5))
    second, second_info = result_of(invoke("recon-pipeline", seed=5))
    assert first_info["lattice_digest"] == second_info["lattice_digest"]
    assert first_info["input_digest"] == second_info["input_digest"]
    for metric in harness.LAYER_COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_untraced_run_reports_end_to_end_metrics():
    result, _ = result_of(invoke("recon-pipeline", seed=2, trace=0))
    assert result["correct"]
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in RUN.parent.glob("*.py"):
        shutil.copy(source, bench)
    proc = invoke("recon-pipeline", seed=1, cwd=bench)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
