"""Seeded workloads: the inputs each one generates, the operation it times,
and the checks that decide whether an operation succeeded.

Only public names of ``lattice_recon`` are used, so refactors behind the
package's exports do not break the benchmark.

Why these three workloads (each stresses a different layer):

* ``recon-pipeline`` -- reconstruction tasks in d = 3-4 over all three
  spaces and plans.  Building the auxiliary sum or difference set and the
  prime walk of ``required_n`` take most of each operation; the transforms
  run at n of at most a few 10^5.
* ``integ-highdim`` -- integration tasks in d = 6-8 with thousands of
  indices, half searched by ``mixed`` and half by ``elimination``.  No sum
  set is built; the mirror step, the candidate kernels and the pure-Python
  oracle do the work.
* ``recon-large-n`` -- one plan-C lattice with n = 1,939,901 built during
  set-up; each operation samples, synthesizes and maps back, so the FFT at
  an odd prime length dominates and the CBC layers only show in set-up.
"""

import hashlib
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

import lattice_recon as lr
from lattice_recon import (CbcTask, TransformKind, WeightedSetRule,
                           cbc_construct, difference_set, make_weighted_set,
                           mirrored, project, random_downward_closed,
                           required_n, sample_values, smooth_function, sum_set)

COEFF_TOL = 1e-9

KIND = {"fourier": TransformKind.IDENTITY, "cosine": TransformKind.TENT,
        "chebyshev": TransformKind.COSINE_OF_TENT}
SYNTH = {"fourier": lr.fourier_values_from_coeffs,
         "cosine": lr.cosine_values_from_coeffs,
         "chebyshev": lr.chebyshev_values_from_coeffs}
# the forward maps run the program's own aliasing verifier before the FFT
FORWARD = {
    "fourier": lambda lat, L, plan, values, c_table:
        lr.fourier_coeffs_from_values(lat, L, values),
    "cosine": lambda lat, L, plan, values, c_table:
        lr.cosine_coeffs_from_values(lat, L, plan, values, c_table=c_table),
    "chebyshev": lambda lat, L, plan, values, c_table:
        lr.chebyshev_coeffs_from_values(lat, L, plan, values,
                                        c_table=c_table),
}
VERIFY = {None: lr.verify_fourier, "A": lr.verify_plan_a,
          "B": lr.verify_plan_b, "C": lr.verify_plan_c}

# recon-pipeline: (space, plan, d, rule, |L| of a random set, target work).
# The work target fixes the pair count of the auxiliary set (see
# work_size), so that every seed yields tasks of about the same cost.
# The order alternates costly and cheap tasks.
PIPELINE = (
    ("cosine", "A", 3, "sum", None, 130_000),
    ("fourier", None, 4, "product", None, 100_000),
    ("cosine", "B", 4, "product", None, 100_000),
    ("cosine", "C", 3, "random", 200, 240_000),
    ("chebyshev", "A", 3, "random", 90, 120_000),
    ("fourier", None, 3, "random", 330, 108_900),
    ("chebyshev", "C", 4, "product", None, 180_000),
    ("chebyshev", "B", 3, "max", None, 130_000),
)

# integ-highdim: (space, strategy, d, target |A|), product-rule sets
INTEG = (
    ("fourier", "mixed", 8, 9_000),
    ("cosine", "elimination", 6, 30_000),
    ("chebyshev", "mixed", 7, 32_000),
    ("fourier", "elimination", 7, 8_500),
    ("cosine", "mixed", 7, 32_000),
    ("chebyshev", "elimination", 6, 30_000),
)

# recon-large-n: the ROADMAP baseline reconstruction row
LARGE_N_RULE = WeightedSetRule("product", (1.0,) * 4, 10)

SIZE_TOL = 0.04
SIZE_TRIES = 200


class GateFailure(RuntimeError):
    """An output of the program failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Item:
    """One task of a workload's batch; ``f`` is the smooth function that
    reconstruction operations sample."""

    label: str
    task: CbcTask
    f: object = None


@dataclass
class State:
    """Generated inputs of one workload; ``built`` is the lattice that
    recon-large-n constructs during set-up."""

    items: list
    built: object = None

    def digest(self):
        h = hashlib.sha256()
        for item in self.items:
            h.update(item.label.encode())
            h.update(item.task.base_set.as_array().tobytes())
        if self.built is not None:
            h.update(fingerprint(self.built).encode())
        return h.hexdigest()[:16]


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    fingerprint: str = ""
    err: float = 0.0
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# input generation

def work_size(space, goal, plan, L):
    """The size a task's cost grows with: |A| for integration, and for
    reconstruction the pairs its auxiliary set (or plan-C bound) is formed
    from."""
    mir = L.sum_two_pow()  # |M(L)| for a nonnegative set
    if goal == "integration":
        return len(L) if space == "fourier" else mir
    if space == "fourier":
        return len(L) ** 2
    if plan == "A":
        return mir * mir
    return len(L) * mir


def seeded_set(rng, rule, d, size, measure, target):
    """A downward closed set whose ``measure`` lies within SIZE_TOL of
    ``target``: seeded betas in [0.5, 1] and the nearest degree for the
    weighted rules, seeded growth for ``random``.  Draws again until the
    measure fits, keeping the closest draw if none does."""
    best = None
    for _ in range(SIZE_TRIES):
        if rule == "random":
            L = random_downward_closed(rng, d, size)
        else:
            betas = (1.0,) + tuple(sorted(rng.uniform(0.5, 1.0, d - 1),
                                          reverse=True))
            prev = None
            for degree in itertools.count(1):
                L = make_weighted_set(WeightedSetRule(rule, betas, degree), d)
                if measure(L) >= target:
                    break
                prev = L
            if prev is not None and target - measure(prev) < measure(L) - target:
                L = prev
        err = abs(measure(L) / target - 1.0)
        if best is None or err < best[0]:
            best = (err, L)
        if err <= SIZE_TOL:
            break
    return best[1]


def _label(task):
    if task.goal == "integration":
        what = f"integration-{task.strategy}"
    else:
        what = f"plan-{task.plan}" if task.plan else "reconstruction"
    return f"{task.space}/{what} d={task.base_set.dimension} " \
           f"|L|={len(task.base_set)}"


def setup(name, seed, tracer):
    """Generate the workload's inputs from ``seed``; recon-large-n also
    builds its lattice here."""
    rng = np.random.default_rng(seed)
    if name == "recon-pipeline":
        items = []
        for space, plan, d, rule, size, target in PIPELINE:
            L = seeded_set(rng, rule, d, size,
                           lambda S: work_size(space, "reconstruction",
                                               plan, S), target)
            task = CbcTask(space, "reconstruction", L, plan=plan)
            items.append(Item(_label(task), task, smooth_function(space, d)))
        return State(items)
    if name == "integ-highdim":
        items = []
        for space, strategy, d, target in INTEG:
            L = seeded_set(rng, "product", d, None,
                           lambda S: work_size(space, "integration", None, S),
                           target)
            task = CbcTask(space, "integration", L, strategy=strategy)
            items.append(Item(_label(task), task))
        return State(items)
    if name == "recon-large-n":
        L = make_weighted_set(LARGE_N_RULE, 4)
        task = CbcTask("cosine", "reconstruction", L, plan="C")
        tracer.op = "setup"
        built = construct(task, tracer)
        if tracer.enabled:
            replay_construction(task, built, tracer)
        cheb = replace(task, space="chebyshev")
        return State([Item(_label(task), task, smooth_function("cosine", 4)),
                      Item(_label(cheb), cheb,
                           smooth_function("chebyshev", 4))], built)
    raise ValueError(f"unknown workload {name!r}")


def coefficients(item, seed, op):
    """Seeded random coefficients on the item's index set, fresh per
    operation (``op`` = -1 is the warm-up)."""
    task = item.task
    if task.goal != "reconstruction":
        return None
    L = task.base_set
    rng = np.random.default_rng([seed, op + 1])
    values = rng.standard_normal(len(L))
    if task.space == "fourier":
        values = values + 1j * rng.standard_normal(len(L))
    return dict(zip(L, values.tolist()))


# ---------------------------------------------------------------------------
# the operation

def construct(task, tracer):
    with tracer.span("cbc.construct"):
        return cbc_construct(task)


def run_op(item, coeffs, tracer, built=None):
    """One closed-loop operation: construct (unless ``built`` is given),
    then check the lattice.  The root span ``op`` covers exactly what an
    untraced run executes; with tracing on, single-call replays of the
    layers follow it as sibling spans.  Any exception fails the operation.
    """
    task = item.task
    counts = {}
    err = 0.0
    try:
        with tracer.span("op"):
            res = construct(task, tracer) if built is None else built
            lat = res.lattice()
            if task.goal == "integration":
                with tracer.span("check"):
                    integration_check(task.base_set, task.space, lat.n, lat.z)
            else:
                err = reconstruction_check(item, lat, res.c_table, coeffs,
                                           tracer)
        if tracer.enabled:
            if built is None:
                counts = replay_construction(task, res, tracer)
            if task.goal == "reconstruction":
                counts.update(replay_transform(task, lat, tracer))
    except Exception as exc:  # the loop goes on; the failure is counted
        return Outcome(False, f"{item.label}: {type(exc).__name__}: {exc}")
    return Outcome(True, fingerprint=fingerprint(res), err=err, counts=counts)


def reconstruction_check(item, lat, c_table, coeffs, tracer):
    """Sample the smooth function, synthesize ``coeffs``, map the values
    back and return the largest coefficient error; raises GateFailure when
    it exceeds COEFF_TOL."""
    task = item.task
    space, L = task.space, task.base_set
    with tracer.span("transform.sample"):
        values = sample_values(item.f, lat, KIND[space])
    with tracer.span("transform.synth"):
        synth = SYNTH[space](lat, L, coeffs)
    with tracer.span("transform.forward"):
        table = FORWARD[space](lat, L, task.plan, synth, c_table)
    with tracer.span("check"):
        if values.shape != (lat.n,) or not np.all(np.isfinite(values)):
            raise GateFailure("sampled values are not n finite numbers")
        if len(table) != len(L):
            raise GateFailure(f"{len(table)} coefficients for {len(L)} "
                              "indices")
        got = np.asarray([table[k] for k in L])
        want = np.asarray([coeffs[k] for k in L])
        err = float(np.abs(got - want).max())
        if not err <= COEFF_TOL:
            raise GateFailure(f"coefficients recovered to {err:.3g} only")
    return err


def integration_check(L, space, n, z):
    """Independent exactness check: no nonzero index of L (Fourier) or of
    its sign changes (cosine, Chebyshev) may satisfy k.z = 0 mod n.  int64
    with a mod-n reduction per term; raises GateFailure on a hit."""
    arr = L.as_array()
    arr = arr[np.any(arr != 0, axis=1)]
    terms = (arr % n) * (np.asarray(z, dtype=np.int64) % n) % n
    d = arr.shape[1]
    signs = [(1,) * d] if space == "fourier" \
        else itertools.product((1, -1), repeat=d)
    for sign in signs:
        sign = np.asarray(sign, dtype=np.int64)
        hit = np.flatnonzero((terms * sign).sum(axis=1) % n == 0)
        if hit.size:
            k = tuple(int(v) for v in sign * arr[hit[0]])
            raise GateFailure(f"index {k} lies in the dual lattice (n={n})")


def fingerprint(res):
    """n and short hashes of z and the plan-C table."""
    zh = hashlib.sha256(np.asarray(res.z, dtype=np.int64).tobytes())
    ch = hashlib.sha256(repr(sorted((res.c_table or {}).items())).encode())
    return f"{res.n}:{zh.hexdigest()[:12]}:{ch.hexdigest()[:12]}"


# ---------------------------------------------------------------------------
# traced replays and computed counts

def replay_construction(task, res, tracer):
    """Time the construction's layers one public call each, and check the
    returned lattice with the program's naive oracle."""
    L = task.base_set
    lat = res.lattice()
    counts = {}
    M = None
    if task.space != "fourier":
        with tracer.span("indexset.mirror"):
            M = mirrored(L)
        counts["mirror_rows"] = len(M)
    if task.goal == "integration":
        A = L if task.space == "fourier" else M
    elif task.plan != "C":
        X, Y = {None: (L, L), "A": (M, M), "B": (L, M)}[task.plan]
        with tracer.span("indexset.aux"):
            A = difference_set(L) if task.plan is None else sum_set(X, Y)
        counts["aux_pairs"] = len(X) * len(Y)
        counts["aux_rows"] = len(A)
    with tracer.span("cbc.required_n"):
        n0 = required_n(task)
    if res.n < n0:
        raise GateFailure(f"n={res.n} is below required_n={n0}")
    with tracer.span("lattice.oracle"):
        if task.plan == "C":
            ok, table = lat.plan_c_check_naive(L)
            ok = ok and table == res.c_table
            counts["oracle_rows"] = L.sum_two_pow()
        else:
            ok = lat.dual_check(A)
            counts["oracle_rows"] = len(A)
    if not ok:
        raise GateFailure("the naive oracle rejects the returned lattice")
    counts.update(search_counts(task, res.stats))
    return counts


def search_counts(task, stats):
    """Candidates and residue evaluations of the brute-force steps, from
    the public CbcResult stats: a step that failed n_fail times evaluated
    n_fail + 1 candidates over its rows (|L_s| for Fourier, |M(L_s)|
    otherwise)."""
    L = task.base_set
    candidates = evals = bf_steps = elim_steps = 0
    for st in stats.steps:
        if st.strategy != "brute_force":
            elim_steps += 1
            continue
        Ls = project(L, st.step, "full")
        rows = len(Ls) if task.space == "fourier" else Ls.sum_two_pow()
        bf_steps += 1
        candidates += st.n_fail + 1
        evals += (st.n_fail + 1) * rows
    return {"candidates": candidates, "bf_steps": bf_steps,
            "elim_steps": elim_steps, "restarts": stats.restarts,
            "residue_evals": evals}


def replay_transform(task, lat, tracer):
    """Time the verifier the forward map runs before its FFT; count the
    evaluations and the nominal FFT work of one operation."""
    with tracer.span("transform.verify"):
        ok = VERIFY[task.plan](lat.z, lat.n, task.base_set)
    if not ok:
        raise GateFailure("the program's verifier rejects its own lattice")
    n = lat.n
    return {"sample_evals": n if task.space == "fourier" else n // 2 + 1,
            "fft_len": n, "fft_flops": 2 * 5 * n * math.log2(n)}
