"""Command-line front end: index-set generation, CBC construction,
verification, reconstruction and error experiments, all file driven.

Exit codes: 0 success, 1 internal failure, 2 invalid arguments or config,
3 construction retry limit exceeded, 4 aliasing detected.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import sys

import numpy as np

from . import approx, cbc, indexset, lattice as latmod, transform
from .testfunctions import (BUILTIN_FUNCTIONS, builtin_test_function,
                            with_reference)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_RETRY = 3
EXIT_ALIASING = 4


class UsageError(ValueError):
    pass


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# indexset

def cmd_indexset(args) -> int:
    if args.mirror:
        source = indexset.read_indexset(args.mirror)
        result = indexset.mirrored(source)
    else:
        if args.rule is None or args.degree is None or args.dim is None:
            raise UsageError("generation needs --rule, --degree and --dim "
                             "(or use --mirror)")
        betas = tuple(float(b) for b in args.betas.split(","))
        rule = indexset.WeightedSetRule(args.rule, betas, args.degree)
        result = indexset.make_weighted_set(rule, args.dim)
    indexset.write_indexset(result, args.output)
    payload = {"indices": len(result), "dimension": result.dimension,
               "output": args.output}
    if args.report:
        report = indexset.properties(result)
        report_dict = dataclasses.asdict(report)
        report_dict["bound_violations"] = list(report.bound_violations)
        with open(args.report, "w", encoding="ascii") as fh:
            json.dump(report_dict, fh, indent=2, sort_keys=True)
            fh.write("\n")
        payload["report"] = args.report
    _emit(args, payload,
          f"wrote {len(result)} indices (dim {result.dimension}) "
          f"to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cbc

def _parse_n(text: str) -> int:
    if text == "auto":
        return 0
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"--n must be 'auto' or an integer, got {text!r}")


def _build_task(args, base_set) -> cbc.CbcTask:
    try:
        return cbc.CbcTask(
            space=args.space,
            goal=args.goal,
            base_set=base_set,
            plan=args.plan,
            n=_parse_n(args.n),
            strategy=args.strategy,
            mixed_switch_factor=args.mixed_switch_factor,
            reduce_n=args.reduce_n,
        )
    except cbc.InvalidTask as exc:
        raise UsageError(str(exc))


def cmd_cbc(args) -> int:
    base_set = indexset.read_indexset(args.input)
    task = _build_task(args, base_set)
    result = cbc.cbc_construct(task)  # re-validated against the oracle inside
    latmod.write_lattice(result.lattice(), args.output, result.c_table)
    stats_path = args.stats or args.output + ".stats.json"
    with open(stats_path, "w", encoding="ascii") as fh:
        json.dump(result.stats.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    payload = {"n": result.n, "z": list(result.z), "output": args.output,
               "stats": stats_path, "restarts": result.stats.restarts}
    _emit(args, payload,
          f"n={result.n} z={','.join(str(v) for v in result.z)} "
          f"-> {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _verify(task: cbc.CbcTask, lat: latmod.Rank1Lattice):
    """Run the lookup verifier and the naive oracle; returns (fast, oracle,
    c_table)."""
    cond = cbc._condition(task)
    fast = cond.verify(lat.z, lat.n)
    oracle_ok, c_table = cond.oracle(lat)
    return fast.ok, oracle_ok, (fast.c_table if fast.ok else c_table)


def cmd_verify(args) -> int:
    base_set = indexset.read_indexset(args.input)
    lat, _ = latmod.read_lattice(args.lattice)
    # an invalid task is a ValueError, which main() maps to exit 2
    task = cbc.CbcTask(args.space, args.goal, base_set, plan=args.plan)
    fast, oracle, c_table = _verify(task, lat)
    if fast != oracle:
        raise RuntimeError("lookup verifier and naive oracle disagree; "
                           "this is a bug")
    payload = {"valid": bool(fast), "n": lat.n, "z": list(lat.z)}
    if c_table is not None:
        payload["c_max"] = max(c_table.values())
    _emit(args, payload, "valid" if fast else "INVALID")
    return EXIT_OK if fast else 1


# ---------------------------------------------------------------------------
# reconstruct

def cmd_reconstruct(args) -> int:
    base_set = indexset.read_indexset(args.input)
    lat, _ = latmod.read_lattice(args.lattice)
    if lat.dimension != base_set.dimension:
        # --function samples before the map could report it
        raise UsageError(f"lattice dimension {lat.dimension} differs from "
                         f"index set dimension {base_set.dimension}")
    space = args.space
    plan = args.plan
    if space != "fourier" and plan is None:
        raise UsageError("cosine/chebyshev reconstruction needs --plan")
    if space == "fourier" and plan is not None:
        raise UsageError("--plan is meaningless for the Fourier space")
    if args.values:
        values = transform.read_values(args.values)
        if values.shape[0] != lat.n:
            raise UsageError(
                f"value file holds {values.shape[0]} values, lattice has "
                f"n={lat.n}")
    elif args.function:
        if args.function not in BUILTIN_FUNCTIONS:
            raise UsageError(f"unknown test function {args.function!r}; "
                             f"available: {', '.join(BUILTIN_FUNCTIONS)}")
        rng = np.random.default_rng(args.seed)
        f = builtin_test_function(args.function, space, base_set.dimension,
                                  rng)
        values = transform.sample_values(f, lat, approx.KIND_FOR_SPACE[space])
    else:
        raise UsageError("need --values FILE or --function NAME")

    table = transform.coeffs_from_values(space, lat, base_set, values, plan)
    transform.write_coefficients(table, args.output)
    payload = {"coefficients": len(table), "output": args.output}
    status = EXIT_OK
    if args.roundtrip:
        resynth = transform.values_from_coeffs(space, lat, base_set, table)
        deviation = float(np.max(np.abs(resynth - values)))
        payload["roundtrip_deviation"] = deviation
        if deviation >= args.tolerance:
            status = 1
    _emit(args, payload,
          f"wrote {len(table)} coefficients to {args.output}"
          + (f" (roundtrip deviation {payload['roundtrip_deviation']:.3e})"
             if args.roundtrip else ""))
    return status


# ---------------------------------------------------------------------------
# experiment

_CONFIG_KEYS = {"space", "plan", "function", "cases", "seed", "n"}


def _load_config(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key in ("space", "function", "cases"):
        if key not in config:
            raise UsageError(f"config misses required key {key!r}")
    if config["space"] not in cbc.SPACES:
        raise UsageError(f"unknown space {config['space']!r}")
    if config["function"] not in BUILTIN_FUNCTIONS:
        raise UsageError(f"unknown test function {config['function']!r}; "
                         f"available: {', '.join(BUILTIN_FUNCTIONS)}")
    plan = config.get("plan")
    if config["space"] != "fourier" and plan not in cbc.PLANS:
        raise UsageError("cosine/chebyshev experiments need plan A, B or C")
    if not isinstance(config["cases"], list) or not config["cases"]:
        raise UsageError("config key 'cases' must be a nonempty list")
    return config


def cmd_experiment(args) -> int:
    config = _load_config(args.config)
    space = config["space"]
    plan = config.get("plan")
    seed = int(config.get("seed", args.seed))
    rows = []
    for case in config["cases"]:
        if not isinstance(case, dict) or "dim" not in case \
                or "rule" not in case:
            raise UsageError("every case needs 'dim' and 'rule'")
        d = int(case["dim"])
        rule_spec = case["rule"]
        try:
            rule = indexset.WeightedSetRule(
                rule_spec["kind"], tuple(rule_spec["betas"]),
                int(rule_spec["degree"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad rule spec: {exc}")
        L = indexset.make_weighted_set(rule, d)
        rng = np.random.default_rng(seed)
        f = builtin_test_function(config["function"], space, d, rng)
        task = cbc.CbcTask(space, "reconstruction", L, plan=plan,
                           n=_parse_n(str(config.get("n", "auto"))))
        result = cbc.cbc_construct(task)
        if f.reference_coeffs is None:
            ref_degree = int(case.get("reference_degree",
                                      2 * rule.degree))
            ref_rule = indexset.WeightedSetRule(rule.kind, rule.betas,
                                                ref_degree)
            ref_set = indexset.make_weighted_set(ref_rule, d)
            f = with_reference(f, ref_set, result.n)
        report = approx.error_decomposition(f, result.lattice(), L, space,
                                            plan)
        rows.append({
            "d": d,
            "size": len(L),
            "n": result.n,
            "plan": plan if plan is not None else "A",
            "truncation_err": repr(float(report.truncation_err)),
            "approx_err": repr(float(report.approximation_err)),
            "rho": repr(float(report.rho)),
            "bound_slack": repr(float(report.bound_slack)),
        })
    fieldnames = ["d", "size", "n", "plan", "truncation_err", "approx_err",
                  "rho", "bound_slack"]
    with open(args.output, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    _emit(args, {"rows": len(rows), "output": args.output},
          f"wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-parseable JSON on stdout")
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr: the lattice built, "
                             "and n, slot count and route of each map")

    parser = argparse.ArgumentParser(
        prog="lattice-recon",
        description="rank-1 lattice construction, verification and "
                    "reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indexset", parents=[common],
                       help="generate or transform index sets")
    p.add_argument("--rule", choices=("max", "sum", "product"))
    p.add_argument("--betas", default="1",
                   help="comma-separated weights, first must be 1")
    p.add_argument("--degree", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--mirror", metavar="FILE",
                   help="mirror an existing index-set file instead")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", metavar="FILE",
                   help="also write a JSON properties report")
    p.set_defaults(func=cmd_indexset)

    def add_seed(q):
        q.add_argument("--seed", type=int, default=0,
                       help="seed of the built-in test function (default 0)")

    def add_task_flags(q):
        q.add_argument("--space", required=True, choices=cbc.SPACES)
        q.add_argument("--goal", default="reconstruction", choices=cbc.GOALS)
        q.add_argument("--plan", choices=cbc.PLANS)

    p = sub.add_parser("cbc", parents=[common],
                       help="construct a generating vector")
    add_task_flags(p)
    p.add_argument("--n", default="auto")
    p.add_argument("--strategy", default="mixed", choices=cbc.STRATEGIES)
    p.add_argument("--mixed-switch-factor", type=float, default=1.0)
    p.add_argument("--reduce-n", action="store_true",
                   help="shrink n afterwards while the vector stays valid")
    p.add_argument("-i", "--input", required=True, metavar="SETFILE")
    p.add_argument("-o", "--output", required=True, metavar="LATFILE")
    p.add_argument("--stats", metavar="FILE",
                   help="stats JSON path (default: LATFILE.stats.json)")
    p.set_defaults(func=cmd_cbc)

    p = sub.add_parser("verify", parents=[common],
                       help="verify a lattice against a task")
    add_task_flags(p)
    p.add_argument("-i", "--input", required=True, metavar="SETFILE")
    p.add_argument("--lattice", required=True, metavar="LATFILE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="map function values to coefficients")
    p.add_argument("--space", required=True, choices=cbc.SPACES)
    p.add_argument("--plan", choices=cbc.PLANS)
    p.add_argument("--lattice", required=True, metavar="LATFILE")
    p.add_argument("-i", "--input", required=True, metavar="SETFILE")
    p.add_argument("-V", "--values", metavar="FILE")
    p.add_argument("--function", metavar="NAME",
                   help="built-in test function instead of a value file")
    p.add_argument("-o", "--output", required=True, metavar="COEFFFILE")
    p.add_argument("--roundtrip", action="store_true")
    p.add_argument("--tolerance", type=float, default=1e-9)
    add_seed(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("experiment", parents=[common],
                       help="run an error-decomposition experiment")
    p.add_argument("--config", required=True, metavar="JSONFILE")
    p.add_argument("-o", "--output", required=True, metavar="CSVFILE")
    add_seed(p)
    p.set_defaults(func=cmd_experiment)
    return parser


@contextlib.contextmanager
def _progress_log(verbose: int):
    """With -v, the package's INFO records go to stderr for the duration
    of one command."""
    if not verbose:
        yield
        return
    logger = logging.getLogger("lattice_recon")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _progress_log(args.verbose):
        try:
            return args.func(args)
        except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
            # covers UsageError, InvalidTask and the file-format (a
            # header without one of its keys included) and rule
            # validation errors: all user input problems
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except cbc.RetryLimitExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RETRY
        except transform.AliasingDetected as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ALIASING
        except Exception as exc:  # pragma: no cover - defensive
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
