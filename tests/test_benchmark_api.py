"""The benchmark under ``perfbench/`` imports the program only through the
public names of ``lattice_recon``; these tests read its sources (never
edit them) and check that every name it takes still resolves, so a
refactor of the package cannot silently break the benchmark."""

import ast
import inspect
from pathlib import Path

import lattice_recon

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_trees():
    """(tree, module aliases of lattice_recon, names imported from it) of
    every perfbench/*.py."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {alias.asname or alias.name
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "lattice_recon"}
        imported = {alias.asname or alias.name: alias.name
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "lattice_recon"
                    for alias in node.names}
        yield tree, aliases, imported


def _benchmark_names():
    """Every ``<alias>.<name>`` on a module alias of lattice_recon and every
    name in ``from lattice_recon import (...)`` across perfbench/*.py."""
    names = set()
    for tree, aliases, imported in _benchmark_trees():
        names.update(imported.values())
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id in aliases)
    return names


def _benchmark_calls():
    """(name, positional count, keyword names) of every call perfbench
    makes directly to a lattice_recon name."""
    calls = []
    for tree, aliases, imported in _benchmark_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in imported:
                name = imported[func.id]
            elif isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in aliases:
                name = func.attr
            else:
                continue
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)
            calls.append((name, len(node.args),
                          tuple(k.arg for k in node.keywords)))
    return calls


def test_every_name_the_benchmark_uses_resolves():
    names = _benchmark_names()
    # the scan sees both import styles
    assert {"cbc_construct", "fourier_coeffs_from_values",
            "verify_plan_c"} <= names
    assert sorted(n for n in names if not hasattr(lattice_recon, n)) == []


def test_every_call_the_benchmark_makes_binds():
    # each direct call still fits the signature it calls, keywords such as
    # the forward maps' unsafe= included
    calls = _benchmark_calls()
    assert ("fourier_coeffs_from_values", 3, ("unsafe",)) in calls
    unbound = []
    for name, positional, keywords in calls:
        try:
            inspect.signature(getattr(lattice_recon, name)).bind(
                *[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{name}: {exc}")
    assert unbound == []
