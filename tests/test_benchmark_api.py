"""The benchmark under ``perfbench/`` imports the program only through the
public names of ``lattice_recon``; these tests read its sources (never
edit them) and check that every name it takes still resolves, so a
refactor of the package cannot silently break the benchmark."""

import ast
import inspect
from pathlib import Path

import lattice_recon

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_names():
    """Every ``<alias>.<name>`` on a module alias of lattice_recon and every
    name in ``from lattice_recon import (...)`` across perfbench/*.py."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {alias.asname or alias.name
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "lattice_recon"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "lattice_recon":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                names.add(node.attr)
    return names


def test_every_name_the_benchmark_uses_resolves():
    names = _benchmark_names()
    # the scan sees both import styles
    assert {"cbc_construct", "fourier_coeffs_from_values",
            "verify_plan_c"} <= names
    assert sorted(n for n in names if not hasattr(lattice_recon, n)) == []


def test_per_space_forward_maps_accept_unsafe():
    for space in ("fourier", "cosine", "chebyshev"):
        forward = getattr(lattice_recon, f"{space}_coeffs_from_values")
        unsafe = inspect.signature(forward).parameters["unsafe"]
        assert unsafe.default is False
