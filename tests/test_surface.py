"""The public surface: every exported name exists, and every attribute
that the benchmark tracer (``bench/tracer.py``) patches resolves, so a
later cut of the surface cannot silently break ``--trace 1``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import posmap

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# Every submodule but __main__, which runs the CLI when imported.
MODULES = ["posmap"] + [f"posmap.{info.name}"
                        for info in pkgutil.iter_modules(posmap.__path__)
                        if not info.name.startswith("_")]


def _tracer_tables() -> dict:
    """SPANS and KERNELS of the tracer, read from its source, not imported."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("SPANS", "KERNELS")):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_tracer_patch_targets_resolve():
    tables = _tracer_tables()
    assert set(tables) == {"SPANS", "KERNELS"}
    for module, attr, _ in tables["SPANS"] + tables["KERNELS"]:
        # importlib reaches posmap.normalize, which the package's
        # normalize function shadows as an attribute.
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{module}.{attr} does not resolve"
