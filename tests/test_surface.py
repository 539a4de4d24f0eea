"""The public surface: every exported name exists, every attribute that
the benchmark tracer (``bench/tracer.py``) patches resolves, so a later
cut of the surface cannot silently break ``--trace 1``, and the count of
options is pinned, so a new one has to change a test."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import posmap
from posmap import cli, sections

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"

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


def test_defaulted_parameter_budget():
    """Defaulted parameters over the exported functions: each is a knob."""
    defaults = [f"{name}.{param.name}"
                for name in posmap.__all__
                if inspect.isfunction(getattr(posmap, name))
                for param in inspect.signature(getattr(posmap, name)).parameters.values()
                if param.default is not inspect.Parameter.empty]
    assert len(defaults) == 11, defaults


def test_cli_section_types_are_the_sections_table():
    section = cli.build_parser()._subparsers._group_actions[0].choices["section"]
    (action,) = [a for a in section._actions if a.dest == "type"]
    assert action.choices is sections.SECTION_TYPES


def test_readme_cli_flags_exist():
    """Every --flag that README's CLI section names is an option of some
    subcommand, so the docs cannot keep a flag the parser dropped."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices.values()
    accepted = {flag for sub in subparsers for action in sub._actions
                for flag in action.option_strings}
    assert named, "README's CLI section names no flags"
    assert not named - accepted, sorted(named - accepted)
