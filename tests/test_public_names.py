"""Every public name has a caller in the package or is a documented entry point.

A name is public when its module lists it in __all__ (cli, the command, has
no __all__). It counts as called when some module of g2coflow reads it
through the module that defines it: there, after `from .module import
name`, or as `module.name`; a local variable of the same name does not
count. Otherwise README's "Library entry points" section must list it as
`module.name` with the reason it stays.
"""

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

import g2coflow

SRC = Path(g2coflow.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
# the package's own __all__ re-exports names its modules define
MODULES = [path.stem for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]


@functools.cache
def read_names() -> frozenset[tuple[str, str]]:
    """(module, name) for each name a module of the package reads: its own,
    one bound by `from .module import name`, or `module.name` after
    `from . import module`."""
    used = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> (module, name), name None for a module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        bound[local] = (node.module, alias.name)
                    else:
                        bound[local] = (alias.name, None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                module, name = bound.get(node.id, (path.stem, node.id))
                if name is not None:
                    used.add((module, name))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module, name = bound.get(node.value.id, (None, ""))
                if name is None:
                    used.add((module, node.attr))
    return frozenset(used)


@functools.cache
def entry_points() -> frozenset[tuple[str, str]]:
    section = README.read_text().split("\n## Library entry points\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return frozenset(re.findall(r"^- `(\w+)\.(\w+)`: \S", section, re.MULTILINE))


@functools.cache
def public_names() -> frozenset[tuple[str, str]]:
    names = set()
    for module in MODULES:
        exported = getattr(importlib.import_module(f"g2coflow.{module}"), "__all__", ())
        names.update((module, name) for name in exported)
    return frozenset(names)


def test_every_public_name_has_a_caller_or_an_entry_point():
    used, listed = read_names(), entry_points()
    orphans = sorted(
        f"{module}.{name}"
        for module, name in public_names()
        if (module, name) not in used | listed
    )
    assert orphans == []


@pytest.mark.parametrize("entry", sorted(entry_points()), ids=".".join)
def test_entry_point_is_public_and_has_no_caller(entry):
    # a listed name that gained a caller, or left __all__, leaves the list
    assert entry in public_names()
    assert entry not in read_names()
