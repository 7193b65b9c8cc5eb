"""The package's modules form layers: each imports only from the layers below it.

Every relative import sits at module level, so a module's dependencies can be
read off its header. Imports under ``if TYPE_CHECKING:`` are annotations only
and are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import seqdecode

LAYERS = ("mdp", "scoring", "models", "decoders", "mcts", "oracle", "harness", "cli")
PACKAGE = Path(seqdecode.__file__).parent


def _relative_imports(tree: ast.Module):
    """Yield ``(node, at_module_level)`` for every relative import outside
    ``if TYPE_CHECKING:`` blocks."""

    def walk(node: ast.AST, top: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and getattr(child.test, "id", None) == "TYPE_CHECKING":
                continue
            if isinstance(child, ast.ImportFrom) and child.level > 0:
                yield child, top
            nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from walk(child, top and not nested)

    yield from walk(tree, True)


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_lower_layers_at_module_level(module):
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rank = LAYERS.index(module)
    for node, at_module_level in _relative_imports(tree):
        where = f"{module}.py:{node.lineno}"
        assert at_module_level, f"{where}: relative import inside a function or class"
        assert node.level == 1 and node.module, f"{where}: import from the package's modules"
        target = node.module.split(".")[0]
        assert target in LAYERS[:rank], f"{where}: {module} imports {target}, not a lower layer"


def _self_calls(tree: ast.Module):
    """Yield ``(function, call)`` for every call of a function by its own name, or of a
    method through ``self`` or ``cls``, inside its own body."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if isinstance(f, ast.Name) and f.id == node.name:
                yield node, call
            elif (
                isinstance(f, ast.Attribute)
                and f.attr == node.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                yield node, call


@pytest.mark.parametrize("module", LAYERS)
def test_no_function_calls_itself(module):
    # Walks are loops over batches (``mdp.complete``, the oracle's level walker), never
    # recursion one state at a time.
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{module}.py:{call.lineno}: {fn.name}" for fn, call in _self_calls(tree)]
    assert not found, f"recursive calls: {found}"


@pytest.mark.parametrize("module", LAYERS)
def test_forced_eos_is_asked_of_models_forces_eos(module):
    # One predicate says whether a provider keeps the base forced-EOS rule; no module
    # compares against the base method itself.
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{module}.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "priors"
        and getattr(node.value, "id", None) == "PolicyValueModel"
    ]
    assert not found, f"reads of PolicyValueModel.priors: {found}"
