"""The package's modules form layers: each imports only from the layers below it.

Every relative import sits at module level, so a module's dependencies can be
read off its header. Imports under ``if TYPE_CHECKING:`` are annotations only
and are exempt. The providers' class layering keeps the ``PolicyValueModel``
contract: forced EOS is served by the base class alone.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import seqdecode
from seqdecode import models
from seqdecode.models import PolicyValueModel

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


def _supplier(cls: type, name: str) -> type:
    """The class in ``cls``'s method resolution order that defines ``name``."""
    return next(c for c in cls.__mro__ if name in vars(c))


PROVIDERS = [
    c for c in vars(models).values() if isinstance(c, type) and issubclass(c, PolicyValueModel)
]


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda c: c.__name__)
def test_every_provider_serves_forced_eos_and_gathers_its_own_table(provider):
    # Forced EOS is the base rule, not a hook: no provider serves its own priors.
    assert _supplier(provider, "priors") is PolicyValueModel
    # The array hook reads the table of the class that defines it; the base one builds
    # the rows' states.
    gather = _supplier(provider, "prefix_priors")
    assert gather in (PolicyValueModel, _supplier(provider, "_table_priors"))


@pytest.mark.parametrize("module", LAYERS)
def test_no_class_but_the_base_defines_priors(module):
    # The runtime check above sees the classes of models.py; no module defines another
    # class that serves its own priors either.
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{module}.py:{item.lineno}: {cls.name}.{item.name}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and (module, cls.name) != ("models", "PolicyValueModel")
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name == "priors"
    ]
    assert not found, f"priors served outside PolicyValueModel: {found}"


def test_decode_mcts_charges_tokens_but_no_evaluations():
    # An element's evaluations are charged where they happen, by the arena: retiring an
    # element charges the simulations it skips, so decode_mcts adds up ArenaSearch.evaluations
    # and charges only the tokens it emits.
    path = PACKAGE / "mcts.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (decode,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "decode_mcts"]
    charges = {
        call.func.attr
        for call in ast.walk(decode)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr.startswith("charge_")
    }
    assert charges == {"charge_tokens"}
