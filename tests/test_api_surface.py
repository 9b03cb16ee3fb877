"""Every public function in src/probfas has a caller in src/probfas, or is
API that README or the acceptance suite pins.

A function only the tests call is test scaffolding living in the
package: state it in tests/conftest.py instead, or delete it."""

import ast
from pathlib import Path

import probfas

SRC = Path(probfas.__file__).parent

# API that README documents or the acceptance suite pins with no caller in src
ALLOWED = {
    "metrics.tpr_at_fpr", "metrics.auc", "metrics.round_half_up",
    "training.save_config", "training.load_trainlog", "generalized.run_generalized_pipeline",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _public_functions(trees):
    """(qualified name, module, bare name, def node) of module-level
    functions and of methods of module-level classes."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", module, node.name, node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", module, item.name, item


def _uses(trees):
    """(kind, module, name, qualifier, node) of every name a module loads:
    a bare name, ``x.name`` (qualifier x, or None when x is not a plain
    name) and ``from .x import name`` (qualifier x)."""
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield "name", module, node.id, None, node
            elif isinstance(node, ast.Attribute):
                yield "attr", module, node.attr, getattr(node.value, "id", None), node
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield "import", module, alias.name, node.module, node


def _is_call_site(use, module, is_method):
    """Any ``x.name`` for a method; for a function, a bare name in its own
    module, ``module.name`` or an import of it."""
    kind, where, _, qualifier, _ = use
    if is_method:
        return kind == "attr"
    return where == module if kind == "name" else qualifier == module


def test_every_public_function_has_a_caller_in_src():
    trees = _trees()
    uses_by_name = {}
    for use in _uses(trees):
        uses_by_name.setdefault(use[2], []).append(use)
    orphans = []
    for qualified, module, name, node in _public_functions(trees):
        own = {id(n) for n in ast.walk(node)}
        is_method = qualified.count(".") == 2
        if qualified not in ALLOWED and not any(
            id(use[4]) not in own and _is_call_site(use, module, is_method) for use in uses_by_name.get(name, [])
        ):
            orphans.append(qualified)
    assert not orphans, f"public functions with no caller in src/probfas: {orphans}"


def test_allowlist_names_existing_functions():
    defined = {qualified for qualified, *_ in _public_functions(_trees())}
    assert ALLOWED <= defined, sorted(ALLOWED - defined)
