"""Every public function in src/probfas has a caller in src/probfas, and
every defaulted parameter of one is set by some call there, unless the
function is API that README, the acceptance suite or the benchmark pins.

A function only the tests call is test scaffolding living in the
package: state it in tests/conftest.py instead, or delete it. A default
that no call overrides is a constant: write it as one."""

import ast
from pathlib import Path

import probfas

SRC = Path(probfas.__file__).parent

# API that README documents or the acceptance suite pins with no caller in
# src, and cli.main, whose argv the tests and the benchmark pass and the
# console entry leaves to argparse
ALLOWED = {
    "metrics.tpr_at_fpr", "metrics.auc", "metrics.round_half_up",
    "training.save_config", "training.load_trainlog", "generalized.run_generalized_pipeline",
    "cli.main",
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


def _calls(trees):
    """The use of every call in src whose callee is a plain or dotted name,
    as _uses gives it, the Call node last."""
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                yield "name", module, node.func.id, None, node
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                yield "attr", module, node.func.attr, getattr(node.func.value, "id", None), node


def _params_set(call, params, n_required):
    """Which of a function's positional ``params`` a call sets, by position
    or keyword. A ``*args`` argument is taken to fill only what the other
    positional arguments leave of the first n_required; a ``**kwargs``
    argument may set any of them."""
    if any(kw.arg is None for kw in call.keywords):
        return set(params)
    n_positional = sum(not isinstance(arg, ast.Starred) for arg in call.args)
    if n_positional < len(call.args):
        n_positional = max(n_positional, n_required)
    return set(params[:n_positional]) | {kw.arg for kw in call.keywords}


def test_every_default_is_overridden_by_some_call_in_src():
    """A defaulted parameter that no call in src sets is a constant in
    disguise: make it one, or delete the parameter."""
    trees = _trees()
    calls_by_name = {}
    for use in _calls(trees):
        calls_by_name.setdefault(use[2], []).append(use)
    unset = []
    for qualified, module, name, node in _public_functions(trees):
        if qualified in ALLOWED:
            continue
        is_method = qualified.count(".") == 2
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        positional = [a.arg for a in node.args.posonlyargs + node.args.args][int(is_method and not static):]
        n_required = len(positional) - len(node.args.defaults)
        defaulted = positional[n_required:]
        defaulted += [a.arg for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
        own = {id(n) for n in ast.walk(node)}
        set_somewhere = set()
        for use in calls_by_name.get(name, []):
            if id(use[4]) not in own and _is_call_site(use, module, is_method):
                set_somewhere |= _params_set(use[4], positional, n_required)
        unset += [f"{qualified}({param})" for param in defaulted if param not in set_somewhere]
    assert not unset, f"defaulted parameters that no call in src/probfas sets: {unset}"


def test_no_module_is_over_650_lines():
    # every process compiles src/probfas from source, so the largest
    # module's compile() peak is part of every command's peak memory
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("*.py")}
    assert max(lines.values()) <= 650, {name: n for name, n in lines.items() if n > 650}
