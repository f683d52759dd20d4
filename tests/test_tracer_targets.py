"""The benchmark tracer's patch targets exist in isoflow.

``perfbench/layers.py`` replaces isoflow functions by name when a traced
benchmark run starts, so a renamed or deleted target fails only that run.
These tests read ``Tracer.install`` with ``ast``, without importing the
tracer, and look every target up in the module or class it names.
"""

import ast
import importlib
import pathlib

from isoflow.embedding import SampledSurface

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _tree():
    return ast.parse(LAYERS.read_text(encoding="utf-8"))


def _method(tree, cls, name):
    klass = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    return next(n for n in klass.body if isinstance(n, ast.FunctionDef) and n.name == name)


def _values(node, env):
    """The values an expression can take, as dotted names or strings; None if not static."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.Name):
        return env.get(node.id, [node.id])
    if isinstance(node, ast.Attribute):
        base = _values(node.value, env)
        return None if base is None else [f"{b}.{node.attr}" for b in base]
    if isinstance(node, (ast.Tuple, ast.List)):
        parts = [_values(elt, env) for elt in node.elts]
        return None if None in parts else [v for part in parts for v in part]
    return None


def _patch_targets():
    """(owner, attr) of every patch(owner, attr, ...) in Tracer.install with static names."""
    tree = _tree()
    env = {}
    for node in tree.body:  # module-level tuples such as _CONSTRUCTORS
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            values = _values(node.value, {})
            if isinstance(node.targets[0], ast.Name) and values is not None:
                env[node.targets[0].id] = values
    targets, dynamic = [], 0

    def visit(statements, env):
        nonlocal dynamic
        for stmt in statements:
            if isinstance(stmt, ast.For):
                visit(stmt.body, {**env, stmt.target.id: _values(stmt.iter, env)})
            elif (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                  and isinstance(stmt.value.func, ast.Name) and stmt.value.func.id == "patch"):
                owners, attrs = (_values(arg, env) for arg in stmt.value.args[:2])
                if owners is None or attrs is None:
                    dynamic += 1  # e.g. every key of a check table, read from the table
                else:
                    targets.extend((o, a) for o in owners for a in attrs)

    visit(_method(tree, "Tracer", "install").body, env)
    return targets, dynamic


def _resolve(dotted):
    module, *rest = dotted.split(".")
    owner = importlib.import_module(f"isoflow.{module}")
    for attr in rest:
        owner = getattr(owner, attr)
    return owner


def test_every_patch_target_exists():
    targets, dynamic = _patch_targets()
    assert dynamic == 1  # only the check tables' own keys are read at run time
    missing = []
    for owner, attr in targets:
        resolved = _resolve(owner)
        if not (attr in resolved if isinstance(resolved, dict) else hasattr(resolved, attr)):
            missing.append(f"{owner}.{attr}")
    assert missing == []
    # The names kept in isoflow only for the tracer are among those looked up.
    assert {("embedding", "check_frame"), ("embedding", "parallel_point"),
            ("cli", "sample")} <= set(targets)


def test_csv_counter_reads_sampled_surface_attributes():
    # _count_csv runs after each export_csv(sampled, path) and reads sampled.<attr>.
    counter = _method(_tree(), "Tracer", "_count_csv")
    read = {node.attr for node in ast.walk(counter)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "args"
            and isinstance(node.value.slice, ast.Constant) and node.value.slice.value == 0}
    assert read == {"points"}
    assert all(hasattr(SampledSurface, attr) for attr in read)
