"""Every public top-level function and class in ``src/polytreelab`` has a
reader: code in the package names it, the package exports it in
``__all__``, or it is a click command or group in ``cli.py``. Every public
method and property of a public class has one too: code in the package
names it, or the benchmark's tracer (``bench/tracer.py``) wraps it as one of
its ``TARGETS``. A public name that only tests call is surface that callers
must see through."""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polytreelab"
TRACER_PATH = ROOT / "bench" / "tracer.py"


def _is_click_command(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _package_trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _named(trees: dict) -> set:
    """Every name and attribute the package's code mentions."""
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return named


def _tracer_targets() -> set:
    """``module.py:Class.method`` for each method the tracer wraps."""
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"{module.rpartition('.')[2]}.py:{attr}" for module, attr, _ in tracer.TARGETS}


def test_every_public_definition_is_named_by_the_package_or_exported():
    trees = _package_trees()
    named = _named(trees)
    (exported,) = (
        ast.literal_eval(node.value)
        for node in trees["__init__.py"].body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in node.targets)
    )
    unread = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in named
        and node.name not in exported
        and not (module == "cli.py" and _is_click_command(node))
    ]
    assert unread == []


def test_every_public_method_is_named_by_the_package_or_traced():
    trees = _package_trees()
    named = _named(trees)
    traced = _tracer_targets()
    unread = [
        f"{module}:{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in named
        and f"{module}:{cls.name}.{node.name}" not in traced
    ]
    assert unread == []
