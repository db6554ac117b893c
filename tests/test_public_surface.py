"""Every public top-level function and class in ``src/polytreelab`` has a
reader: code in the package names it, the package exports it in
``__all__``, or it is a click command or group in ``cli.py``. A public name
that only tests call is surface that callers must see through."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "polytreelab"


def _is_click_command(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def test_every_public_definition_is_named_by_the_package_or_exported():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
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
