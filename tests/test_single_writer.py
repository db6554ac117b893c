"""``cli.py`` has one writer: every command returns its report, and only the
``invoke`` of ``main``'s group class writes a report, builds an error report
or exits. A command that printed or exited by itself would bypass the error
report and the exit code that the group derives from the report."""

import ast
import pathlib

CLI = pathlib.Path(__file__).resolve().parents[1] / "src" / "polytreelab" / "cli.py"
WRITERS = {"write_report", "error_report", "print", "echo", "SystemExit"}


def _writer_name(node) -> str | None:
    """The name of the writer or exit that ``node`` references, if any."""
    if isinstance(node, ast.Name) and node.id in WRITERS:
        return node.id
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "sys":
            return f"sys.{node.attr}" if node.attr in ("exit", "stdout", "stderr") else None
        return node.attr if node.attr in WRITERS else None
    return None


def _group_invoke(tree):
    """The ``invoke`` method of the class that ``main``'s group decorator names."""
    (main,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    (cls_name,) = (
        keyword.value.id
        for decorator in main.decorator_list
        if isinstance(decorator, ast.Call)
        for keyword in decorator.keywords
        if keyword.arg == "cls"
    )
    (cls,) = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls_name)
    (invoke,) = (n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "invoke")
    return invoke


def test_only_the_group_invoke_writes_reports_and_exits():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    invoke = _group_invoke(tree)
    inside = {id(node) for node in ast.walk(invoke)}
    sites = [(node, _writer_name(node)) for node in ast.walk(tree) if _writer_name(node)]
    outside = [(node.lineno, name) for node, name in sites if id(node) not in inside]
    assert outside == []
    assert {name for _, name in sites} == {"write_report", "error_report", "sys.exit"}
