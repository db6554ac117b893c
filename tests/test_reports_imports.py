"""``reports.py`` is the codec only: canonical JSON and CSV, the error
report and the schema. Each command builds its own report in ``cli.py``, so
the codec reads nothing of the package but its errors."""

import ast
import pathlib

REPORTS = pathlib.Path(__file__).resolve().parents[1] / "src" / "polytreelab" / "reports.py"


def package_imports(tree) -> set[str]:
    """The ``polytreelab`` modules a module's source imports, by name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {
                alias.name.partition(".")[2].split(".")[0] or "__init__"
                for alias in node.names
                if alias.name.split(".")[0] == "polytreelab"
            }
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "polytreelab":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
    return found


def test_reports_imports_only_errors_from_the_package():
    tree = ast.parse(REPORTS.read_text(encoding="utf-8"))
    assert package_imports(tree) == {"errors"}


def test_the_guard_sees_every_import_form():
    source = (
        "from .gadget import GadgetAudit\n"
        "from . import bounds\n"
        "from polytreelab.structure import score\n"
        "import polytreelab.search\n"
        "import polytreelab\n"
        "import json\n"
    )
    assert package_imports(ast.parse(source)) == {
        "gadget", "bounds", "structure", "search", "__init__"
    }
