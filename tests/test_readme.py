"""README's "Quickstart (API)" block runs as written and prints what its
comments say it prints, and its "What is reproduced" table names only tests
that exist and only the three statuses."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_api_quickstart_prints_its_comments(capsys):
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Quickstart \(API\)\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # "# 1.333..." documents a value that starts with "1.333".
    comments = re.findall(r"^print\(.*#\s*(\S+)$", code, re.M)
    assert comments == ["4.0", "3.0", "1.333...", "True"]
    assert len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        if comment.endswith("..."):
            assert line.startswith(comment[:-3]), (line, comment)
        else:
            assert line == comment


def _claims_rows(text: str) -> list[list[str]]:
    """The cells of each row of the first table under "What is reproduced"."""
    section = re.search(r"^## What is reproduced\n(.*?)^## ", text, re.S | re.M).group(1)
    table = re.search(r"^(\|.*\n)+", section, re.M).group(0)
    # A cell may hold an escaped pipe, "\|".
    rows = [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in table.splitlines()]
    header, rule, *body = rows
    assert header == ["Claim", "What the repo computes", "Scope", "Status", "Pinning test", "Command"]
    assert all(set(cell) <= {"-", " "} for cell in rule)
    return body


def _defines(path: pathlib.Path, names: list[str]) -> bool:
    """Whether the module at ``path`` defines ``Class::test`` or ``test``."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        node = next((node for node in body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name),
                    None)
        if node is None:
            return False
        body = node.body
    return True


def test_claims_table_names_existing_tests_and_known_statuses():
    rows = _claims_rows(README.read_text(encoding="utf-8"))
    assert rows
    for claim, _, _, status, tests, _ in rows:
        assert status in ("holds", "deviates", "not reached"), claim
        named = re.findall(r"`(tests/[^`]+)`", tests)
        assert named, claim
        for test in named:
            path, *names = test.split("::")
            assert (ROOT / path).is_file() and _defines(ROOT / path, names), (claim, test)
