"""README's "Quickstart (API)" block runs as written and prints what its
comments say it prints."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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
