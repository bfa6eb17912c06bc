"""Package-level checks: certificates are explicit raises that `python -O`
keeps, and the README's library quick start runs as written."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted((ROOT / "src" / "datex").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_readme_library_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 0 1 1"
    assert lines[-1] == "True"
