"""Every name a walkrec module or test file imports is used in that file."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "walkrec")
# __init__ imports names to re-export them
MODULES = sorted(path for path in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(path) != "__init__.py")
# test_acceptance.py is the frozen contract and is left as it is
TEST_FILES = sorted(
    path for pattern in ("tests/*.py", "perfbench/tests/*.py")
    for path in glob.glob(os.path.join(ROOT, pattern))
    if os.path.basename(path) != "test_acceptance.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [
        "line 1: os"]


def _file_id(path: str) -> str:
    return os.path.relpath(path, SRC if os.path.dirname(path) == SRC else ROOT)


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=_file_id)
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
