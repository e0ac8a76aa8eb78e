"""Every module of the package uses what it imports.

No linter ships with the test environment, so the check reads each module's
syntax tree: a name bound by an import must be read somewhere in the module.
``__init__.py`` is skipped, because its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import rpsbm

MODULES = sorted(p for p in Path(rpsbm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_finds_an_unused_import():
    src = "import os\nfrom dataclasses import dataclass, field\n@dataclass\nclass A: pass\n"
    assert unused_imports(src) == ["field (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
