"""The library is stdlib-only: every absolute import in the package names a
standard-library module, which ``dependencies = []`` alone cannot enforce."""

import ast
import sys
from pathlib import Path

import bsrig


def test_the_package_imports_only_the_standard_library():
    paths = sorted(Path(bsrig.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    stdlib = sys.stdlib_module_names
    assert sorted((name, module) for name, module in imported if module.split(".")[0] not in stdlib) == []
    assert {module for _, module in imported} >= {"__future__", "fractions", "math"}
