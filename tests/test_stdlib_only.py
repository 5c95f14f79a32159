"""The package runs on the standard library alone: every absolute import in
src/latticechains names a standard-library module."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "latticechains"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_runtime_import_is_standard_library():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    outside = [(path.name, name) for path in files for name in absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
