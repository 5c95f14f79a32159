"""The package runs on the standard library alone: every absolute import in
src/latticechains names a standard-library module."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "latticechains"

# CPython's built-in SHA-256 module has had two names, each a standard-library
# module on these versions only, [first, stop): an import of one passes where
# a missing module falls back, in a try whose handler catches ImportError
BUILTIN_HASH = {"_sha2": ((3, 12), None), "_sha256": ((3, 10), (3, 12))}


def catches_import_error(handler):
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(kind, ast.Name) and kind.id == "ImportError" for kind in kinds)


def absolute_imports(path):
    """(module name, guarded) for each absolute import in the file: guarded
    if it sits in the body of a try that catches ImportError."""
    tree = ast.parse(path.read_text(), filename=str(path))
    guarded = {id(node) for tried in ast.walk(tree)
               if isinstance(tried, ast.Try) and any(map(catches_import_error, tried.handlers))
               for stmt in tried.body for node in ast.walk(stmt)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, id(node) in guarded) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, id(node) in guarded


def allowed(name, guarded):
    if name in BUILTIN_HASH:
        first, stop = BUILTIN_HASH[name]
        listed = first <= sys.version_info[:2] and (stop is None or sys.version_info[:2] < stop)
        return guarded and (name in sys.stdlib_module_names or not listed)
    return name.partition(".")[0] in sys.stdlib_module_names


def test_every_runtime_import_is_standard_library():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    outside = [(path.name, name) for path in files for name, guarded in absolute_imports(path)
               if not allowed(name, guarded)]
    assert outside == []


def test_a_builtin_hash_module_passes_only_where_a_missing_one_falls_back(tmp_path):
    source = tmp_path / "source.py"
    source.write_text(
        "import _sha2\n"
        "try:\n    from _sha256 import sha256\nexcept ImportError:\n    from hashlib import sha256\n"
        "try:\n    import _sha2\nexcept KeyError:\n    pass\n"
        "try:\n    import requests\nexcept ImportError:\n    pass\n")
    found = sorted(absolute_imports(source))
    assert found == [("_sha2", False), ("_sha2", False), ("_sha256", True),
                     ("hashlib", False), ("requests", True)]
    # unguarded, under a handler that misses ImportError, guarded, the
    # fallback itself, and a third-party name that no guard lets through
    assert [allowed(*item) for item in found] == [False, False, True, True, False]
