"""Every name an import binds is read in the file that imports it.

An ``ast`` scan of the modules of ``src/rdlab``, ``tests`` and ``perfbench``;
it only reads them.  ``from __future__`` imports and the package
``__init__``, whose imports are its public re-exports, are exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src/rdlab", "tests", "perfbench")
               for path in (ROOT / folder).glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """``name (line n)`` of each imported name that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            bound.update((alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\n" \
             "from a import b, c\nos.getcwd(b)\n"
    assert unused_imports(source) == ["np (line 3)", "c (line 4)"]


def test_every_import_is_used():
    unused = {str(path.relative_to(ROOT)): names for path in FILES
              if (names := unused_imports(path.read_text()))}
    assert len(FILES) > 30
    assert unused == {}
