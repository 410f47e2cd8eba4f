"""Every name an import binds is read in the file that imports it, and
every module-level private name of ``src/rdlab`` is read somewhere in it.

An ``ast`` scan of the modules of ``src/rdlab``, ``tests`` and ``perfbench``;
it only reads them.  ``from __future__`` imports and the package
``__init__``, whose imports are its public re-exports, are exempt from the
import check.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src/rdlab", "tests", "perfbench")
               for path in (ROOT / folder).glob("*.py") if path.name != "__init__.py")
SRC = sorted((ROOT / "src/rdlab").glob("*.py"))


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


def private_definitions(tree):
    """Module-level functions, classes and assigned names starting with one ``_``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def dead_private_names(sources):
    """``file: name`` of each private definition of ``sources`` (file name ->
    text) that no ``Name`` or attribute of any of them reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name}: {d}" for name, tree in trees.items()
                  for d in private_definitions(tree) - read)


def test_the_scan_finds_a_dead_private_name():
    sources = {"a.py": "_X = _Y = 1\n_Z: int = 2\n__all__ = []\ndef _f():\n    return _Y\n"
                       "class _C:\n    pass\n",
               "b.py": "import a\na._C()\n_Z = a._f\n"}
    assert dead_private_names(sources) == ["a.py: _X", "a.py: _Z", "b.py: _Z"]


def test_every_private_name_is_read():
    assert len(SRC) > 10
    assert dead_private_names({path.name: path.read_text() for path in SRC}) == []
