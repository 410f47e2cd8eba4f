"""Every name an import binds is read in the file that imports it, every
module-level private name of ``src/rdlab`` is read somewhere in it, each
public name that nothing in it reads is pinned with its reader outside it, and
``src/rdlab`` does not use ``numpy.polynomial``.

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


def module_definitions(tree):
    """Module-level functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def private_definitions(tree):
    """Module-level functions, classes and assigned names starting with one ``_``."""
    return {name for name in module_definitions(tree)
            if name.startswith("_") and not name.startswith("__")}


def loaded_names(trees):
    """The names that a ``Name`` or an attribute of any of ``trees`` reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def dead_private_names(sources):
    """``file: name`` of each private definition of ``sources`` (file name ->
    text) that no ``Name`` or attribute of any of them reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = loaded_names(trees.values())
    return sorted(f"{name}: {d}" for name, tree in trees.items()
                  for d in private_definitions(tree) - read)


def dead_public_names(sources):
    """Each public module-level definition of ``sources`` (file name -> text),
    and each public method as ``Class.method``, that no ``Name`` or attribute of
    any of them reads; a method is read by any attribute of its name."""
    trees = [ast.parse(text) for text in sources.values()]
    read, names = loaded_names(trees), set()
    for tree in trees:
        names.update(name for name in module_definitions(tree) if not name.startswith("_"))
        names.update(f"{cls.name}.{fn.name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
                     for fn in cls.body
                     if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"))
    return sorted(name for name in names if name.rsplit(".", 1)[-1] not in read)


def test_the_scan_finds_a_dead_private_name():
    sources = {"a.py": "_X = _Y = 1\n_Z: int = 2\n__all__ = []\ndef _f():\n    return _Y\n"
                       "class _C:\n    pass\n",
               "b.py": "import a\na._C()\n_Z = a._f\n"}
    assert dead_private_names(sources) == ["a.py: _X", "a.py: _Z", "b.py: _Z"]


def test_every_private_name_is_read():
    assert len(SRC) > 10
    assert dead_private_names({path.name: path.read_text() for path in SRC}) == []


# the public names of ``src/rdlab`` that nothing in it reads, each with a reader
# outside it that keeps it: a criterion, a test file or a perfbench workload
READ_OUTSIDE_SRC = {
    "ScalarLaw.entropy": "tests/test_conslaw.py",
    "conserved_from_primitive": "perfbench/workloads.py",           # family_sweep_p2_euler
    "primitive_from_conserved": "tests/test_conslaw.py",
    "conserved_increment_matrix": "tests/test_acceptance.py",       # criterion 11
    "divided_difference_rho_kappa": "tests/test_constraints.py",
    "entropy_pressure_correction": "tests/test_acceptance.py",      # criterion 10
    "convergence_order": "tests/test_acceptance.py",                # criteria 08 and 12
    "SodResult.density": "perfbench/workloads.py",                  # sod_corrected
    "locate_shock": "perfbench/workloads.py",                       # sod_corrected
    "split_normal_weights": "tests/test_acceptance.py",             # criterion 02
    "trace_normal_weights": "tests/test_flux_recovery.py",
    "cell_entropy_defect": "tests/test_acceptance.py",              # criterion 06
    "measure_shock_speed": "tests/test_acceptance.py",              # criterion 04
    "Mesh.boundary_faces": "perfbench/workloads.py",                # family_sweep_p2_euler
    "monotone_dt": "tests/test_acceptance.py",                      # criterion 07
}


def test_the_scan_finds_a_dead_public_name():
    sources = {"a.py": "X = 1\n_Y = 2\ndef f():\n    return X\nclass C:\n    def m(self):\n"
                       "        pass\n    def _p(self):\n        pass\n    def used(self):\n"
                       "        pass\n",
               "b.py": "import a\na.C().used()\n"}
    assert dead_public_names(sources) == ["C.m", "f"]


def test_every_public_name_is_read():
    """A public name that ``src/rdlab`` does not read is pinned with a reader
    outside it that does: a name no reader keeps is dead code to delete."""
    dead = dead_public_names({path.name: path.read_text() for path in SRC})
    assert dead == sorted(READ_OUTSIDE_SRC)
    for name, reader in READ_OUTSIDE_SRC.items():
        tree = ast.parse((ROOT / reader).read_text())
        assert name.rsplit(".", 1)[-1] in loaded_names([tree]), (name, reader)


def test_src_does_not_use_numpy_polynomial():
    """Gauss rules are tabulated: a run that imports ``numpy.polynomial`` and
    solves for ``leggauss``'s nodes pays for both in peak memory."""
    trees = [ast.parse(path.read_text()) for path in SRC]
    imported = {part for tree in trees for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in (getattr(node, "module", None) or "", *(a.name for a in node.names))
                for part in name.split(".")}
    assert len(trees) > 10
    assert not (loaded_names(trees) | imported) & {"polynomial", "leggauss"}
