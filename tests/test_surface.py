"""The package's public surface: what it exports, that each exported name and each public method of an exported
class is used, and the README example."""

import ast
import importlib
import re
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from types import ModuleType

import numpy as np

import twostate

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twostate"

# __all__ names that no src module references outside the definitions of such names, each with the reason it stays
UNREFERENCED = {
    "haar_state": "bench/test_bench.py reads it as cli.haar_state",
    "result_schema": "the payload schema that bench/child.py validates records against",
}
# names a src module imports and never reads, as ``module.name``, each with the reason it stays
UNREAD_IMPORTS = {
    "cli.haar_state": "bench/test_bench.py reads it as cli.haar_state",
}


def test_every_export_is_in_its_own_module_all():
    exported = {name: obj for name, obj in vars(twostate).items()
                if not name.startswith("_") and not isinstance(obj, ModuleType)}
    assert sorted(name for name, obj in exported.items() if name not in sys.modules[obj.__module__].__all__) == []


def _references(tree: ast.AST, name: str, skip: set) -> bool:
    return any(id(node) not in skip and (isinstance(node, ast.Name) and node.id == name
                                         or isinstance(node, ast.Attribute) and node.attr == name)
               for node in ast.walk(tree))


def _public_names(tree: ast.Module, exported: list):
    """Each exported name, and each public method of an exported class as ``Class.method``, with its definitions."""
    for name in exported:
        defs = [d for d in tree.body if getattr(d, "name", None) == name]
        yield name, defs
        for d in defs:
            if isinstance(d, ast.ClassDef):
                yield from ((f"{name}.{m.name}", [m]) for m in d.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _nodes(defs) -> set:
    return {id(node) for d in defs for node in ast.walk(d)}


def test_every_public_name_is_used_in_src():
    """A use counts only from outside the definitions of unused names, so a name that only dead code uses is
    dead too: the set of unused names grows to a fixpoint."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    names = [named for module, tree in trees.items() if module != "__init__"
             for named in _public_names(tree, importlib.import_module(f"twostate.{module}").__all__)]
    unreferenced, found = None, set()
    while found != unreferenced:
        unreferenced = found
        dead = _nodes(d for name, defs in names if name in unreferenced for d in defs)
        # the nodes of a name's own definition do not count as uses of it
        found = {name for name, defs in names
                 if not any(_references(tree, name.rpartition(".")[2], dead | _nodes(defs)) for tree in trees.values())}
    assert unreferenced == set(UNREFERENCED)


def test_no_module_imports_a_name_it_never_reads():
    unread = set()
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = ((alias.asname or alias.name).partition(".")[0] for alias in node.names)
                unread |= {f"{path.stem}.{name}" for name in bound if name not in read}
    assert unread == set(UNREAD_IMPORTS)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace, out = {}, StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), namespace)
    est, result = namespace["est"], namespace["result"]
    assert abs(est.frequency - 0.7) <= 5 * est.std_err
    assert np.allclose(result.frequencies(), [0.25, 0.09, 0.04], atol=0.01)
    assert out.getvalue().splitlines()[-1] == "[1 0 1 0]"
