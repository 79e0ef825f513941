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

# __all__ names that no src module references outside their own definition, each with the reason it stays
UNREFERENCED = {
    "evolve_pair": "the paper's dynamics; no experiment runs it yet",
    "stationarity_check": "the paper's dynamics; no experiment runs it yet",
    "stationary_partner": "the paper's dynamics; no experiment runs it yet",
    "first_order_invariance_check": "the paper's dynamics; no experiment runs it yet",
    "sic_expand": "the SIC expansion; no experiment runs it yet",
    "sic_reconstruct": "the SIC expansion; no experiment runs it yet",
    "haar_state": "bench/test_bench.py reads it as cli.haar_state",
    "result_schema": "the payload schema that bench/child.py validates records against",
    "DensityMatrix.pure": "the paper's dynamics; no experiment runs it yet",
    "DensityMatrix.maximally_mixed": "the paper's dynamics; no experiment runs it yet",
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


def test_every_public_name_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    unreferenced = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name, defs in _public_names(tree, importlib.import_module(f"twostate.{module}").__all__):
            # the nodes of the name's own definition do not count as uses of it
            own = {id(node) for d in defs for node in ast.walk(d)}
            attr = name.rpartition(".")[2]
            if not any(_references(other, attr, own if other is tree else set()) for other in trees.values()):
                unreferenced.add(name)
    assert unreferenced == set(UNREFERENCED)


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
