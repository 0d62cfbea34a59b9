import ast
import importlib
from pathlib import Path

import temporec

# the library modules whose public names the package re-exports; the CLI
# driver is left out so that ``import temporec`` does not import it
LIBRARY_MODULES = ("hierarchy", "sampling", "reconcile", "scoring", "cvopt", "simkit")


def test_package_exports_equal_module_exports():
    names = ["__version__"]
    for module in LIBRARY_MODULES:
        names += importlib.import_module(f"temporec.{module}").__all__
    assert sorted(temporec.__all__) == sorted(names)
    for name in temporec.__all__:
        assert hasattr(temporec, name), name


def test_benchmark_tracer_names_are_bound():
    # perfbench/runner.py replaces these module attributes with timing
    # wrappers; a name an import refactor drops would fail only a traced run
    runner = Path(__file__).resolve().parents[1] / "perfbench" / "runner.py"
    tree = ast.parse(runner.read_text())
    (wrapped,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    ]
    for module_name, names in ast.literal_eval(wrapped).items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_only_cvopt_imports_scipy():
    # the weight search is the one place that needs scipy; every other
    # module stays on numpy
    package = Path(temporec.__file__).resolve().parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "scipy" for module in modules):
                importers.add(path.name)
    assert importers == {"cvopt.py"}


def test_only_hierarchy_and_reconcile_name_the_walks():
    # the two child-map walks have one owner and one composer: every other
    # module reaches them through reconcile._lineage or hierarchy.aggregate
    package = Path(temporec.__file__).resolve().parent
    walks = {"_push_down", "_fill_means"}
    namers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if names & walks:
                namers.add(path.name)
    assert namers == {"hierarchy.py", "reconcile.py"}


def test_benchmark_imports_resolve():
    # perfbench imports library names inside its functions, so a name a
    # refactor drops would fail only a benchmark run
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    imported = []
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "temporec":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert imported
    for file_name, module_name, name in imported:
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"{file_name}: from {module_name} import {name}"
