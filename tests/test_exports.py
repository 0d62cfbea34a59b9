import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
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


def test_package_binds_functions_and_leaves_out_the_cli():
    # the star import of the reconcile module rebinds the package attribute
    # from the submodule to the function of that name
    assert temporec.reconcile is sys.modules["temporec.reconcile"].reconcile
    src = Path(temporec.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, temporec; print('temporec.cli' in sys.modules)"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout.strip() == "False"


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


def test_no_module_imports_scipy():
    # both weight searches are numpy code; scipy is a test oracle only
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
    assert importers == set()


def test_only_two_functions_call_the_sorted_rows_kernel():
    # every sample score reaches the kernel through score_origin, except the
    # cutting-plane oracle, whose rows are sorted already; both sit in
    # scoring, next to the kernel
    package = Path(temporec.__file__).resolve().parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                if getattr(func, "id", getattr(func, "attr", None)) == "_sorted_crps":
                    callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"scoring.score_origin", "scoring._cv_oracle"}


def test_run_config_construction_is_the_one_parse_path():
    # a typed value, a flag, an environment value and a file value of a
    # setting all reach their type through RunConfig.__post_init__, and no
    # second check exists to drift from it
    package = Path(temporec.__file__).resolve().parent
    callers, config_methods = set(), set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if scope == "cli.RunConfig":
                    config_methods.add(child.name)
                visit(child, f"{scope}.{child.name}")
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) == "_parse_value":
                callers.add(scope)
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert callers == {"cli.RunConfig.__post_init__"}
    assert "__post_init__" in config_methods and "validate" not in config_methods


def test_no_dense_reference_in_the_library():
    # a method is a map and S is aggregate: no class or function defines a
    # dense ``entries`` and none reads one, and an identity the size of the
    # hierarchy is built only by wls_weights, the one dense map a run forms
    package = Path(temporec.__file__).resolve().parent
    definers, readers, identities = set(), set(), set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            scope = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if node.name == "entries":
                        definers.add(scope)
                    if isinstance(node, ast.ClassDef):
                        for stmt in node.body:
                            targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                            if any(getattr(t, "id", None) == "entries" for t in targets):
                                definers.add(scope)
                elif isinstance(node, ast.Attribute) and node.attr == "entries":
                    readers.add(scope)
                elif (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) in ("eye", "identity")
                    and any(getattr(arg, "attr", None) in ("M", "m") for arg in node.args)
                ):
                    identities.add(scope)
    assert definers == set() and readers == set()
    assert identities == {"reconcile.wls_weights"}


def test_a_run_never_loads_scipy(tmp_path):
    # a run that takes both search paths, the certified one (ranked,
    # simplex) and Nelder-Mead (stacked, affine), in a fresh interpreter
    src = Path(temporec.__file__).resolve().parents[1]
    script = (
        "import sys, warnings\n"
        "import temporec.cli as cli\n"
        "warnings.simplefilter('ignore')\n"
        "cli.run_experiment(cli.RunConfig(out=sys.argv[1], frequencies=(4, 2, 1),\n"
        "    train_cycles=10, val_cycles=2, test_cycles=1, n_paths=10,\n"
        "    schemes=('ranked', 'stacked'), methods=('bu', 'cv'),\n"
        "    cv_regimes=('simplex', 'affine'), cv_maxiter=5))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout.strip() == "[]"
    header, *rows = (tmp_path / "cv_weights.csv").read_text().splitlines()
    gaps = {tuple(r.split(",")[:2]): r.split(",")[header.split(",").index("gap")] for r in rows}
    assert gaps[("ranked", "simplex")] and not gaps[("stacked", "affine")]


def test_readme_quickstart_runs(tmp_path):
    # the README's one library example, as written, in a fresh interpreter;
    # it writes runs/demo under its working directory
    src = Path(temporec.__file__).resolve().parents[1]
    readme = (src.parent / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    proc = subprocess.run(
        [sys.executable, "-c", example], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "runs" / "demo" / "crps.csv").exists()


def _names_read(source: str) -> set:
    """The names that ``source`` imports, or reads as a name or an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
    return found


def _modules_naming(names: set) -> set:
    """The package files that import, read or call any of ``names``."""
    package = Path(temporec.__file__).resolve().parent
    return {
        path.name for path in sorted(package.glob("*.py")) if _names_read(path.read_text()) & names
    }


def test_every_exported_name_has_a_reader():
    # a public name that neither the package, the benchmark nor the README's
    # library example reads is API kept for no caller; the ``__all__`` lists
    # hold strings, so they read nothing
    root = Path(temporec.__file__).resolve().parents[2]
    sources = [path.read_text() for path in sorted((root / "src" / "temporec").glob("*.py"))]
    sources += [path.read_text() for path in sorted((root / "perfbench").glob("*.py"))]
    readme = (root / "README.md").read_text()
    sources += re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    read = set().union(*map(_names_read, sources))
    assert sorted(set(temporec.__all__) - read) == []


def test_only_reconcile_names_the_lineage_operator():
    # every other module builds its level maps with weights_from_levels,
    # except the cutting-plane oracle, which walks its own workspace
    assert _modules_naming({"_lineage"}) == {"reconcile.py"}


def test_only_sampling_names_the_coupling_draws():
    # one module owns how a permuted sample is drawn and how each origin
    # is keyed; every other module reaches them through assemble_origins
    assert _modules_naming({"Philox", "permuted", "_origin_seed"}) == {"sampling.py"}


def test_a_level_sample_is_a_bare_matrix_checked_only_at_assembly():
    # a level's matrix is its level by its place, coarse to fine, so no
    # record labels it, and only sampling raises the errors of a bad level set
    package = Path(temporec.__file__).resolve().parent
    assert not [p.name for p in package.glob("*.py") if "LevelSample" in p.read_text()]
    assert "LevelSample" not in temporec.__all__ and not hasattr(temporec, "LevelSample")
    assert _modules_naming({"MissingLevel", "RowCountMismatch", "ColumnMismatch"}) == {"sampling.py"}


def test_the_walks_have_one_owner_and_two_callers():
    # hierarchy owns the child-map walks; reconcile runs them for its maps
    # and the cutting-plane oracle in scoring runs the lineage walk in its
    # workspace; every other module reaches them through reconcile's maps
    # or hierarchy.aggregate
    assert _modules_naming({"fill_means"}) == {"hierarchy.py", "reconcile.py"}
    assert _modules_naming({"_Walk", "lineage"}) == {"hierarchy.py", "reconcile.py", "scoring.py"}


def test_the_coherence_check_is_independent_of_the_walks():
    # the check derives its windows from the level layout alone, so a wrong
    # child map or a wrong walk cannot pass the check of its own output
    walk_names = {"_Walk", "children", "fill_means", "lineage", "aggregate"}
    for module, name in [("hierarchy", "_window_means"), ("reconcile", "check_coherence")]:
        fn = getattr(importlib.import_module(f"temporec.{module}"), name)
        assert _names_read(inspect.getsource(fn)) & walk_names == set(), name


# the private names a package module may take from another, by (importer,
# owner); every other private name is used only inside its own module
PRIVATE_IMPORTS = {
    ("cli", "reconcile"): {"_coherence_bound"},
    ("cvopt", "scoring"): {"_cv_oracle"},
    ("cvopt", "sampling"): {"_freeze"},
    ("simkit", "sampling"): {"_freeze"},
    ("reconcile", "hierarchy"): {"_Walk", "_window_means"},
    ("scoring", "hierarchy"): {"_Walk"},
    ("scoring", "reconcile"): {"_level_weights"},
}


def _private_imports() -> dict:
    """(importer, owner) -> the private names a package module takes from
    another, by ``from .owner import _name`` or by reading ``owner._name``
    after ``from . import owner``."""
    package = Path(temporec.__file__).resolve().parent
    taken = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {}  # local name -> package module it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                parts = node.module.split(".") if node.module else []
                if not node.level:
                    if parts[:1] != ["temporec"]:
                        continue
                    parts = parts[1:]
                for alias in node.names:
                    if not parts:
                        owners[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_") and not alias.name.startswith("__"):
                        taken.setdefault((path.stem, parts[0]), set()).add(alias.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in owners
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                taken.setdefault((path.stem, owners[node.value.id]), set()).add(node.attr)
    return taken


def test_private_names_cross_modules_only_as_listed():
    # the oracle sits with cv_criterion in scoring, so cvopt takes no
    # scoring kernel, no reconcile weights and no walk
    assert _private_imports() == PRIVATE_IMPORTS


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
