import importlib

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
