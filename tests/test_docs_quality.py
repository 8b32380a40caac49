"""Documentation quality gates.

The library promises doc comments on every public item; these tests
keep that promise honest as the code evolves.
"""

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent


def _all_modules():
    for info in pkgutil.walk_packages([str(PACKAGE_ROOT)], prefix="repro."):
        yield info.name


ALL_MODULES = sorted(_all_modules())


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-exports are documented at their origin
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: {undocumented}"


def test_public_methods_documented_in_key_classes():
    from repro.core.vmin import VminSearch
    from repro.dram.ecc import SecdedCode
    from repro.soc.chip import Chip
    for cls in (Chip, SecdedCode, VminSearch):
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            assert member.__doc__ and member.__doc__.strip(), \
                f"{cls.__name__}.{name}"


def test_design_and_experiments_docs_exist():
    repo_root = PACKAGE_ROOT.parent.parent
    for doc in ("DESIGN.md", "EXPERIMENTS.md", "README.md"):
        path = repo_root / doc
        assert path.exists(), doc
        assert len(path.read_text()) > 1000, doc
