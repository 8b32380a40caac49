"""Every module under ``src/repro`` must be reachable from an entry point.

A module earns its place by feeding a figure, a table, an ablation bench
or an example. This guard builds the static import graph from the real
entry points -- the CLI, ``examples/``, ``benchmarks/`` and the non-test
``perfbench/`` harness -- and fails naming every module that only its own
tests reach. It parses imports with :mod:`ast` and imports nothing.

Rules:

- imports anywhere in a file count, including inside functions, and so
  do ``__import__`` calls on a literal;
- ``from repro.pkg import Name`` resolves through the package
  ``__init__`` to the module that defines ``Name`` (likewise
  ``alias.Name`` after ``import repro.pkg as alias``);
- a package ``__init__``'s own imports reach nothing: re-exporting a
  module does not keep it alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules no entry point needs, each with its reason.
ALLOWED_UNREACHED = {
    "repro.version": "pyproject metadata, checked by test_version.py",
}


def _entry_scripts():
    """Entry points outside the package (``repro.__main__`` is the other)."""
    yield from sorted((ROOT / "examples").glob("*.py"))
    yield from sorted((ROOT / "benchmarks").glob("*.py"))
    yield from sorted(path for path in (ROOT / "perfbench").glob("*.py")
                      if not path.name.startswith("test_"))


def _package_modules():
    """Dotted name -> (path, is_package) for every module under src/repro."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        modules[".".join(parts[:-1] if is_package else parts)] = (path, is_package)
    return modules


def _imports(tree):
    """(module, name or None) for every import anywhere in ``tree``."""
    found, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((alias.name, None))
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "__import__"
              and isinstance(node.args[0], ast.Constant)):
            found.append((node.args[0].value, None))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.append((aliases[node.value.id], node.attr))
    return found


def _reexports(modules):
    """Package -> {bound name: (module, name)} from its ``__init__``."""
    table = {}
    for dotted, (path, is_package) in modules.items():
        if not is_package:
            continue
        names = table[dotted] = {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    return table


def _resolve(module, name, modules, reexports):
    """The module that defines ``name`` as imported from ``module``."""
    if name is None:
        return module
    if f"{module}.{name}" in modules:
        return f"{module}.{name}"
    if name in reexports.get(module, {}):
        return _resolve(*reexports[module][name], modules, reexports)
    return module


def reachable_modules():
    """Every ``repro`` module the entry points import, transitively."""
    modules = _package_modules()
    reexports = _reexports(modules)
    reached, queue = set(), []

    def visit(imports):
        for module, name in imports:
            target = _resolve(module, name, modules, reexports)
            if target not in modules or target in reached:
                continue
            parts = target.split(".")
            reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
            if not modules[target][1]:
                queue.append(target)

    visit([("repro.__main__", None)])
    for path in _entry_scripts():
        visit(_imports(ast.parse(path.read_text())))
    while queue:
        dotted = queue.pop()
        visit(_imports(ast.parse(modules[dotted][0].read_text())))
    return reached, set(modules)


def test_every_module_feeds_an_entry_point():
    reached, modules = reachable_modules()
    assert set(ALLOWED_UNREACHED) <= modules, "stale allow-list entry"
    orphans = sorted(modules - reached - set(ALLOWED_UNREACHED))
    assert not orphans, (
        f"modules no CLI command, example, bench or perfbench op imports: "
        f"{orphans}; delete them with their tests, or wire them in")
