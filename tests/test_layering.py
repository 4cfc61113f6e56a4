"""The package's import graph, read from its sources with ast."""

import ast
import pathlib

import shardcd as sc

SRC = pathlib.Path(sc.__file__).parent


def package_imports(path):
    """The shardcd modules that one source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "shardcd":
                continue
            if node.level == 0:
                module = module.partition(".")[2]
            if module:  # from .mod import name, from shardcd.mod import name
                found.add(module.split(".")[0])
            else:  # from . import mod, from shardcd import mod
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("shardcd."))
    return found


def test_lower_layers_import_no_higher_one():
    # the storage layer and the objectives stand alone, and the I/O layer
    # needs the storage layer and the native library's loader, not the driver
    graph = {path.stem: package_imports(path) for path in SRC.glob("*.py")}
    assert graph["data"] == set()
    assert graph["objectives"] == set()
    assert graph["dataio"] == {"data", "local"}
    # the CLI reaches the worker layer only through the engine
    assert graph["cli"] == {"baselines", "data", "dataio", "engine",
                            "objectives"}
