import importlib
import pkgutil

import shardcd as sc

# the command-line entry points, not library API
ENTRY_POINTS = ("cli", "__main__")


def test_every_module_export_is_defined_and_re_exported():
    # a deletion must not leave a stale name in a module's __all__, and
    # every library name must be reachable as shardcd.<name>
    modules = [info.name for info in pkgutil.iter_modules(sc.__path__)
               if info.name not in ENTRY_POINTS]
    assert {"baselines", "data", "dataio", "engine", "local",
            "objectives"} <= set(modules)
    for name in modules:
        mod = importlib.import_module(f"shardcd.{name}")
        for export in mod.__all__:
            assert hasattr(mod, export), f"{name}.__all__ lists {export}"
            assert getattr(sc, export, None) is getattr(mod, export), \
                f"shardcd does not re-export {name}.{export}"
