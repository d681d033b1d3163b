import importlib
import pkgutil

import pqdist


def test_every_export_resolves():
    # ``__main__`` runs the CLI on import, and it exports nothing
    names = [m.name for m in pkgutil.iter_modules(pqdist.__path__) if m.name != "__main__"]
    modules = [pqdist] + [importlib.import_module(f"pqdist.{name}") for name in names]
    dangling = [f"{m.__name__}.{attr}" for m in modules for attr in getattr(m, "__all__", ()) if not hasattr(m, attr)]
    assert dangling == []
