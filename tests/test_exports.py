"""Every exported name exists, and the package re-exports only listed names."""

import ast
import importlib
import types
from pathlib import Path

import monotiles

PACKAGE = Path(monotiles.__file__).parent


def missing_exports(module) -> list[str]:
    """Names in the module's __all__ that the module does not define."""
    return sorted(name for name in getattr(module, "__all__", ()) if not hasattr(module, name))


def unlisted_imports(init_source: str, modules: dict) -> list[str]:
    """`module.name` for each name the package __init__ imports from a sibling
    module whose __all__ does not list it, and `module.*` for a star import
    from a module without __all__ (a star import takes exactly __all__)."""
    out = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = getattr(modules[node.module], "__all__", None)
            out += [f"{node.module}.{alias.name}" for alias in node.names
                    if listed is None or alias.name not in (*listed, "*")]
    return sorted(out)


def package_modules() -> dict:
    return {path.stem: importlib.import_module(f"monotiles.{path.stem}")
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def test_checks_see_a_stale_address_export():
    analysis = types.ModuleType("analysis")
    exec("__all__ = ['address', 'check_partitions']\ndef check_partitions(): pass\n", analysis.__dict__)
    assert missing_exports(analysis) == ["address"]
    init = "from .analysis import (\n    address,\n    check_partitions,\n)\n"
    assert unlisted_imports(init, {"analysis": types.SimpleNamespace(__all__=["check_partitions"])}) \
        == ["analysis.address"]
    star = "from .analysis import *\n"
    assert unlisted_imports(star, {"analysis": types.SimpleNamespace(__all__=["check_partitions"])}) == []
    assert unlisted_imports(star, {"analysis": types.SimpleNamespace()}) == ["analysis.*"]


def test_every_listed_name_exists():
    modules = package_modules()
    assert {name: missing_exports(m) for name, m in modules.items() if missing_exports(m)} == {}


def test_package_imports_only_listed_names():
    assert unlisted_imports((PACKAGE / "__init__.py").read_text(), package_modules()) == []
