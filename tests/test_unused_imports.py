"""Every name a package module imports is referenced in that module, and
every module-level private function and class is referenced in the package
outside its own definition."""

import ast
from pathlib import Path

import monotiles

PACKAGE = Path(monotiles.__file__).parent


def _annotation_nodes(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _string_annotation_names(tree: ast.AST) -> set[str]:
    """Names inside string annotations such as -> "Certificate"."""
    names = set()
    for annotation in _annotation_nodes(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """Imported names (except from __future__) that the module never references.
    Names inside string annotations such as -> "Certificate" count as references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _string_annotation_names(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_sees_unused_and_string_annotation_names():
    source = ("from __future__ import annotations\nimport os, json\nfrom typing import Any, Iterable\n"
              "def f(x: 'Any') -> 'list[Iterable]':\n    return json.dumps(x)\n")
    assert unused_imports(source) == ["os (line 2)"]


def test_package_modules_use_every_import():
    unused = {path.name: unused_imports(path.read_text())
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def _references(tree: ast.AST) -> set[str]:
    """Names, attribute names, imported names and string-annotation names in tree."""
    refs = _string_annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.asname or node.name)
    return refs


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes (module: name) that no
    module of `sources` references outside the definition itself."""
    parts = [(name, node, _references(node)) for name, source in sources.items() for node in ast.parse(source).body]
    out = []
    for name, node, _ in parts:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and not any(node.name in refs for _, other, refs in parts if other is not node)):
            out.append(f"{name}: {node.name}")
    return sorted(out)


def test_scan_sees_unreferenced_private_definitions():
    sources = {"a.py": "def _used():\n    return 1\n\ndef _self(n):\n    return _self(n - 1)\n\nclass _Gone:\n    pass\n",
               "b.py": "from . import a\n\ndef f():\n    return a._used()\n\ndef _g():\n    pass\n\nx: '_g'\n"}
    assert unreferenced_privates(sources) == ["a.py: _Gone", "a.py: _self"]


def test_package_private_definitions_are_referenced():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []
