"""Every name a package module imports is referenced in that module."""

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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotation_nodes(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_sees_unused_and_string_annotation_names():
    source = ("from __future__ import annotations\nimport os, json\nfrom typing import Any, Iterable\n"
              "def f(x: 'Any') -> 'list[Iterable]':\n    return json.dumps(x)\n")
    assert unused_imports(source) == ["os (line 2)"]


def test_package_modules_use_every_import():
    unused = {path.name: unused_imports(path.read_text())
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
