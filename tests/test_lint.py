"""Static checks on the package source: no unused imports, no private
helper that nothing calls."""

import ast
from collections import Counter
from pathlib import Path

import sp2n

SOURCES = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(Path(sp2n.__file__).parent.glob("*.py"))}


def _referenced(node: ast.AST) -> Counter:
    """Every name read under node, bare or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    )


def test_every_import_is_read():
    for name, tree in SOURCES.items():
        if name == "__init__.py":
            continue  # the package namespace re-exports what it imports
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        assert imported <= read, (name, sorted(imported - read))


def test_every_private_function_is_referenced():
    everywhere = sum((_referenced(tree) for tree in SOURCES.values()), Counter())
    for name, tree in SOURCES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                outside = everywhere[node.name] - _referenced(node)[node.name]
                assert outside > 0, (name, node.name)
