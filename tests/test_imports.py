"""Module imports run one way: top level only, no TYPE_CHECKING, no cycle."""

import ast
from pathlib import Path

import hetqkd

PACKAGE_DIR = Path(hetqkd.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE_DIR.glob("*.py"))}


def _intra_package_imports(tree: ast.Module) -> set[str]:
    """Sibling modules named by ``from .x import ...`` or ``from . import x``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_no_import_inside_a_function():
    found = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}.{func.name}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found


def test_no_type_checking_block():
    found = [f"{name}:{node.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "TYPE_CHECKING"
             or isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING"
             or isinstance(node, ast.alias) and node.name == "TYPE_CHECKING"]
    assert not found


def test_package_import_graph_is_acyclic():
    graph = {name: _intra_package_imports(tree) & set(MODULES) for name, tree in MODULES.items()}
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        assert name not in path, f"import cycle: {' -> '.join(path + [name])}"
        if name not in done:
            for dep in sorted(graph[name]):
                visit(dep, path + [name])
            done.add(name)

    for name in graph:
        visit(name, [])
