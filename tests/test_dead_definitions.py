"""No dead definitions: every top-level function, class and constant of the
package, and every method of its top-level classes, is read somewhere in the
package, the tests or the benchmark, outside its own definition.  Dunder
names (``__getattr__``, ``__all__``, ``__version__``, ``__post_init__``) are
exempt.  A read is a name or an attribute access; an import or a string
naming the definition is not.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "semishift").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def top_level_definitions(tree: ast.Module):
    """(name, node) for each top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def definitions(tree: ast.Module):
    """(name, node) for each top-level definition and each method of a top-level class."""
    for name, node in top_level_definitions(tree):
        yield name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield method.name, method


def read_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_package_definition_is_read_outside_itself():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    reads: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = read_name(node)
            if name is not None:
                reads.setdefault(name, []).append(node)
    dead = []
    for path in PACKAGE:
        for name, node in definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if all(id(n) in inside for n in reads.get(name, ())):
                dead.append(f"{path.name}:{node.lineno} {name}")
    assert dead == []
