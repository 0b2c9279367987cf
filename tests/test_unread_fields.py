"""A dataclass field that nothing reads is a value the program stores for
no one, a private function that nothing calls is code kept for its tests
alone, and an import that nothing loads is left over from deleted code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def is_classvar(annotation: ast.expr) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return isinstance(target, ast.Name) and target.id == "ClassVar"


def dataclass_fields(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and is_dataclass(node):
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and not is_classvar(item.annotation)
                ):
                    yield f"{node.name}.{item.target.id}", item.target.id


def private_functions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name[:1] == "_" and node.name[:2] != "__":
            yield node.name


def imported_names(tree: ast.Module):
    """The names that the import statements of ``tree`` bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def names_loaded(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def attributes_read(tree: ast.Module) -> set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read():
    """Each field of a dataclass in the package is read as an attribute
    somewhere in the package or the benchmark harness (by name only, so a
    field shares its reads with any attribute of the same name)."""
    package = sorted((ROOT / "src" / "morphcomplex").glob("*.py"))
    readers = package + sorted((ROOT / "perfbench").glob("*.py"))
    read: set[str] = set()
    for path in readers:
        read |= attributes_read(ast.parse(path.read_text(encoding="utf-8")))
    fields = [
        field for path in package for field in dataclass_fields(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert fields, "no dataclass found"
    assert [qualified for qualified, name in fields if name not in read] == []


def test_every_private_function_is_used():
    """Each module-level ``_name`` function of the package is called or
    referenced, as a name or an attribute, in the package or the benchmark
    harness; the tests alone do not keep it."""
    package = sorted((ROOT / "src" / "morphcomplex").glob("*.py"))
    readers = package + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in readers}
    used: set[str] = set()
    for tree in trees.values():
        used |= names_loaded(tree) | attributes_read(tree)
    private = [(path.stem, name) for path in package for name in private_functions(trees[path])]
    assert private, "no private function found"
    assert [f"{module}.{name}" for module, name in private if name not in used] == []


def test_every_import_is_used():
    """Each name that a module of the package imports is loaded as a name in
    that module; ``from __future__ import annotations`` binds none."""
    imported, unused = 0, []
    for path in sorted((ROOT / "src" / "morphcomplex").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = list(imported_names(tree))
        imported += len(names)
        unused += [f"{path.stem}.{name}" for name in names if name not in names_loaded(tree)]
    assert imported, "no import found"
    assert unused == []
