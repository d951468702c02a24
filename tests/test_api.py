"""The library keeps only what the program runs: each public module-level
name in src/prodfree, each public method and property of its public classes
and each public field of its public dataclasses, is used by other code of
the package or by the benchmark, and what only the tests need lives in
tests/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _defined(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each public module-level name of tree, with the statement binding it."""
    out = {}
    for stmt in tree.body:
        for target in getattr(stmt, "targets", [getattr(stmt, "target", stmt)]):
            name = getattr(target, "id", getattr(target, "name", ""))
            if name and not name.startswith("_"):
                out[name] = stmt
    return out


def _refs(module: str | None, tree: ast.Module) -> set[tuple[str | None, str]]:
    """Each (module, name) that code of tree refers to: the names it imports
    from the package, attributes of the package modules it imports, and its
    own module-level names read outside the statement binding them.  A name
    inside a string refers to nothing."""
    own, modules, out = _defined(tree), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("prodfree")):
            source = (node.module or "").removeprefix("prodfree").lstrip(".")
            if source:
                out |= {(source, alias.name) for alias in node.names}
            else:
                modules |= {alias.asname or alias.name for alias in node.names}
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and own.get(node.id, stmt) is not stmt:
                out.add((module, node.id))
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                out.add((node.value.id, node.attr))
    return out


def _trees() -> dict[str, ast.Module]:
    """Each module of the package but __init__, which only re-exports."""
    return {path.stem: ast.parse(path.read_text())
            for path in (ROOT / "src" / "prodfree").glob("*.py") if path.stem != "__init__"}


def _benchmark() -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in (ROOT / "perfbench").rglob("*.py")]


def _methods(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Each public method and property of the public classes of tree, by
    "Class.name"."""
    return {
        f"{cls.name}.{func.name}": func
        for cls in tree.body if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for func in cls.body
        if isinstance(func, ast.FunctionDef) and not func.name.startswith("_")
    }


def _fields(tree: ast.Module) -> dict[str, str]:
    """Each public field of the public dataclasses of tree, by "Class.name"."""
    return {
        f"{cls.name}.{stmt.target.id}": stmt.target.id
        for cls in tree.body if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and not stmt.target.id.startswith("_")
    }


def _attributes(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The attribute names that code of tree calls, as in obj.name(...), and
    those it reads in any way."""
    calls = {node.func.attr for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return calls, reads


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    trees = _trees()
    used = set().union(*(_refs(module, tree) for module, tree in trees.items()),
                       *(_refs(None, tree) for tree in _benchmark()))
    defined = {(module, name) for module, tree in trees.items() for name in _defined(tree)}
    assert sorted(f"{m}.{n}" for m, n in defined - used) == []


def test_every_public_method_is_used_by_the_package_or_the_benchmark():
    # By name, as the type of an object is not known statically: a method
    # is used where some code calls an attribute of its name, and a
    # property (any decorated function) where some code reads one.
    trees = list(_trees().values())
    calls, reads = set(), set()
    for tree in trees + _benchmark():
        called, read = _attributes(tree)
        calls |= called
        reads |= read
    unused = [
        name for tree in trees for name, func in _methods(tree).items()
        if func.name not in (reads if func.decorator_list else calls)
    ]
    assert sorted(unused) == []


def test_every_public_field_is_read_by_the_package_or_the_benchmark():
    # By name, as for properties: a field is used where some code reads an
    # attribute of its name.
    trees = list(_trees().values())
    reads = set().union(*(_attributes(tree)[1] for tree in trees + _benchmark()))
    unused = [name for tree in trees for name, field in _fields(tree).items()
              if field not in reads]
    assert sorted(unused) == []
