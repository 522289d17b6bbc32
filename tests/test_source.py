"""Static checks on the source tree, read as syntax trees without importing it."""

import ast

from conftest import ROOT


def _sources():
    package = ROOT / "src" / "graphsplines"
    yield from (path for path in sorted(package.glob("*.py")) if path.name != "__init__.py")
    yield from sorted((ROOT / "tests").glob("*.py"))
    yield from sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(tree) -> list[str]:
    """Names an import binds in the module that no expression of it reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_imports_and_no_assert_in_the_package():
    # a verdict check written as an assert would vanish under python -O
    unused, asserts = [], []
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(ROOT)
        unused += [f"{where}: {name}" for name in unused_imports(tree)]
        if where.parts[0] == "src":
            asserts += [f"{where}:{node.lineno}" for node in ast.walk(tree)
                        if isinstance(node, ast.Assert)]
    assert unused == []
    assert asserts == []
