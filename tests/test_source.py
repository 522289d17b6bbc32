"""Static checks on the source tree, read as syntax trees without importing it."""

import ast

from conftest import ROOT


def _sources():
    package = ROOT / "src" / "graphsplines"
    yield from (path for path in sorted(package.glob("*.py")) if path.name != "__init__.py")
    yield from sorted((ROOT / "tests").glob("*.py"))
    yield from sorted((ROOT / "scripts").glob("*.py"))


def names_read(tree) -> set[str]:
    """Names that some expression of ``tree`` reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(tree) -> list[str]:
    """Names an import binds in the module that no expression of it reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = names_read(tree)
    return [name for name in imported if name not in used]


def unread_private_definitions(trees) -> list[str]:
    """Module-level private functions and classes of ``trees``, a map from
    a module's name to its syntax tree, that no other top-level statement
    of any of them reads; a recursive call is not a read."""
    statements = [(where, statement) for where, tree in trees.items() for statement in tree.body]
    reads = [(statement, names_read(statement)) for _, statement in statements]
    return [f"{where}: {statement.name}" for where, statement in statements
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
            and statement.name.startswith("_")
            and not any(statement.name in names for other, names in reads if other is not statement)]


def test_every_private_definition_in_the_package_is_read():
    # a refactor must not leave a dead helper behind
    package = ROOT / "src" / "graphsplines"
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    assert "polynomials.py" in trees
    assert unread_private_definitions(trees) == []


def test_a_helper_read_only_by_itself_is_unread():
    source = """
def _dead(n):
    return _dead(n - 1) if n else 0

def _used():
    return 1

class _Kept:
    pass

def public():
    return _used() + len([_Kept])
"""
    trees = {"module.py": ast.parse(source)}
    assert unread_private_definitions(trees) == ["module.py: _dead"]


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


def attribute_reads(tree, name: str) -> list[int]:
    """Line numbers of the expressions of ``tree`` that read the attribute ``name``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == name]


def test_no_package_module_reads_terms():
    # Polynomial.terms unpacks every term and builds every Fraction; the
    # package reads the packed numerators instead
    package = ROOT / "src" / "graphsplines"
    reads = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in attribute_reads(ast.parse(path.read_text(), filename=str(path)), "terms")]
    assert reads == []


def test_an_attribute_read_is_found():
    tree = ast.parse("def terms(p):\n    return p.terms, q.other\n")
    assert attribute_reads(tree, "terms") == [2]


def imported_from(tree, module: str) -> list[str]:
    """Names that the relative imports ``from .<module> import ...`` of ``tree`` bind."""
    return sorted(alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
                  for alias in node.names)


def framing(function) -> list[str]:
    """What ``function`` does of the CLI's framing: a call of ``_load``, a
    "command" key or a "graph:" line, and a return that is not the pair
    (report fields, text lines), as an exit status would make it."""
    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_load":
            found.append(f"{node.lineno}: calls _load")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                node.value == "command" or node.value.startswith("graph:")):
            found.append(f"{node.lineno}: writes {node.value!r}")
        elif isinstance(node, ast.Return) and not (
                isinstance(node.value, ast.Tuple) and len(node.value.elts) == 2):
            found.append(f"{node.lineno}: returns other than (fields, lines)")
    return found


def test_cli_handlers_are_library_calls_plus_printing():
    # main loads the graph, writes the "command" key and the graph: line and
    # picks the exit status; the algebra lives in the library
    path = ROOT / "src" / "graphsplines" / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert imported_from(tree, "polynomials") == ["number_text"]
    assert imported_from(tree, "lattice") == ["integer_flow_up_basis"]
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(handlers) == 7
    assert [f"{handler.name}:{what}" for handler in handlers for what in framing(handler)] == []


def test_framing_is_found():
    source = '''
def _cmd_old(args):
    graph = _load(args)
    lines = [f"graph: {graph.describe()}"]
    return 0, {"command": "old", "verdict": "yes"}, lines
'''
    function = ast.parse(source).body[0]
    assert sorted(framing(function)) == ["3: calls _load", "4: writes 'graph: '",
                                         "5: returns other than (fields, lines)",
                                         "5: writes 'command'"]
