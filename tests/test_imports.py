import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "phlab")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
# where a definition of the package may be read
READERS = [os.path.join(d, f) for d in (PACKAGE, os.path.join(ROOT, "tests"),
                                        os.path.join(ROOT, "perfbench"))
           for f in sorted(os.listdir(d)) if f.endswith(".py")]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def unused_imports(source: str) -> list[str]:
    """Names a module imports at any level but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def names_read(sources: list[str]) -> set[str]:
    """Every name the sources load, as a Name or as an Attribute."""
    read = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def unread_definitions(source: str, read: set[str]) -> list[str]:
    """Top-level defs, classes and UPPER_CASE constants of a module not in read."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name) and n.id.isupper()}
    return sorted(defined - read)


def test_unused_import_is_caught():
    assert unused_imports("import os\nfrom math import pi, e\nprint(pi)\n") == ["e", "os"]
    assert unused_imports("import importlib.util\nimportlib.util.find_spec('x')\n") == []


def test_unread_definition_is_caught():
    module = "X = 1\nY, Z = 2, 3\nlow = 4\ndef f():\n    return X\nclass K:\n    pass\n"
    assert unread_definitions(module, names_read([module])) == ["K", "Y", "Z", "f"]
    read = names_read([module, "import m\nm.K(m.f(), Z)\n"])
    assert unread_definitions(module, read) == ["Y"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports(_read(os.path.join(PACKAGE, module))) == []


@pytest.fixture(scope="module")
def read_anywhere():
    return names_read([_read(path) for path in READERS])


@pytest.mark.parametrize("module", MODULES)
def test_module_definitions_are_read(module, read_anywhere):
    assert unread_definitions(_read(os.path.join(PACKAGE, module)), read_anywhere) == []
