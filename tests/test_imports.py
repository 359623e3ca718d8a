"""Every name a package module imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "superconf"
# __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_reports_unused_names():
    source = "import os\nimport numpy as np\nfrom a import b, c\nb(np.pi)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


TESTS = pathlib.Path(__file__).resolve().parent


def referenced_names(source):
    """Names a module reads, bare or as an attribute."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["__all__"]):
            return [ast.literal_eval(e) for e in node.value.elts]
    raise AssertionError("__init__ has no __all__")


def test_reference_scan_sees_names_and_attributes():
    source = "import a\ndef f():\n    return a.b(c)\n"
    assert referenced_names(source) == {"a", "b", "c"}


def test_every_export_is_used():
    """Each name in superconf.__all__ is read by a package module other than
    __init__ or by a test; an export nothing reads is dead API."""
    used = set()
    for path in MODULES + sorted(TESTS.glob("test_*.py")):
        used |= referenced_names(path.read_text())
    assert sorted(set(exported_names()) - used) == []
