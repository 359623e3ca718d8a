"""Every name a package module imports is used in that module, every
public function the package defines is used, every command-line option
is passed by a test or a README example, the geometry kernel makes no
LAPACK call, no product goes through BLAS, geometry owns the one inner
product, rows are laid out only in the writers, the 2-form index tables are
integer arrays, the writers format numbers in array passes, geometry
owns the one scale rule and space-form membership, minimal decides every
check's point set, the self-test builds no grid per loop pass, and every
extreme keeps numpy's nan rule."""

import argparse
import ast
import collections
import pathlib
import re

import numpy as np
import pytest

from superconf import cli

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


def public_defs(tree):
    """(qualified name, node) of every public module-level function and
    every public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def name_reads(node):
    """How often each name is read under node, bare or as an attribute."""
    reads = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute):
            reads[n.attr] += 1
    return reads


def unread_defs(sources, exported):
    """Public functions and methods no module reads outside their own body;
    a module-level function named in exported counts as read."""
    trees = [ast.parse(source) for source in sources]
    reads = sum((name_reads(tree) for tree in trees), collections.Counter())
    unread = []
    for tree in trees:
        for qualname, node in public_defs(tree):
            if "." not in qualname and qualname in exported:
                continue
            if reads[node.name] <= name_reads(node)[node.name]:
                unread.append(qualname)
    return sorted(unread)


def test_unread_def_scan():
    sources = ["def f():\n    return f()\n\ndef g():\n    pass\n",
               "class C:\n    def m(self):\n        pass\n"
               "    def n(self):\n        return self.m()\n",
               "def h():\n    pass\n"]
    assert unread_defs(sources, ["h"]) == ["C.n", "f", "g"]


def test_every_public_def_is_read_in_src():
    """Each public function and method of the package is read by a package
    module outside its own body, or exported; test-only helpers live in
    the tests."""
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_defs(sources, exported_names()) == []


def defaulted_params(node, method):
    """(name, positional index or None) of each parameter of a def that has
    a default; the index counts from the first argument a call writes, so a
    method's self or cls is not counted."""
    args = node.args
    positional = args.posonlyargs + args.args
    if method and not any(getattr(d, "id", None) == "staticmethod"
                          for d in node.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first:], first):
        yield a.arg, i
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            yield a.arg, None


def called_name(func):
    """The name a call's function expression ends in, bare or as an
    attribute; None for any other expression."""
    return getattr(func, "id", getattr(func, "attr", None))


def passed_params(tree):
    """name -> [(positional count, keywords, whether *args or **kwargs is
    used)] of every call under tree of a function of that name, bare or as
    an attribute; functools.partial(f, ...) counts as a call of f."""
    calls = collections.defaultdict(list)
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        func, args = n.func, n.args
        if called_name(func) == "partial" and args:
            func, args = args[0], args[1:]
        name = called_name(func)
        if name is None:
            continue
        spread = (any(isinstance(a, ast.Starred) for a in args)
                  or any(k.arg is None for k in n.keywords))
        calls[name].append((len(args), {k.arg for k in n.keywords}, spread))
    return calls


def unset_defaults(sources):
    """'module.def.param' of each defaulted parameter of a public function
    or method that no call in sources passes, by keyword or by position.

    Calls are matched by name alone, so a call of another function of the
    same name counts too."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    calls = collections.defaultdict(list)
    for tree in trees.values():
        for name, found in passed_params(tree).items():
            calls[name] += found
    unset = []
    for module, tree in trees.items():
        for qualname, node in public_defs(tree):
            for param, index in defaulted_params(node, "." in qualname):
                if not any(spread or param in keywords
                           or (index is not None and count > index)
                           for count, keywords, spread in calls[node.name]):
                    unset.append(f"{module}.{qualname}.{param}")
    return sorted(unset)


def test_unset_default_scan():
    sources = {
        "a": "def f(x, y=1, *, z=2):\n    pass\n\n"
             "class C:\n    def m(self, p=0, q=1):\n        pass\n"
             "    @staticmethod\n    def s(r=0):\n        pass\n"
             "    def _hidden(self, t=0):\n        pass\n",
        "b": "f(1, 2)\nC().m(q=3)\nC.s(*xs)\npartial(g, w=1)\n",
        "c": "def g(v=0, w=0):\n    pass\n",
    }
    assert unset_defaults(sources) == ["a.C.m.p", "a.f.z", "c.g.v"]


# defaulted parameters that src leaves at their default, each with its reason
UNSET_DEFAULTS_ALLOWED = {
    # the entry point, whose argv the tests and the benchmark pass
    "cli.main.argv",
    # test_fd_crosscheck_polynomial needs 1e-3: at 1e-4 its second-difference
    # error, 9.1e-9, is above its 1e-9 bound
    "jets.fd_crosscheck.step",
    # the stereographic cross-check of the constant-real kind, which only
    # the tests reach
    "moebius.quadric_classification.immersion",
    "moebius.quadric_classification.ambient",
}


def test_every_default_is_set_in_src():
    """Each defaulted parameter of a public function or method is passed by
    some package call, or allowed above (and an allowed one is still
    unset); a default src never changes is a constant."""
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unset_defaults(sources) == sorted(UNSET_DEFAULTS_ALLOWED)


def dataclass_fields(tree):
    """(class name, field name) of every field of a module's @dataclass
    classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    yield node.name, item.target.id


def field_reads(tree):
    """Names a module reads as an attribute or as a getattr string."""
    reads = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            reads.add(n.attr)
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
              and n.func.id == "getattr" and len(n.args) >= 2
              and isinstance(n.args[1], ast.Constant)):
            reads.add(n.args[1].value)
    return reads


def unread_fields(sources, readers):
    """The dataclass fields of sources that neither sources nor readers
    read."""
    trees = [ast.parse(source) for source in sources]
    reads = set().union(*(field_reads(t) for t in trees),
                        *(field_reads(ast.parse(r)) for r in readers))
    return sorted(f"{cls}.{name}" for tree in trees
                  for cls, name in dataclass_fields(tree)
                  if name not in reads)


def test_unread_field_scan():
    sources = ["@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n"
               "    z: int = 0\n    K = 1\n\n"
               "@dataclass\nclass B:\n    w: int\n\n"
               "class C:\n    v: int\n\n"
               "def f(a):\n    a.y = 1\n    return A(x=1, y=2)\n"]
    readers = ["def g(a, b):\n    return a.x + getattr(b, 'z')\n"]
    assert unread_fields(sources, readers) == ["A.y", "B.w"]


def test_every_dataclass_field_is_read():
    """Each field of a package dataclass is read, as an attribute or a
    getattr string, by a package module or a test; a field nothing reads is
    dead data."""
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    readers = [p.read_text() for p in sorted(TESTS.glob("test_*.py"))]
    assert unread_fields(sources, readers) == []


# the names of the two-regime jet algebra, which must not come back
REGIME_NAMES = {"_SCALARS", "_MATH", "_BATCH_MATH"}
# isinstance(x, np.ndarray) tests a module may make: cli.py cleans values
# for JSON
ARRAY_TESTS_ALLOWED = {"cli.py": None}


def regime_checks(source):
    """The lines of source that call isinstance(..., np.ndarray), and the
    regime names it defines."""
    tree = ast.parse(source)
    lines, names = [], set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(getattr(n, "attr", getattr(n, "id", None))
                        == "ndarray" for n in ast.walk(node.args[1]))):
            lines.append(node.lineno)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return lines, sorted(names & REGIME_NAMES)


def test_regime_scan():
    source = ("import numpy as np\n_MATH = 1\n"
              "class A:\n    _BATCH_MATH = 2\n"
              "def f(x):\n    return isinstance(x, (int, np.ndarray))\n"
              "def g(x, ndarray):\n    return isinstance(x, dict)\n"
              "def _SCALARS():\n    return isinstance(x, ndarray)\n")
    assert regime_checks(source) == ([6, 10],
                                     ["_BATCH_MATH", "_MATH", "_SCALARS"])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_regime(path):
    """No module asks whether it holds one point or a batch."""
    lines, names = regime_checks(path.read_text())
    assert names == []
    allowed = ARRAY_TESTS_ALLOWED.get(path.name, 0)
    if allowed is not None:
        assert len(lines) <= allowed, lines


def row_conversions(source):
    """('ascontiguousarray' or 'values', where) of each call of
    ascontiguousarray and of a .values() method in source, where the
    qualified name of the def it sits in, or '<module>'."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>"
                      else f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                if called_name(child.func) == "ascontiguousarray":
                    found.append(("ascontiguousarray", where))
                elif (isinstance(child.func, ast.Attribute)
                      and child.func.attr == "values" and not child.args):
                    found.append(("values", where))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_row_conversion_scan():
    source = ("import numpy as np\nx = d.values()\n"
              "class A:\n    def f(self, y):\n"
              "        return np.ascontiguousarray(y.values())\n"
              "def g(v):\n    return v.values(1) + values()\n")
    assert row_conversions(source) == [
        ("values", "<module>"), ("ascontiguousarray", "A.f"),
        ("values", "A.f")]


# the .values() calls of dicts, each where; (n, dim) rows are laid out only
# where the writers make a block's cells, by np.column_stack and a transpose
ROW_CONVERSIONS_ALLOWED = {
    "acceptance.criterion_3 values",
    "cli.cmd_dual values",
    "cli.cmd_verify values",
    "geometry.<module> values",
    "moebius.PairTransformReport.n_skipped values",
}


def test_rows_are_made_in_one_place():
    """No module calls np.ascontiguousarray, and .values() is called only on
    the dicts allowed above (and an allowed use is still there): no vector
    or jet is turned into (n, dim) rows outside the writers' cell layout."""
    found = {f"{path.stem}.{where} {kind}" for path in MODULES
             for kind, where in row_conversions(path.read_text())}
    assert sorted(found) == sorted(ROW_CONVERSIONS_ALLOWED)


# a name for an inner product's signature: sig, signature(s), any case, with
# a prefix ending in _
SIGNATURE_NAME = re.compile(r"(?:^|_)(?:sig|signatures?)$", re.I)


def metric_uses(source):
    """The sorted (kind, what) of each place source holds or applies an
    inner-product signature: ('table', name) of a SIGNATURE_NAME name bound
    to a value that holds a number, ('factor', name) of one read in a
    product, ('def', name) and ('param', name) of a def or a parameter of
    such a name, and ('dot', line) of each .dot(...) call that passes more
    than two arguments or a keyword."""
    found = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, (ast.Assign, ast.AnnAssign)) and n.value is not None:
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            numbers = any(isinstance(c, ast.Constant) and type(c.value)
                          in (int, float) for c in ast.walk(n.value))
            found |= {("table", t.id) for t in targets
                      if isinstance(t, ast.Name) and numbers
                      and SIGNATURE_NAME.search(t.id)}
        elif isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult):
            found |= {("factor", x.id) for side in (n.left, n.right)
                      for x in ast.walk(side) if isinstance(x, ast.Name)
                      and SIGNATURE_NAME.search(x.id)}
        elif isinstance(n, ast.FunctionDef):
            if SIGNATURE_NAME.search(n.name):
                found.add(("def", n.name))
            found |= {("param", a.arg) for a in ast.walk(n.args)
                      if isinstance(a, ast.arg)
                      and SIGNATURE_NAME.search(a.arg)}
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and n.func.attr == "dot" and (len(n.args) > 2 or n.keywords)):
            found.add(("dot", n.lineno))
    return sorted(found)


def test_metric_scan():
    source = ("import numpy as np\n"
              "_SIGNATURES = {'r4': np.ones(4)}\n"
              "SIGNATURES = ('euclidean', 'lorentzian')\n"
              "_TERM_SIGN = np.array([1.0, -1.0])[:, None]\n"
              "class A:\n"
              "    sig: np.ndarray = np.array([1, 1])\n"
              "    def sig_of(self):\n        return SIGNATURES\n"
              "    def sig(self, signature=None):\n"
              "        return (_SIGNATURES['r4'] * x.T).T * _TERM_SIGN\n"
              "y = R4.dot(a, b) + a.dot(b, signature=s) + a.dot(b, c, s)\n"
              "z = np.dot(a, b, out) + a.dot(b)\n")
    assert metric_uses(source) == [
        ("def", "sig"), ("dot", 11), ("dot", 12), ("factor", "_SIGNATURES"),
        ("param", "signature"), ("table", "_SIGNATURES"), ("table", "sig")]


def test_one_metric():
    """geometry.Ambient.dot is the one inner product: no module but geometry
    holds or applies a signature table, no .dot(...) call passes a
    signature, and Jet2 has no inner product, scaling or row method of its
    own (a vector jet times an array of factors is the one scaling)."""
    from superconf.jets import Jet2
    assert {p.stem: metric_uses(p.read_text()) for p in MODULES
            if p.stem != "geometry" and metric_uses(p.read_text())} == {}
    assert [kind for kind, _ in metric_uses((SRC / "geometry.py").read_text())
            if kind == "dot"] == []
    assert [name for name in ("dot", "scaled", "values")
            if hasattr(Jet2, name)] == []


def linalg_uses(source):
    """The lines of source that call a numpy.linalg function through the
    module (np.linalg.f(...), linalg.f(...)) or import from it."""
    lines = []
    for n in ast.walk(ast.parse(source)):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and called_name(n.func.value) == "linalg"
                or isinstance(n, ast.ImportFrom)
                and (n.module or "").startswith("numpy.linalg")):
            lines.append(n.lineno)
    return sorted(lines)


# numpy's products and norms that BLAS computes, in an order its run-time
# kernel picks
BLAS_CALLS = {"matmul", "dot", "inner", "einsum"}


def blas_products(source):
    """(what, where) of each @ and each np.matmul, np.dot, np.inner,
    np.einsum or np.linalg.norm call in source (numpy spelled np or numpy),
    where the qualified name of the def it sits in, or '<module>'."""
    found = []

    def numpy_call(func):
        if not isinstance(func, ast.Attribute):
            return None
        owner = func.value
        if isinstance(owner, ast.Name) and owner.id in ("np", "numpy"):
            return func.attr if func.attr in BLAS_CALLS else None
        if (func.attr == "norm" and isinstance(owner, ast.Attribute)
                and owner.attr == "linalg"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in ("np", "numpy")):
            return "linalg.norm"
        return None

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>"
                      else f"{where}.{child.name}")
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op,
                                                           ast.MatMult):
                found.append(("@", where))
            elif isinstance(child, ast.Call) and numpy_call(child.func):
                found.append((numpy_call(child.func), where))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_blas_product_scan():
    source = ("import numpy as np\nx = a @ b\n"
              "def f(y):\n    return np.linalg.norm(y) + numpy.dot(y, y)\n"
              "class A:\n    def g(self, m):\n"
              "        return np.matmul(m, m) + np.einsum('ij', m)\n"
              "z = R4.dot(a, b) + np.inner(a, b) + x.dot(x) + norm(x)\n")
    assert blas_products(source) == [
        ("@", "<module>"), ("linalg.norm", "f"), ("dot", "f"),
        ("matmul", "A.g"), ("einsum", "A.g"), ("inner", "<module>")]


def test_no_product_goes_through_blas():
    """Every inner product and matrix product is a component-order
    elementwise sum (geometry.Ambient.dot and written-out terms), so no
    output bit depends on the BLAS kernel; only moebius._complex_structure,
    the fit of recover_complex_structure and degenerate_collapse_check,
    whose least squares are LAPACK's, multiplies through BLAS."""
    found = {f"{path.stem}.{where}" for path in MODULES
             for _, where in blas_products(path.read_text())}
    assert found == {"moebius._complex_structure"}


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
         ast.DictComp, ast.GeneratorExp)


def loops_in(source, name):
    """The kinds of the loops and comprehensions in the def name of
    source."""
    [fn] = [n for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.FunctionDef) and n.name == name]
    return sorted(type(n).__name__ for n in ast.walk(fn)
                  if isinstance(n, LOOPS))


def test_kernel_scans():
    source = ("import numpy as np\nfrom numpy.linalg import det\n"
              "def f(x):\n    return [t for t in np.linalg.svd(x)]\n"
              "def g(x):\n    while x:\n"
              "        x = np.linalg.norm(x) + x.dot(x)\n")
    assert linalg_uses(source) == [2, 4, 7]
    assert loops_in(source, "f") == ["ListComp"]
    assert loops_in(source, "g") == ["While"]


def test_geometry_kernel_makes_no_lapack_call():
    """geometry.py calls no numpy.linalg function: the ellipse's semi-axes,
    the frame orientation and the coordinate shape operator are closed
    forms, not one LAPACK dispatch per matrix; and _pypow is one numpy
    call, with no Python loop over the entries."""
    source = (SRC / "geometry.py").read_text()
    assert linalg_uses(source) == []
    assert loops_in(source, "_pypow") == []


def test_index_tables_are_integer_arrays():
    """The 2-form index tables of geometry and construct, and moebius's
    complex-structure table, are intp arrays: numpy converts a list index
    anew on every fancy index."""
    from superconf import construct, geometry, moebius
    for table in (geometry._I, geometry._J, geometry._STAR,
                  construct._TERM_A, construct._TERM_H, moebius._J_INDEX):
        assert isinstance(table, np.ndarray) and table.dtype == np.intp


def cell_loops(source, names):
    """(def, kind) of each loop, comprehension and repr call in the defs of
    source named in names; a for loop over _block_starts(...) or over
    range(..., _RUN), one pass per block of rows or per run of floats, is
    not one."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in names):
            continue
        for n in ast.walk(fn):
            if isinstance(n, ast.For) and isinstance(n.iter, ast.Call) and (
                    called_name(n.iter.func) == "_block_starts"
                    or called_name(n.iter.func) == "range"
                    and called_name(n.iter.args[-1]) == "_RUN"):
                continue
            if isinstance(n, LOOPS):
                found.append((fn.name, type(n).__name__))
            elif isinstance(n, ast.Call) and called_name(n.func) == "repr":
                found.append((fn.name, "repr"))
    return sorted(found)


def test_cell_loop_scan():
    source = ("def f(x):\n    for lo in _block_starts(9):\n        g(lo)\n"
              "    for lo in range(0, 9, _RUN):\n        g(lo)\n"
              "    return [repr(v) for v in x]\n"
              "def g(x):\n    for lo in range(9):\n        repr(lo)\n"
              "def h(x):\n    return repr(x)\n")
    assert cell_loops(source, {"f", "g"}) == [
        ("f", "ListComp"), ("f", "repr"), ("g", "For"), ("g", "repr")]


# the writers' chunk and framing functions and the formatter they call;
# _grid_chunks, which routes each sign's text to its files, loops over signs
WRITER_DEFS = {"_block_floats", "_block_text", "_corner_chunks",
               "_obj_vertices", "_cells", "_sign_cells", "_emit",
               "_schubfach", "_scaled", "_mul", "_digit_words", "_int_cells",
               "_subnormal_cells", "_lines", "_text", "_items"}
# the subnormal fallback, which formats through repr one float at a time
CELL_LOOPS_ALLOWED = [("_subnormal_cells", "ListComp"),
                      ("_subnormal_cells", "repr")]


def test_writers_format_in_array_passes():
    """The writers loop over blocks of rows and the formatter over runs of
    floats, never over cells, and call repr only for subnormal floats."""
    assert (cell_loops((SRC / "export.py").read_text(), WRITER_DEFS)
            == CELL_LOOPS_ALLOWED)


def iterated(source, name):
    """What the loops and comprehensions of the def name in source iterate,
    through enumerate and zip: each a name, or the name of the function
    whose call it is."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == name):
            continue
        for n in ast.walk(fn):
            todo = ([n.iter] if isinstance(n, ast.For)
                    else [g.iter for g in getattr(n, "generators", ())])
            while todo:
                it = todo.pop()
                if (isinstance(it, ast.Call)
                        and called_name(it.func) in ("enumerate", "zip")):
                    todo += it.args
                else:
                    found.add(called_name(getattr(it, "func", it)))
    return found


def test_iterated_scan():
    source = ("def f(rows):\n    for s, r in enumerate(rows):\n        g(r)\n"
              "    return [h(x) for x, _ in zip(k(1), rows)]\n"
              "def g(x):\n    for a in b:\n        pass\n")
    assert iterated(source, "f") == {"rows", "k"}


# the grid writer's routing def, whose loops go over the signs' rows and
# OBJ vertices, the blocks of rows and the texts of writer defs
ROUTED = {"rows", "obj", "_block_starts", "_corner_chunks", "_block_text"}


def test_the_grid_writer_routes_signs_and_blocks():
    """_grid_chunks, outside WRITER_DEFS, loops only over signs, blocks
    and the chunks of the writer defs that format them."""
    assert iterated((SRC / "export.py").read_text(), "_grid_chunks") == ROUTED
    assert {"_corner_chunks", "_block_text"} <= WRITER_DEFS


def floor_constants(source):
    """The upper-case module-level names source binds to a float literal:
    its floors, tolerances and thresholds."""
    return [t.id for node in ast.parse(source).body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and type(node.value.value) is float
            for t in node.targets
            if isinstance(t, ast.Name) and t.id.isupper()]


def _is_one(node):
    return (isinstance(node, ast.Constant) and type(node.value) is float
            and node.value == 1.0)


def scale_mixes(source):
    """The lines of source where 1.0 joins a scale: an argument 1.0 of
    max, maximum, fmax or _largest, an initial=1.0, or a sum with 1.0
    inside a comparison."""
    lines = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call) and (
                called_name(n.func) in {"max", "maximum", "fmax", "_largest"}
                and any(map(_is_one, n.args))
                or any(k.arg == "initial" and _is_one(k.value)
                       for k in n.keywords)):
            lines.add(n.lineno)
        elif isinstance(n, ast.Compare):
            lines.update(b.lineno for b in ast.walk(n)
                         if isinstance(b, ast.BinOp)
                         and isinstance(b.op, ast.Add)
                         and (_is_one(b.left) or _is_one(b.right)))
    return sorted(lines)


def test_scale_rule_scans():
    source = ("X_TOL = 1e-8\nN = 2\nY_FLOOR = 3\nW = 0.5\n"
              "class A:\n    B_TOL = 1e-3\n"
              "if dev > 1e-8 * (1.0 + abs(mean)):\n    pass\n"
              "floor = 1e-10 * _largest(amax, 1.0)\n"
              "ok = x <= 1e-9 * np.maximum(1.0, r)\n"
              "s = y.max(initial=1.0)\n"
              "t = x + 1.0 > y\n"
              "bad = abs(xx - 1.0) > 1e-8\n"
              "q = a / np.where(p, b, 1.0)\n"
              "d = 1.0 + r2\n"
              "n = max(1, k) + max(r, 2.0)\n")
    assert floor_constants(source) == ["X_TOL", "W"]
    assert scale_mixes(source) == [7, 9, 10, 11, 12]


# the one floor defined outside geometry: the jets' pole guard, absolute
# because the jets of curve evaluation see the dimensionless z-plane
FLOORS_ALLOWED = {"jets": ["DIV_FLOOR"]}


def test_one_scale_rule():
    """geometry owns the scale rule: the floor and tolerance constants are
    defined there (the pole guard above aside), seven in all, and no
    comparison outside acceptance's recorded criteria mixes 1.0 into a
    dimensional scale, so that no verdict depends on the curve's units."""
    defined = {p.stem: floor_constants(p.read_text()) for p in MODULES}
    assert {m: names for m, names in defined.items()
            if names and m != "geometry"} == FLOORS_ALLOWED
    assert sum(map(len, defined.values())) <= 7
    assert {p.stem: scale_mixes(p.read_text()) for p in MODULES
            if p.stem != "acceptance" and scale_mixes(p.read_text())} == {}


LAYOUTS = {"linspace", "repeat", "tile", "meshgrid"}


def layout_calls(source):
    """The sorted names of the calls in source of a numpy function of
    LAYOUTS, as np.name, numpy.name or a bare imported name; an array's
    .repeat method is not one."""
    return sorted(called_name(n.func) for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call)
                  and called_name(n.func) in LAYOUTS
                  and (isinstance(n.func, ast.Name)
                       or isinstance(n.func.value, ast.Name)
                       and n.func.value.id in ("np", "numpy")))


def test_layout_call_scan():
    source = ("import numpy as np\nx = np.linspace(0, 1, 3)\n"
              "def f(a):\n    return np.tile(np.repeat(a, 2), 3)\n"
              "y = a.repeat(2) + meshgrid(a, a) + numpy.linspace(0, 1)\n"
              "z = np.linalg.norm(a) + b.tile.repeat(1)\n")
    assert layout_calls(source) == ["linspace", "linspace", "meshgrid",
                                    "repeat", "tile"]


def test_one_lattice():
    """minimal.Domain.lattice lays out every parameter grid: its two
    np.linspace calls are the package's only ones, and no module repeats,
    tiles or meshes a grid's axes."""
    found = {p.stem: layout_calls(p.read_text()) for p in MODULES}
    assert {m: calls for m, calls in found.items() if calls} == {
        "minimal": ["linspace", "linspace"]}


def calls_of(source, name):
    """The number of calls in source of a function or method called name."""
    return sum(isinstance(n, ast.Call) and called_name(n.func) == name
               for n in ast.walk(ast.parse(source)))


def complex_conversions(source):
    """The qualified name of the def, or '<module>', of each call in source
    of np.array or np.asarray that converts to complex, by the positional
    dtype complex or dtype=complex."""
    found = []

    def converts(call):
        dtypes = call.args[1:2] + [k.value for k in call.keywords
                                   if k.arg == "dtype"]
        return (called_name(call.func) in ("array", "asarray")
                and called_name(getattr(call.func, "value", None)) == "np"
                and any(getattr(d, "id", None) == "complex" for d in dtypes))

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>"
                      else f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and converts(child):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_membership_and_conversion_scans():
    source = ("import numpy as np\nx.on_manifold_residual(p)\n"
              "def f(z):\n    return np.array(list(z), dtype=complex)\n"
              "class A:\n    def g(self, z):\n"
              "        return np.asarray(z, complex) + np.asarray(z, float)\n"
              "y = np.empty(3, complex) + np.array(z)\n"
              "w = on_manifold_residual\n")
    assert calls_of(source, "on_manifold_residual") == 1
    assert complex_conversions(source) == ["f", "A.g"]


# complex conversions outside minimal that take no point set, each with its
# reason
COMPLEX_CONVERSIONS_ALLOWED = {
    # a jet's value slot, split into its real and imaginary parts
    "jets._CArray.of",
    # the inversion center, a complex 4-vector
    "moebius.transformed_curve",
}


def test_one_membership_rule():
    """Ambient.check_on decides space-form membership: no module but
    geometry calls on_manifold_residual."""
    assert {p.stem for p in MODULES
            if calls_of(p.read_text(), "on_manifold_residual")} == {
        "geometry"}


def test_one_point_set_rule():
    """minimal.point_set decides a check's point set: no module but
    minimal turns points into a complex array, but where allowed above
    (and an allowed one is still there)."""
    assert {f"{p.stem}.{where}" for p in MODULES if p.stem != "minimal"
            for where in complex_conversions(p.read_text())} == (
        COMPLEX_CONVERSIONS_ALLOWED)


# a holomorphic jet's derivative slots, and the helpers that split them
DERIVATIVE_SLOTS = {"c1", "c2", "c3"}
SPLIT_HELPERS = {"_split", "_re_part", "_im_part"}


def split_reads(source):
    """The derivative slots a module reads, as attributes, and the split
    helpers it imports or names, sorted."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Attribute) and n.attr in DERIVATIVE_SLOTS:
            found.append(f".{n.attr}")
        name = getattr(n, {ast.Name: "id", ast.Attribute: "attr",
                           ast.alias: "name"}.get(type(n), "_"), None)
        if name in SPLIT_HELPERS:
            found.append(name)
    return sorted(found)


def test_split_read_scan():
    source = ("from .jets import _re_part\n"
              "def f(cj):\n    return cj.c0 + cj.c1 * cj.coeffs[2]\n"
              "g = _im_part(a.c2, a.c3, b)\nh = jets._split(x)\n"
              "c1 = 1\n")
    assert split_reads(source) == [".c1", ".c2", ".c3", "_im_part",
                                   "_re_part", "_split"]


def test_one_cauchy_riemann_split():
    """jets.split and seed_first_derivative_fields are the Cauchy-Riemann
    split: no module but jets reads a holomorphic jet's derivative slots
    or names the helpers that split them."""
    assert {p.stem: split_reads(p.read_text()) for p in MODULES
            if p.stem != "jets" and split_reads(p.read_text())} == {}


GRID_BUILDERS = {"sample_grid", "build_phi_pair"}


def loop_calls(source, names):
    """The sorted (def, name) of the calls of a function in names that a
    top-level def of source makes once per pass of a loop: in the body of a
    for or while loop or in a comprehension's element, not in what a loop
    iterates over."""
    found = set()
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for loop in ast.walk(fn):
            if isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                repeated = loop.body
            elif isinstance(loop, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp)):
                repeated = [loop.elt]
            elif isinstance(loop, ast.DictComp):
                repeated = [loop.key, loop.value]
            else:
                continue
            found |= {(fn.name, called_name(n.func)) for part in repeated
                      for n in ast.walk(part) if isinstance(n, ast.Call)
                      and called_name(n.func) in names}
    return sorted(found)


def test_loop_call_scan():
    source = ("def f(p):\n    for z in sample_grid(p):\n        g(z)\n"
              "    while p:\n        p = [build_phi_pair(q) for q in p]\n"
              "def g(p):\n    for q in p:\n        h(q)\n"
              "    return export.sample_grid(p)\n"
              "def h(p):\n    return {build_phi_pair(q): 1 for q in p}\n"
              "for q in p:\n    sample_grid(q)\n")
    assert loop_calls(source, GRID_BUILDERS) == [("f", "build_phi_pair"),
                                                 ("h", "build_phi_pair")]


def test_selftest_builds_no_grid_per_loop_pass():
    """The acceptance criteria take the pairs or family members they sample
    together through one export.sample_grids call, so no criterion calls
    sample_grid or build_phi_pair once per pass of a loop; criterion 13's
    two determinism runs are written out one after the other."""
    source = (SRC / "acceptance.py").read_text()
    assert loop_calls(source, GRID_BUILDERS) == []


# builtin reducers and iterators that would walk a grid's rows as floats
ROW_PYTHON = {"max", "min", "map"}


def row_python_calls(source, names):
    """The sorted (def, call) of the per-row Python in the top-level defs
    of source named in names: a call of a builtin of ROW_PYTHON by its bare
    name, or of a .tolist() method."""
    return sorted({(fn.name, called_name(n.func))
                   for fn in ast.parse(source).body
                   if isinstance(fn, ast.FunctionDef) and fn.name in names
                   for n in ast.walk(fn) if isinstance(n, ast.Call)
                   and (isinstance(n.func, ast.Name) and n.func.id in ROW_PYTHON
                        or isinstance(n.func, ast.Attribute)
                        and n.func.attr == "tolist")})


def test_row_python_call_scan():
    source = ("def f(rows):\n    return max(map(abs, rows.tolist()))\n"
              "def g(x):\n    return min(x), np.max(x), x.max()\n"
              "def h(x):\n    return max(x)\n")
    assert row_python_calls(source, {"f", "g"}) == [
        ("f", "map"), ("f", "max"), ("f", "tolist"), ("g", "min")]


def test_grid_summaries_are_array_passes():
    """summarize reduces a grid's stats columns in array passes, and
    acceptance._grid_worst reads its summaries, so neither goes back to
    Python floats one row at a time."""
    for module, name in (("export", "summarize"),
                         ("acceptance", "_grid_worst")):
        source = (SRC / f"{module}.py").read_text()
        assert name in {getattr(n, "name", None)
                        for n in ast.parse(source).body}
        assert row_python_calls(source, {name}) == [], name


# numpy's reductions that skip a nan
NAN_SKIPPING = {"fmax", "fmin", "nanmax", "nanmin", "nanargmax", "nanargmin"}
REDUCERS = {"max", "min", "amax", "amin"}


def nan_rule_breaks(source):
    """The sorted (def, what) of each call in source that takes an extreme
    around numpy's nan rule: a builtin max or min ('max', 'min'), a numpy
    reduction that skips a nan (its name), and a max or min reduction
    with an isfinite call in its argument or receiver ('isfinite'); def is
    the qualified name of the def the call sits in, or '<module>'."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>"
                      else f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                name = called_name(child.func)
                if isinstance(child.func, ast.Name) and name in REDUCERS:
                    found.add((where, name))
                if name in NAN_SKIPPING:
                    found.add((where, name))
                if name in REDUCERS and any(
                        isinstance(n, ast.Call)
                        and called_name(n.func) == "isfinite"
                        for part in (child.func, *child.args,
                                     *(k.value for k in child.keywords))
                        for n in ast.walk(part)):
                    found.add((where, "isfinite"))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_nan_rule_scan():
    source = ("import numpy as np\n"
              "w = max(np.max(a), b)\n"
              "def f(r, used):\n"
              "    return r[used & np.isfinite(r)].max(initial=0.0)\n"
              "class A:\n"
              "    def g(self, c):\n"
              "        x = np.where(np.isfinite(c), c, np.inf).max()\n"
              "        return np.fmax(x, 1.0), np.nanmin(c), min(x, 2)\n"
              "    def h(self, c):\n"
              "        ok = np.isfinite(c).all() and np.isfinite(c.max())\n"
              "        return np.max(c), c.min(), _largest(c, 1.0)\n")
    assert nan_rule_breaks(source) == [
        ("<module>", "max"), ("A.g", "fmax"), ("A.g", "isfinite"),
        ("A.g", "min"), ("A.g", "nanmin"), ("f", "isfinite")]


# the builtin max and min calls left in src, all over integers or in an
# error message, each with its reason
NAN_RULE_ALLOWED = {
    # the batch size of a jet's slots
    ("jets._rows", "max"): "the largest slot size, an int",
    ("jets.Jet2.rows", "max"): "the largest slot width, an int",
    ("jets.RowFailures.raise_unless", "min"): "the first failed row, an int",
    ("expr._Parser.build", "max"): "a node's depth, an int",
    ("export._job_blocks", "max"): "a block's row bounds, ints",
    ("export._job_blocks", "min"): "a block's row bounds, ints",
    ("export.sample_grids", "min"): "a lattice's shape, ints",
    ("export._grid_chunks", "max"): "the largest flag, an int",
    ("cli.cmd_verify", "max"): "the dual samples' stride, an int",
    ("construct._assemble", "max"): "||h|| in an error message",
}


def test_one_nan_rule():
    """A worst or best value is numpy's max or min over an array, or
    geometry._largest over separate values: both keep a nan, so a
    non-finite residual is the worst value and fails its check.  No module
    takes an extreme with a builtin max or min but over integers or for a
    message, skips a nan with np.fmax, np.fmin, np.nanmax or np.nanmin, or
    filters the non-finite values out in front of a reduction."""
    found = {(f"{p.stem}.{where}", what) for p in MODULES
             for where, what in nan_rule_breaks(p.read_text())}
    assert found == set(NAN_RULE_ALLOWED)


README = TESTS.parent / "README.md"
# command-line options that no test or README example passes, each with its
# reason
UNPASSED_OPTIONS_ALLOWED = set()


def parser_options(parser):
    """'subcommand --flag' of every option of each subcommand of an argparse
    parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                for a in sub._actions:
                    if (a.option_strings
                            and not isinstance(a, argparse._HelpAction)):
                        yield f"{command} {a.option_strings[-1]}"


def passed_flags(test_sources, readme):
    """The flags the tests' string literals and the README's code blocks
    pass, bare or as '--flag=value'."""
    words = {n.value for source in test_sources
             for n in ast.walk(ast.parse(source))
             if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    blocks = re.findall(r"^```.*?^```", readme, re.M | re.S)
    words |= {w for block in blocks for w in block.split()}
    return {w.split("=", 1)[0] for w in words if w.startswith("--")}


def unpassed_options(parser, test_sources, readme):
    """The options of parser whose flag nothing passes.

    Flags are matched alone, so a flag that two subcommands share counts as
    passed for both when either is passed."""
    flags = passed_flags(test_sources, readme)
    return sorted(o for o in parser_options(parser)
                  if o.split()[1] not in flags)


def test_unpassed_option_scan():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    a = sub.add_parser("a")
    a.add_argument("--x")
    a.add_argument("-y", "--yy")
    a.add_argument("pos")
    b = sub.add_parser("b")
    b.add_argument("--x")
    b.add_argument("--z")
    b.add_argument("--w")
    tests = ['run("a", "--x", f"--w={v}")\n', '"--yyy"\n# "--z"\n']
    readme = "Pass `--yy` or\n```\ntool b --z 1\n```\n"
    assert unpassed_options(parser, tests, readme) == ["a --yy"]


def test_every_cli_option_is_passed():
    """Each option of the command line is passed by some test or README
    example, or allowed above (and an allowed one is still unpassed); an
    option nothing sets is a constant."""
    sources = [p.read_text() for p in sorted(TESTS.glob("test_*.py"))]
    assert unpassed_options(cli.build_parser(), sources,
                            README.read_text()) == sorted(
        UNPASSED_OPTIONS_ALLOWED)
