"""Exact oracle for the jets: sympy derivatives evaluated in mpmath.

Every golden expression of the acceptance suite, three composite curves and
every catalog curve is evaluated to its ComplexJet at fixed-seed points, and
c0..c3 are compared with sympy.diff of the same expression, evaluated at 30
digits.  The Jet2
algebra is checked the same way against sympy partials in (u, v).  The
same curves evaluated over a batch of points must match their batch-of-one
slices, one point at a time, bit for bit.
"""

import mpmath
import numpy as np
import pytest
import sympy as sp

from superconf import associated_family, catalog, transformed_curve
from superconf.acceptance import GOLDEN_EXPRESSIONS
from superconf.errors import EvaluationError
from superconf.expr import (Bin, Call, Curve, CurveExpr, Lit, Neg, Pow, Var,
                            _guard, const_node)
from superconf.jets import ComplexJet, Jet2, row_failures

Z, U, V = sp.symbols("z u v")
REL_TOL = 1e-12
MIN_POINTS = 3


def to_sympy(node):
    """The sympy expression in Z of a parsed expression node."""
    if isinstance(node, Lit):
        return sp.Rational(node.re) + sp.I * sp.Rational(node.im)
    if isinstance(node, Var):
        return Z
    if isinstance(node, Neg):
        return -to_sympy(node.x)
    if isinstance(node, Bin):
        a, b = to_sympy(node.a), to_sympy(node.b)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Pow):
        return to_sympy(node.base) ** node.exponent
    if isinstance(node, Call):
        return getattr(sp, node.fn)(to_sympy(node.arg))
    raise TypeError(node)


def derivative_functions(expr):
    """mpmath callables of the derivatives of orders 0..3 in Z."""
    return [sp.lambdify(Z, sp.diff(expr, Z, k) if k else expr, "mpmath")
            for k in range(4)]


def worst_relative_error(curve_expr, points):
    """Largest deviation of the jet slots from the exact derivatives, over
    all components, orders and points, relative to the largest exact
    derivative of the component; and the number of points evaluated and
    skipped (EvaluationError)."""
    exact = [derivative_functions(to_sympy(c))
             for c in curve_expr.ast.components]
    worst, evaluated, skipped = 0.0, 0, 0
    for z in points:
        try:
            jets = curve_expr.eval_jets(z)
        except EvaluationError:
            skipped += 1
            continue
        evaluated += 1
        with mpmath.workdps(30):
            for jet, fns in zip(jets, exact, strict=True):
                want = [complex(f(mpmath.mpc(z.real, z.imag))) for f in fns]
                scale = max(abs(w) for w in want)
                for got, w in zip(jet.coeffs, want):
                    got = got.z[0]
                    if scale == 0.0:
                        assert got == 0.0
                    else:
                        worst = max(worst, abs(got - w) / scale)
    return worst, evaluated, skipped


def golden_points():
    rng = np.random.default_rng(2024)
    # z = 0 is a pole of several goldens and exercises the skip count
    return [0j] + [complex(u, v) for u, v in rng.uniform(-1.5, 1.5, (6, 2))]


def domain_points(domain, n=6, seed=7):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        z = complex(rng.uniform(domain.u_min, domain.u_max),
                    rng.uniform(domain.v_min, domain.v_max))
        if domain.contains(z):
            out.append(z)
    return out


# elementary functions of nonlinear arguments: the only inputs on which the
# third-order chain-rule term 3 f'' g' g'' of a composition is nonzero
COMPOSITE_CURVES = (
    "(exp(z^2), sin(z^2 + z), cosh(1/(z + 3)), sqrt(z^3 + 4))",
    "(log(z^2 + 4), cos(z*z - 1), sinh(z^3/3), exp(sin(z)))",
    "(sqrt(exp(z) + 2), log(cosh(z) + 1), sin(1/(z - 3)), z*exp(-z^2))",
)


@pytest.mark.parametrize("text", GOLDEN_EXPRESSIONS + COMPOSITE_CURVES)
def test_golden_expression_jets_match_sympy(text):
    worst, evaluated, skipped = worst_relative_error(
        CurveExpr.parse(text), golden_points())
    assert evaluated >= MIN_POINTS, (text, skipped)
    assert evaluated + skipped == len(golden_points())
    assert worst < REL_TOL, (text, worst)


def test_golden_skip_count_at_the_pole():
    # (z, 1/z) has its pole at the first golden point and nowhere else
    _, evaluated, skipped = worst_relative_error(
        CurveExpr.parse("(z, 1/z)"), golden_points())
    assert (evaluated, skipped) == (len(golden_points()) - 1, 1)


PAIR_ENTRIES = ("catenoid-helicoid", "enneper-r3", "q0-line", "q0-trig",
                "q0-trig-perturbed", "whitney")


def test_pair_entries_are_every_catalog_curve():
    assert list(PAIR_ENTRIES) == [n for n in catalog.names()
                                  if catalog.get(n).kind == "minimal-pair"]


@pytest.mark.parametrize("name", PAIR_ENTRIES)
def test_catalog_curve_jets_match_sympy(name):
    curve = catalog.get(name).pair.curve
    worst, evaluated, skipped = worst_relative_error(
        curve.expr, domain_points(curve.domain))
    assert evaluated >= MIN_POINTS, (name, skipped)
    assert worst < REL_TOL, (name, worst)


# a real function of (u, v) that stays positive on [-0.8, 0.8]^2, so log and
# sqrt are defined there
BASE = (sp.Rational(13, 10) + sp.Rational(2, 5) * U - sp.Rational(7, 10) * V
        + U ** 2 / 2 + sp.Rational(3, 10) * U * V - V ** 2 / 5)
PARTIALS = ((), (U,), (V,), (U, U), (U, V), (V, V))

JET2_OPS = {
    "exp": (lambda j: j.exp(), sp.exp),
    "log": (lambda j: j.log(), sp.log),
    "sqrt": (lambda j: j.sqrt(), sp.sqrt),
    "sin": (lambda j: j.sin(), sp.sin),
    "cos": (lambda j: j.cos(), sp.cos),
    "sinh": (lambda j: j.sinh(), sp.sinh),
    "cosh": (lambda j: j.cosh(), sp.cosh),
    "pow3": (lambda j: j ** 3, lambda e: e ** 3),
    "pow-2": (lambda j: j ** -2, lambda e: e ** -2),
    "reciprocal": (lambda j: 1 / j, lambda e: 1 / e),
    "rsub": (lambda j: 2 - j, lambda e: 2 - e),
}


def exact_slots(expr, u0, v0):
    point = {U: sp.Rational(u0), V: sp.Rational(v0)}
    return [float((sp.diff(expr, *d) if d else expr).subs(point).evalf(30))
            for d in PARTIALS]


@pytest.mark.parametrize("op", sorted(JET2_OPS))
def test_jet2_functions_match_sympy_partials(op):
    jet_fn, sym_fn = JET2_OPS[op]
    rng = np.random.default_rng(11)
    for u0, v0 in rng.uniform(-0.8, 0.8, (4, 2)):
        got = jet_fn(Jet2(*exact_slots(BASE, u0, v0))).slots
        want = exact_slots(sym_fn(BASE), u0, v0)
        scale = max(abs(w) for w in want)
        err = max(abs(g - w) for g, w in zip(got, want))
        assert err < REL_TOL * scale, (op, u0, v0, err / scale)


# ----- a batch of points rounds exactly as each batch of one -----

def bits(x):
    """The IEEE bit patterns of the real and imaginary parts of x."""
    return np.array([complex(x)]).view(np.uint64).tolist()


def assert_batch_is_pointwise(curve_expr, points):
    """Evaluate the curve once over all points as an array: every slot of
    every component matches the point's batch of one bit for bit, and the
    points where the batch of one raises are the rows masked with its error
    class.  Returns the number of masked rows."""
    with row_failures(len(points)) as failed:
        batch = curve_expr.eval_jets(np.array(points))
    masked = failed.rows(EvaluationError)
    assert np.array_equal(masked, failed.rows())
    for k, z in enumerate(points):
        try:
            jets = curve_expr.eval_jets(z)
        except EvaluationError:
            assert masked[k], z
            continue
        assert not masked[k], z
        for bj, sj in zip(batch, jets, strict=True):
            for got, want in zip(bj.coeffs, sj.coeffs, strict=True):
                assert bits(got.z[k]) == bits(want.z[0]), (z, got.z[k], want)
    return int(masked.sum())


def test_golden_expression_batch_jets_are_pointwise():
    # exp, log, sqrt, sinh and cosh all occur among the goldens, with
    # products and quotients of jets around them
    masked = sum(assert_batch_is_pointwise(CurveExpr.parse(text),
                                           golden_points())
                 for text in GOLDEN_EXPRESSIONS)
    # the five goldens with a pole at z = 0
    assert masked == 5


@pytest.mark.parametrize("name", PAIR_ENTRIES)
def test_catalog_curve_batch_jets_are_pointwise(name):
    curve = catalog.get(name).pair.curve
    assert assert_batch_is_pointwise(curve.expr,
                                     domain_points(curve.domain)) == 0


def test_batch_without_a_sink_raises_like_one_point():
    with pytest.raises(EvaluationError):
        CurveExpr.parse("(z, 1/z)").eval_jets(np.array([1.0 + 0j, 0j]))


@pytest.mark.parametrize("op", sorted(JET2_OPS))
def test_jet2_batch_functions_are_pointwise(op):
    # numpy's exp, log, sinh and cosh differ from math's in the last bit on
    # some inputs; the batch must not
    jet_fn, _ = JET2_OPS[op]
    rng = np.random.default_rng(5)
    slots = rng.uniform(0.2, 3.0, (6, 200))
    batch = jet_fn(Jet2(*slots)).slots
    for k in range(slots.shape[1]):
        point = jet_fn(Jet2(*slots[:, k:k + 1])).slots
        assert [bits(b[k]) for b in batch] == [bits(p[0]) for p in point]


# ----- the shared evaluator against the per-occurrence one -----

def per_occurrence_node(node, zjet, src, z):
    """Oracle: the evaluator that computes every occurrence of a
    sub-expression anew, each sin, cos, sinh and cosh from both functions of
    its base."""
    if isinstance(node, Lit):
        return ComplexJet.constant(complex(node.re, node.im))
    if isinstance(node, Var):
        return zjet
    if isinstance(node, Neg):
        return -per_occurrence_node(node.x, zjet, src, z)
    if isinstance(node, Bin):
        a = per_occurrence_node(node.a, zjet, src, z)
        b = per_occurrence_node(node.b, zjet, src, z)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return _guard(node, src, z, lambda: a / b)
    if isinstance(node, Pow):
        base = per_occurrence_node(node.base, zjet, src, z)
        return _guard(node, src, z, lambda: base ** node.exponent)
    if isinstance(node, Call):
        arg = per_occurrence_node(node.arg, zjet, src, z)
        return _guard(node, src, z, lambda: getattr(arg, node.fn)())
    raise TypeError(node)


def per_occurrence_jets(curve_expr, z):
    zj = ComplexJet.variable(z)
    z = zj.c0.z
    return [per_occurrence_node(c, zj, curve_expr.source, z).batched(z.size)
            for c in curve_expr.ast.components]


def evaluated(evaluate, points):
    """The bytes of every slot of every component over the points, evaluated
    inside a sink, with the sink's counts and its first error."""
    with row_failures(len(points)) as failed:
        jets = evaluate(np.array(points, complex))
    first = None
    try:
        failed.raise_unless()
    except EvaluationError as e:
        first = (str(e), e.reason, e.where, e.z)
    slots = [(c.real.tobytes(), c.imag.tobytes())
             for j in jets for c in j.coeffs]
    return slots, failed.counts(), first


def assert_shared_is_per_occurrence(curve_expr, points):
    """The shared evaluator gives the oracle's bits in every slot, its
    failure counts and its first error; returns the counts."""
    got = evaluated(curve_expr.eval_jets, points)
    want = evaluated(lambda z: per_occurrence_jets(curve_expr, z), points)
    assert got == want
    return got[1]


# a failing sub-expression that occurs more than once, spelled differently
# at its first occurrence, so the error must name that spelling
REPEATED_FAILURES = (
    "(1/ z + 1/z, sin(1/z)*cos(1/z), 0, 0)",
    "(log( z )*log(z), sqrt(z)/sqrt(z), cosh(log(z)), sinh(log(z)))",
    "(z^-2 - z^-2, (z - 1)^-1 + 1/(z - 1), 1/log(z + 2), log(z + 2))",
)
FAILURE_POINTS = [0j, 1 + 0j, -1 + 0j, -2 + 0j, -3 + 0j, 0.5 + 0.5j,
                  -0.5 - 1e-14j, 2 - 1j]


def test_shared_evaluator_is_per_occurrence_on_the_goldens():
    curves = GOLDEN_EXPRESSIONS + COMPOSITE_CURVES
    counts = [assert_shared_is_per_occurrence(CurveExpr.parse(text),
                                              golden_points())
              for text in curves]
    # the five goldens with a pole at z = 0
    assert sum(c.get("EvaluationError", 0) for c in counts) == 5


def test_shared_evaluator_names_the_first_occurrence():
    for text in REPEATED_FAILURES:
        curve = CurveExpr.parse(text)
        assert assert_shared_is_per_occurrence(curve, FAILURE_POINTS)
    _, _, first = evaluated(CurveExpr.parse(REPEATED_FAILURES[0]).eval_jets,
                            FAILURE_POINTS)
    assert first[1:4] == ("pole", "1/ z", 0j)


@pytest.mark.parametrize("name", PAIR_ENTRIES)
def test_shared_evaluator_is_per_occurrence_on_catalog_curves(name):
    curve = catalog.get(name).pair.curve
    points = domain_points(curve.domain)
    assert_shared_is_per_occurrence(curve.expr, points)
    for theta in (0.3, np.pi / 8, 2.0):
        family = associated_family(catalog.get(name).pair, theta)
        assert_shared_is_per_occurrence(family.curve.expr, points)
    for center in (np.zeros(4), (0.5, -1j, 0.25 + 2j, 0)):
        inverted = transformed_curve(curve, 1.5, center)
        assert_shared_is_per_occurrence(inverted.expr, points)


def test_shared_evaluator_counts_the_transformed_poles():
    # <<G, G>> = 1 - z^2 of the catenoid pair vanishes at z = +-1
    curve = transformed_curve(catalog.get("catenoid-helicoid").pair.curve,
                              1.0, np.zeros(4))
    counts = assert_shared_is_per_occurrence(
        curve.expr, [1 + 0j, 0.3 + 0.2j, -1 + 0j, 0.5j])
    assert counts == {"EvaluationError": 2}


def test_shared_evaluator_keeps_signed_zero_constants():
    # 0.0 and -0.0 are equal as floats and as Lit nodes, but not as literals
    # of a curve: -0.0 * z and 0.0 * z differ in the signs of their zeros
    z = Var()
    neg, pos = const_node(-0.0), const_node(0.0)
    assert neg == pos
    comps = (Bin("*", neg, z), Bin("*", pos, z), Bin("-", neg, pos),
             Bin("+", Bin("*", pos, z), Bin("*", neg, z)))
    curve = CurveExpr(Curve(comps))
    points = [1 + 1j, 2 + 0.5j, -0.0 + 0j, 0.0 - 0.0j]
    assert_shared_is_per_occurrence(curve, points)
    jets = curve.eval_jets(np.array(points[:2]))
    assert np.signbit(jets[0].c0.real).all()
    assert not np.signbit(jets[1].c0.real).any()
    assert np.signbit(jets[2].c0.real).all()
