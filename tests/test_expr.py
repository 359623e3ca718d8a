import collections

import numpy as np
import pytest

from superconf import EvaluationError, ExpressionError, jets
from superconf.errors import PreconditionError
from superconf.expr import (
    MAX_DEPTH,
    Bin,
    CurveExpr,
    Lit,
    Neg,
    Node,
    Pow,
    Var,
    const_node,
    parse_curve,
    print_node,
)
from superconf.minimal import (Domain, HolomorphicCurve, MinimalPair,
                               associated_family, certify)
from superconf.moebius import transformed_curve

ROUNDTRIP = [
    "(cos(z), sin(z), -i*z, 0)",
    "(z, 1/z)",
    "(z - z^3/3, i*(z + z^3/3), z^2, 0)",
    "(1/(4*z), i/(4*z), z/4, i*z/4)",
    "(sin(z), i*sin(z), cos(z), i*cos(z))",
    "(z, i*z, 0, 0)",
    "(exp(z), log(z + 3), sqrt(z + 2), sinh(z))",
    "(cosh(z), z^-2, 2.5*z, 0.125)",
    "(z^2^3, -z^2, (-z)^2, -(z + 1))",
    "(a1 , 0)".replace("a1", "1e-3*z"),
    "(z*(z + 1)*(z - 1), z/(z*z), 0, 0)",
    "(i, -i, 2*i, -2*i)",
    "(z - 1 - 2, z - (1 - 2), 0, 0)",
    "(z/2/3, z/(2/3), 0, 0)",
    "(5*i/(-24 - z^2), cos(2*z), 0.25*z, 1)",
    "(sqrt(z + 5), log(exp(z)), 0, 0)",
    "(z + i*z + 3, 1 + 2*i, 0, 0)",
    "(-z^-3, z^10, 0, 0)",
    "(sin(z)*cos(z), sin(z)/cos(z), 0, 0)",
    "(0.5, .25*z, 1.25e2, 0)",
]


@pytest.mark.parametrize("text", ROUNDTRIP)
def test_parse_print_parse_idempotent(text):
    ast = parse_curve(text)
    printed = print_node(ast)
    assert parse_curve(printed) == ast
    # printing is a fixed point after one pass
    assert print_node(parse_curve(printed)) == printed


MALFORMED = [
    ("(z, ", 1, 5),
    ("(z", 1, 3),
    ("z", 1, 1),
    ("(z, w)", 1, 5),
    ("(z, 1/)", 1, 7),
    ("(z, z, z)", 1, 1),
    ("(z^z, 0)", 1, 4),
    ("(z^1.5, 0)", 1, 4),
    ("(z + , 0)", 1, 6),
    ("(z, 0) extra", 1, 8),
]
# numbers are ASCII digits and finite
BAD_NUMBERS = [
    ("(z^\u00b2, 0)", 1, 4),
    ("(\u0663*z, 0)", 1, 2),
    ("(z^1e400, 0)", 1, 4),
    ("(1e999*z, i*1e999*z, 0, 0)", 1, 2),
]
MALFORMED += BAD_NUMBERS
# past MAX_DEPTH, each fails at the token that crosses it: the 101st
# parenthesis or minus sign, the operator that makes the tree 101 deep
DEEP = {
    "parentheses": ("(" + "(" * 300 + "z" + ")" * 300 + ", 0)", 102),
    "minus-signs": ("(" + "-" * 1200 + "z, 0)", 102),
    "sum": ("(" + " + ".join(["z"] * 3000) + ", 0)", 400),
    "powers": ("(z" + "^2" * 2000 + ", 0)", 201),
}


@pytest.mark.parametrize("text,line,col", MALFORMED)
def test_malformed_positions(text, line, col):
    with pytest.raises(ExpressionError) as exc:
        parse_curve(text)
    assert exc.value.line == line
    assert exc.value.col == col


@pytest.mark.parametrize("name", DEEP)
def test_deep_expression_positions(name):
    text, col = DEEP[name]
    with pytest.raises(ExpressionError) as exc:
        parse_curve(text)
    assert (exc.value.line, exc.value.col) == (1, col)


def _padded_catenoid(terms):
    """The catenoid with terms '+ 0' terms in its last component."""
    return HolomorphicCurve("padded", "(cos(z), sin(z), -i*z, 0"
                            + " + 0" * terms + ")", Domain(-2, 2, -1.5, 1.5))


def _depth(node):
    return 1 + max((_depth(x) for x in vars(node).values()
                    if isinstance(x, Node)), default=0)


# each function that wraps a curve's tree, with the padding that puts
# its result at MAX_DEPTH
WRAPPERS = {
    "transformed_curve": (lambda c: transformed_curve(c, 1.0, (0, 0, 0, 5j)),
                          95),
    "associated_family": (lambda c: associated_family(
        MinimalPair(c), 0.3).curve, 98),
}


@pytest.mark.parametrize("name", WRAPPERS)
def test_built_curves_reparse(name):
    build, at_bound = WRAPPERS[name]
    # certify accepts the padded curve, whose text the parser takes
    deepest = _padded_catenoid(99)
    assert certify(MinimalPair(deepest), deepest.domain.grid(3, 3))["ok"]
    with pytest.raises(PreconditionError, match="deeper than 100 levels"):
        build(deepest)
    built = build(_padded_catenoid(at_bound)).expr
    assert max(map(_depth, built.ast.components)) == MAX_DEPTH
    assert CurveExpr.parse(built.to_text()).ast == built.ast


def test_unexpected_character():
    with pytest.raises(ExpressionError) as exc:
        parse_curve("(z; 0)")
    assert exc.value.col == 3


def test_expected_token_set_reported():
    with pytest.raises(ExpressionError) as exc:
        parse_curve("(z, ")
    assert "expression" in str(exc.value) or exc.value.expected


def point_values(curve, z):
    """The component values at the one point z."""
    return [j.c0.z[0] for j in curve.eval_jets(z)]


def test_two_tuple_zero_padded():
    curve = CurveExpr.parse("(z, 1/z)")
    vals = point_values(curve, 1 + 0j)
    assert vals == [1 + 0j, 1 + 0j, 0j, 0j]
    assert curve.to_text() == "(z, 1/z)"


def test_eval_simple_curve():
    curve = CurveExpr.parse("(cos(z), sin(z), -i*z, 0)")
    vals = point_values(curve, 0j)
    assert vals == [1 + 0j, 0j, 0j, 0j]
    jets = curve.eval_jets(0j)
    assert tuple(c.z[0] for c in jets[0].coeffs) == (1, 0, -1, 0)
    assert tuple(c.z[0] for c in jets[2].coeffs) == (0, -1j, 0, 0)


def test_precedence_and_unary():
    curve = CurveExpr.parse("(-z^2, 0)")
    # unary minus binds below ^: -(z^2)
    assert point_values(curve, 2 + 0j)[0] == -4 + 0j
    curve = CurveExpr.parse("(z^2^3, 0)")
    # left associative: (z^2)^3 = z^6
    assert point_values(curve, 2 + 0j)[0] == 64 + 0j


def test_pole_error_names_subexpression():
    curve = CurveExpr.parse("(1/z, 0)")
    with pytest.raises(EvaluationError) as exc:
        curve.eval_jets(0j)
    assert exc.value.reason == "pole"
    assert "1/z" in str(exc.value)


@pytest.mark.parametrize("text, where", [
    ("(1/(z) + 1, 0)", "1/(z)"),
    ("((z) + 1/(z - 0), 0)", "1/(z - 0)"),
    ("(-(1/(z)), (z + 1)^-1)", "1/(z)"),
])
def test_error_span_ends_at_the_closing_parenthesis(text, where):
    with pytest.raises(EvaluationError) as exc:
        CurveExpr.parse(text).eval_jets(0j)
    assert str(exc.value) == f"cannot evaluate '{where}' at z = 0j: pole"
    assert (exc.value.where, exc.value.reason) == (where, "pole")


def test_branch_cut_error():
    curve = CurveExpr.parse("(log(z), 0)")
    with pytest.raises(EvaluationError) as exc:
        curve.eval_jets(-2 + 0j)
    assert exc.value.reason == "branch cut"
    assert "log(z)" in str(exc.value)


def test_negative_power_pole():
    curve = CurveExpr.parse("(z^-2, 0)")
    with pytest.raises(EvaluationError) as exc:
        curve.eval_jets(0j)
    assert exc.value.reason == "pole"


def test_const_node_shapes():
    assert const_node(3.0) == Lit(3.0)
    assert const_node(-3.0) == Neg(Lit(3.0))
    assert const_node(1j) == Lit(0.0, 1.0)
    assert const_node(-2j) == Neg(Bin("*", Lit(2.0), Lit(0.0, 1.0)))
    node = const_node(1 - 2j)
    assert node == Bin("-", Lit(1.0), Bin("*", Lit(2.0), Lit(0.0, 1.0)))
    # canonical shapes survive the printer and reparse identically
    for c in (3.0, -3.0, 1j, -2j, 1 - 2j, -1.5 + 1j):
        printed = print_node(
            parse_curve("(z, 0)").__class__((const_node(c), Lit(0.0), Lit(0.0), Lit(0.0)))
        )
        assert parse_curve(printed).components[0] == const_node(c)


def test_programmatic_curve_round_trip():
    from superconf.expr import Curve

    comps = (Bin("*", Var(), const_node(2j)), Lit(0.0), Lit(0.0), Lit(0.0))
    curve = CurveExpr(Curve(comps))
    text = curve.to_text()
    assert CurveExpr.parse(text).ast.components == comps


@pytest.fixture
def complex_math_calls(monkeypatch):
    """A Counter of the calls of each complex elementary function."""
    calls = collections.Counter()
    table = jets._COMPLEX_BATCH_MATH
    for name, fn in vars(table).copy().items():
        def counting(x, name=name, fn=fn):
            calls[name] += 1
            return fn(x)
        monkeypatch.setattr(table, name, counting)
    return calls


@pytest.mark.parametrize("text, counts", [
    ("(cos(z), sin(z), -i*z, 0)", {"sin": 1, "cos": 1}),
    ("(cos(log(z + 3)), sin(log(z + 3)), -i*log(z + 3), 0)",
     {"log": 1, "sin": 1, "cos": 1}),
    ("(sinh(2*z), cosh(2*z), 0, 0)", {"sinh": 1, "cosh": 1}),
])
def test_each_function_of_a_shared_base_is_called_once(complex_math_calls,
                                                       text, counts):
    curve = CurveExpr.parse(text)
    z = np.linspace(-1, 1, 10) + 0.5j
    for _ in range(3):
        complex_math_calls.clear()
        curve.eval_jets(z)
        assert complex_math_calls == counts
