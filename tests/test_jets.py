import cmath
import itertools
import math
from functools import reduce
from operator import add, mul, sub, truediv

import numpy as np
import pytest

from superconf import (
    ComplexJet,
    DegenerateJetError,
    Jet2,
    fd_crosscheck,
    seed_first_derivative_fields,
    seed_surface,
)
from superconf.errors import BranchCutError
from superconf.geometry import R4, Ambient
from superconf.jets import (_COMPLEX_BATCH_MATH, _REAL_BATCH_MATH, _CArray,
                            _im_part)


def cj(*coeffs):
    return ComplexJet(*coeffs)


def row0(slots):
    """The slots' values at the first point of their batch; a constant slot
    is the same at every point."""
    return tuple(np.ravel(getattr(x, "z", x))[0] for x in slots)


def transform(vec, matrix):
    """Apply a constant linear map to a vector jet's components, slot-wise."""
    m = np.asarray(matrix, dtype=float)
    out = []
    for i in range(m.shape[0]):
        acc = Jet2(0.0)
        for j, comp in enumerate(vec):
            coef = m[i, j]
            if coef != 0.0:
                acc = acc + comp * float(coef)
        out.append(acc)
    return Jet2.stack(out)


def reparam_rot(x, c, s):
    """Jet of the same function (every component of a vector jet) precomposed
    with the parameter rotation (w1, w2) -> (c w1 - s w2, s w1 + c w2) about
    the base point."""
    du = c * x.du + s * x.dv
    dv = -s * x.du + c * x.dv
    duu = c * c * x.duu + 2 * c * s * x.duv + s * s * x.dvv
    duv = -c * s * x.duu + (c * c - s * s) * x.duv + c * s * x.dvv
    dvv = s * s * x.duu - 2 * c * s * x.duv + c * c * x.dvv
    return Jet2(x.v, du, dv, duu, duv, dvv)


def test_exp_taylor_at_zero():
    j = ComplexJet.variable(0j).exp()
    assert row0(j.coeffs) == (1, 1, 1, 1)


def test_cos_jet_at_zero():
    j = ComplexJet.variable(0j).cos()
    assert row0(j.coeffs) == (1, 0, -1, 0)


def test_pole_raises():
    with pytest.raises(DegenerateJetError):
        1 / ComplexJet.variable(0j)


def test_branch_cuts():
    with pytest.raises(BranchCutError):
        ComplexJet.variable(-2.0 + 0j).log()
    with pytest.raises(BranchCutError):
        ComplexJet.variable(-2.0 + 0j).sqrt()
    # off the cut both are fine
    ComplexJet.variable(-2.0 + 1j).log()
    ComplexJet.variable(-2.0 + 1j).sqrt()


def test_complex_division_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = cj(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        b = cj(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        if abs(b.c0) < 1e-3:
            continue
        q = a / b
        back = q * b
        assert max(abs(x - y) for x, y in zip(back.coeffs, a.coeffs)) < 1e-12


def test_complex_ring_axioms():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a, b, c = (cj(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
                   for _ in range(3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert max(abs(x - y) for x, y in zip(lhs.coeffs, rhs.coeffs)) < 1e-12
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert max(abs(x - y) for x, y in zip(lhs.coeffs, rhs.coeffs)) < 1e-12


def test_compose_against_hand_derivatives():
    # f(z) = exp(sin z): f' = cos z e^{sin z},
    # f'' = (cos^2 z - sin z) e^{sin z},
    # f''' = (cos^3 z - 3 sin z cos z - cos z) e^{sin z}
    z0 = 0.7 + 0.4j
    j = ComplexJet.variable(z0).sin().exp()
    s, c, e = cmath.sin(z0), cmath.cos(z0), cmath.exp(cmath.sin(z0))
    expect = (e, c * e, (c * c - s) * e, (c ** 3 - 3 * s * c - c) * e)
    assert max(abs(x - y) for x, y in zip(j.coeffs, expect)) < 1e-12


def squaring_pow(x, n, one):
    """x ** n by the square-and-multiply loop from one that squares once
    more than it uses; a negative n divides one by the power."""
    if n < 0:
        return one / squaring_pow(x, -n, one)
    out = one
    while n:
        if n & 1:
            out = out * x
        x = x * x
        n >>= 1
    return out


def slot_bits(x):
    """The bytes of every slot of a jet, or of a _CArray's values."""
    slots = getattr(x, "coeffs", None) or getattr(x, "slots", None) or (x,)
    return [np.asarray(getattr(c, "z", c)).tobytes() for c in slots]


def test_integer_pow(monkeypatch):
    z0 = 1.3 - 0.2j
    j = ComplexJet.variable(z0) ** 3
    expect = (z0 ** 3, 3 * z0 ** 2, 6 * z0, 6)
    assert max(abs(x - y) for x, y in zip(j.coeffs, expect)) < 1e-13
    jm = ComplexJet.variable(z0) ** -2
    expect = (z0 ** -2, -2 * z0 ** -3, 6 * z0 ** -4, -24 * z0 ** -5)
    assert max(abs(x - y) for x, y in zip(jm.coeffs, expect)) < 1e-13

    # bit for bit the loop that squares once more than it uses, on batches
    rng = np.random.default_rng(19)
    cx = cj(*(rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30))))
    rx = Jet2(*rng.standard_normal((6, 30)))
    ax = _CArray.of(random_complex(rng, 300))
    cases = [(cx, ComplexJet.constant(1), range(-3, 10)),
             (rx, Jet2.constant(1), range(-3, 10)),
             (ax, 1.0, range(1, 10))]
    with np.errstate(all="ignore"):
        for x, one, powers in cases:
            for n in powers:
                assert slot_bits(x ** n) == slot_bits(squaring_pow(x, n, one))

    # a square takes two products: the square, and 1 times it
    for x in (cx, rx, ax):
        calls, cls = [], type(x)
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(cls, name, lambda *args, fn=getattr(cls, name):
                                calls.append(1) or fn(*args))
        x ** 2
        monkeypatch.undo()
        assert len(calls) == 2, cls


def test_jet2_mul_example():
    a = Jet2(2, 1, 0, 0, 0, 0)
    b = Jet2(3, 0, 1, 0, 0, 0)
    assert (a * b).slots == (6, 3, 2, 0, 1, 0)


def test_jet2_sqrt_of_perfect_square():
    # (4, 4, 0, 2, 0, 0) is the jet of (2+u)^2, so the root is exactly 2+u:
    # the uu slot is f_uu/(2 sqrt f) - f_u^2/(4 f^{3/2}) = 1/2 - 1/2 = 0.
    j = Jet2(4, 4, 0, 2, 0, 0).sqrt()
    assert max(abs(x - y) for x, y in zip(j.slots, (2, 1, 0, 0, 0, 0))) < 1e-15


def test_jet2_division_floor():
    with pytest.raises(DegenerateJetError):
        Jet2(1.0) / Jet2(1e-14)


def test_jet2_ring_axioms():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a, b, c = (Jet2(*rng.standard_normal(6)) for _ in range(3))
        lhs, rhs = (a * b) * c, a * (b * c)
        assert max(abs(x - y) for x, y in zip(lhs.slots, rhs.slots)) < 1e-12
        lhs, rhs = a * (b + c), a * b + a * c
        assert max(abs(x - y) for x, y in zip(lhs.slots, rhs.slots)) < 1e-12


def test_slotwise_ops_take_each_kinds_numbers():
    # a number shifts the base value only; a complex number is a number to
    # a holomorphic jet and not to a real one
    a = Jet2(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert (a + 2).slots == (3.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert (2.5 - a).slots == (1.5, -2.0, -3.0, -4.0, -5.0, -6.0)
    assert (a - a).slots == (0.0,) * 6
    with pytest.raises(TypeError):
        a + 1j
    with pytest.raises(TypeError):
        a - cj(1j)
    c = cj(1j, 2.0, 3j, 4.0)
    assert (c - 1j).coeffs == (0j, 2.0, 3j, 4.0)
    assert (1 + c).coeffs == (1 + 1j, 2.0, 3j, 4.0)
    assert (-c).coeffs == (-1j, -2.0, -3j, -4.0)


def test_jet2_division_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a, b = (Jet2(*rng.standard_normal(6)) for _ in range(2))
        if abs(b.v) < 1e-3:
            continue
        back = (a / b) * b
        assert max(abs(x - y) for x, y in zip(back.slots, a.slots)) < 1e-11


def test_seed_identity_map():
    jets = [ComplexJet.variable(1 + 2j)]
    g, h = seed_surface(jets)
    assert g[0].slots == (1, 1, 0, 0, 0, 0)
    assert h[0].slots == (2, 0, 1, 0, 0, 0)


def test_seed_z_squared_at_origin():
    jets = [ComplexJet.variable(0j) ** 2]
    g, _ = seed_surface(jets)
    assert g[0].slots == (0, 0, 0, 2, 0, -2)


def catenoid_jets(z):
    var = ComplexJet.variable(z)
    return [var.cos(), var.sin(), var * -1j, ComplexJet.constant(0)]


def test_catenoid_seed_values_at_origin():
    jets = catenoid_jets(0j)
    g, h = seed_surface(jets)
    g_u, g_v = seed_first_derivative_fields(jets)
    assert np.allclose(g.v.T, [1, 0, 0, 0], atol=1e-15)
    assert np.allclose(h.v.T, [0, 0, 0, 0], atol=1e-15)
    assert np.allclose(g_u.v.T, [0, 1, 0, 0], atol=1e-15)
    assert np.allclose(g_v.v.T, [0, 0, 1, 0], atol=1e-15)


def test_cauchy_riemann_exact():
    rng = np.random.default_rng(13)
    for _ in range(20):
        z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        var = ComplexJet.variable(z0)
        jets = [var.exp() * (var ** 2 + 1), var.sin() / (var + 3),
                var.cosh(), var ** 3 - 2j * var]
        g, h = seed_surface(jets)
        for gc, hc in zip(g, h):
            # exact equality of stored numbers, not a tolerance
            assert gc.du == hc.dv
            assert gc.dv == -hc.du


def test_derivative_field_consistency():
    # the field Im F' split from the derivative window equals -g_v, the
    # negated field Re(iF'), slot-exact
    z0 = 0.3 - 0.8j
    var = ComplexJet.variable(z0)
    j = var.exp() * var.sin()
    h_u = _im_part(j.c1, j.c2, j.c3)
    _, [g_v] = seed_first_derivative_fields([j])
    assert h_u.slots == (-g_v).slots


def test_catenoid_fields_match_closed_form():
    # g = (cosh v cos u, cosh v sin u, v, 0)
    u0, v0 = 0.7, -0.4
    jets = catenoid_jets(complex(u0, v0))
    g, h = seed_surface(jets)
    g_u, g_v = seed_first_derivative_fields(jets)
    ch, sh, cu, su = (math.cosh(v0), math.sinh(v0), math.cos(u0), math.sin(u0))
    assert np.allclose(g.v.T, [ch * cu, ch * su, v0, 0], atol=1e-14)
    assert np.allclose(h.v.T, [-sh * su, sh * cu, -u0, 0], atol=1e-14)
    assert np.allclose(g_u.v.T, [-ch * su, ch * cu, 0, 0], atol=1e-14)
    assert np.allclose(g_v.v.T, [sh * cu, sh * su, 1, 0], atol=1e-14)
    # second derivatives of the g_u field come from the third complex order
    assert np.allclose(g_u.duu[:, 0], [ch * su, -ch * cu, 0, 0], atol=1e-14)


def test_vec_dot_norm_signature():
    # the vector jets' inner product is geometry.Ambient.dot's
    lorentz = Ambient("hyperbolic")
    a = Jet2.stack([Jet2(1, 1, 0), Jet2(2), Jet2(0), Jet2(0), Jet2(3)])
    d = lorentz.dot(a, a)
    assert d.v == 1 + 4 - 9
    e = Jet2.stack([Jet2(2, 1, 0), Jet2(0), Jet2(0), Jet2(0), Jet2(1)])
    n = lorentz.dot(e, e)
    assert n.v == 3.0

    # bit for bit the products summed one component at a time from 0.0, on
    # batches of one and of many, with -0.0 products among them
    rng = np.random.default_rng(23)
    for n, (ambient, sig) in itertools.product(
            (1, 40), ((R4, None), (lorentz, (1, 1, 1, 1, -1)))):
        xs, ys = rng.standard_normal((2, 5, 6, n))
        xs[rng.random(xs.shape) < 0.3] = -0.0
        ys[rng.random(ys.shape) < 0.3] = -0.0
        xs[:, 0], ys[:, 0] = -0.0, 1.0     # every value product is -0.0
        x, y = (Jet2.stack([Jet2(*c) for c in s]) for s in (xs, ys))
        prods = (x * y).slots
        if sig is not None:
            prods = [p * np.asarray(sig, float)[:, None] for p in prods]
        want = Jet2(*(reduce(add, p, 0.0) for p in prods))
        assert slot_bits(ambient.dot(x, y)) == slot_bits(want)
        # and the value slot is the inner product of the values
        assert (ambient.dot(x.v, y.v).tobytes()
                == ambient.dot(x, y).v.tobytes())


def test_array_factors_scale_every_slot_in_either_order():
    # a (dim, 1) column scales each component, an (n,) array each point;
    # numpy defers to the jet, so the factor may come first
    rng = np.random.default_rng(4)
    x = Jet2(*rng.standard_normal((6, 3, 5)))
    for f in (rng.standard_normal((3, 1)), rng.standard_normal(5), -2.5):
        for got in (x * f, f * x):
            assert type(got) is Jet2
            assert slot_bits(got) == [(s * f).tobytes() for s in x.slots]


def test_vec_transform():
    a = Jet2.stack([Jet2(1, 2, 3), Jet2(4, 5, 6)])
    assert [x.shape for x in a.slots] == [(2, 1)] * 6
    # a slot is (dim, 1) where every component is constant in it, and
    # (dim, n) otherwise, with the values of the components broadcast
    for n in (1, 7):
        u, v = np.linspace(-1, 1, n), np.linspace(0, 2, n)
        comps = [Jet2.coordinate_u(u), 2.5, Jet2.coordinate_v(v) * -1.0]
        b = Jet2.stack(comps)
        assert [x.shape for x in b.slots] == [(3, n)] + [(3, 1)] * 5
        comps[1] = Jet2.constant(comps[1])
        for got, xs in zip(b.slots, zip(*(c.slots for c in comps))):
            want = np.stack(np.broadcast_arrays(*xs)).reshape(len(xs), -1)
            assert got.tobytes() == want.tobytes()
    m = [[0.0, 1.0], [-1.0, 0.0], [2.0, 0.5]]
    out = transform(a, m)
    assert out[0].slots == (4, 5, 6, 0, 0, 0)
    assert out[1].slots == (-1, -2, -3, 0, 0, 0)
    assert out[2].slots == (4, 6.5, 9, 0, 0, 0)


def test_reparam_rot_quadratic():
    # f(u, v) = 3u^2 + 2uv - v + 5 around p = (p1, p2); rotating parameters by
    # angle t must reproduce the jet of f(p + R w) at w = 0
    p1, p2, t = 0.4, -1.1, 0.6
    c, s = math.cos(t), math.sin(t)

    def f_jet(u, v, du, dv, duu, duv, dvv):
        del du, dv, duu, duv, dvv
        return Jet2(3 * u * u + 2 * u * v - v + 5,
                    6 * u + 2 * v, 2 * u - 1, 6, 2, 0)

    base = f_jet(p1, p2, *(0,) * 5)
    rot = reparam_rot(base, c, s)

    # direct jet of w -> f(p1 + c w1 - s w2, p2 + s w1 + c w2) at 0
    fu, fv = 6 * p1 + 2 * p2, 2 * p1 - 1
    d_u = fu * c + fv * s
    d_v = fu * -s + fv * c
    h = np.array([[6.0, 2.0], [2.0, 0.0]])
    J = np.array([[c, -s], [s, c]])  # columns: images of w1, w2
    hh = J.T @ h @ J
    assert abs(rot.du - d_u) < 1e-14
    assert abs(rot.dv - d_v) < 1e-14
    assert abs(rot.duu - hh[0, 0]) < 1e-13
    assert abs(rot.duv - hh[0, 1]) < 1e-13
    assert abs(rot.dvv - hh[1, 1]) < 1e-13


def test_fd_crosscheck_polynomial():
    def surf(u, v):
        ju, jv = Jet2.coordinate_u(u), Jet2.coordinate_v(v)
        return Jet2.stack([ju * ju * 2 + jv * ju, jv * jv - ju * 3])

    rep = fd_crosscheck(surf, (0.3, -0.2), step=1e-3)
    assert rep["max"] < 1e-9


def test_fd_crosscheck_catenoid():
    def surf(u, v):
        g, _ = seed_surface(catenoid_jets(u + 1j * v))
        return g

    rep = fd_crosscheck(surf, (0.7, 0.3), step=1e-4)
    assert rep["max"] < 1e-6


def test_fd_crosscheck_propagates_domain_failure():
    def surf(u, v):
        if np.any(u > 1.0):
            raise ValueError("off domain")
        return Jet2(u * v)

    with pytest.raises(ValueError):
        fd_crosscheck(surf, (0.9999, 0.0), step=1e-3)


# ----- the batch arithmetic rounds as Python's complex, math and cmath -----

def bits(x):
    """The IEEE bit patterns of the real and imaginary parts of x."""
    return np.array([complex(x)]).view(np.uint64).tolist()


def random_parts(rng, n):
    """n reals of either sign with magnitudes from 1e-6 to 1e6, then zero,
    then the band 700 < |x| < 710 where cmath's exponentials change
    formula."""
    def signed(x):
        return x * rng.choice([-1.0, 1.0], x.size)
    return np.concatenate((
        signed(np.exp(rng.uniform(np.log(1e-6), np.log(1e6), n))), [0.0],
        signed(rng.uniform(700.0, 710.0, n // 20))))


def random_complex(rng, n):
    """Random complex numbers, with points on both axes among them."""
    re, im = random_parts(rng, n), rng.permutation(random_parts(rng, n))
    re[: n // 8], im[n // 8: n // 4] = 0.0, 0.0
    z = np.empty(re.size, complex)
    z.real, z.imag = re, im
    return z


def test_carray_arithmetic_rounds_as_python_complex():
    rng = np.random.default_rng(2026)
    a, b = random_complex(rng, 4000), random_complex(rng, 4000)
    a[::2], b[1::2] = -a[::2], -b[1::2]     # zero parts of both signs
    binary = {"+": add, "-": sub, "reflected -": lambda x, y: y - x,
              "*": mul, "/": truediv}
    unary = {"unary -": lambda x, y: -x}
    unary.update({f"**{n}": (lambda x, y, n=n: x ** n) for n in (2, 3, 5, 8)})
    # the other operand: the batch b, or one number of each kind
    numbers = (3, 0, -2.5, 0.0, -0.0, complex(1.5, -0.0), complex(-0.0, 2.0),
               complex(-0.0, -0.0))
    cases = [(name, op, y) for name, op in binary.items()
             for y in (b, *numbers)]
    cases += [(name, op, b) for name, op in unary.items()]
    with np.errstate(all="ignore"):
        for name, op, y in cases:
            batch = y is b
            got = op(_CArray.of(a), _CArray.of(b) if batch else y).z
            ys = b.tolist() if batch else [y] * a.size
            for k, (x, yk) in enumerate(zip(a.tolist(), ys)):
                try:
                    want = op(x, yk)
                except (OverflowError, ZeroDivisionError):
                    continue
                assert bits(got[k]) == bits(want), (name, x, yk)
        got = abs(_CArray.of(a))
        assert [bits(g) for g in got] == [bits(abs(x)) for x in a.tolist()]


@pytest.mark.parametrize("name", ["exp", "log", "sqrt", "sin", "cos",
                                  "sinh", "cosh"])
def test_batch_functions_round_as_math_and_cmath(name):
    # where the Python function raises, the batch holds a non-finite value
    rng = np.random.default_rng(7)
    z, x = random_complex(rng, 4000), random_parts(rng, 4000)
    with np.errstate(all="ignore"):
        cases = ((getattr(_COMPLEX_BATCH_MATH, name)(_CArray.of(z)).z,
                  getattr(cmath, name), z.tolist()),
                 (getattr(_REAL_BATCH_MATH, name)(x),
                  getattr(math, name), x.tolist()))
    for got, fn, points in cases:
        for k, t in enumerate(points):
            try:
                want = fn(t)
            except (OverflowError, ValueError):
                assert not np.isfinite(got[k]), (name, t)
                continue
            assert bits(got[k]) == bits(want), (name, t, got[k], want)
