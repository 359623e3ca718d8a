"""Exact differentiation substrate.

ComplexJet carries (f, f', f'', f''') of a holomorphic function at a point of
the z = u + iv parameter plane; Jet2 carries (value, du, dv, duu, duv, dvv) of
a real function of (u, v).  Both kinds share one algebra, _Jet: powers and
elementary functions are written once against each kind's chain rule.
split_re / split_im convert the first kind into the second through the
Cauchy-Riemann relations, slot by slot and exactly; the third holomorphic
order lets the fields g_u, g_v be split from the window (f', f'', f''') as
full Jet2 data.  Finite differences appear only in fd_crosscheck, the
independent referee.

Every slot holds an array over a batch of points; one point is a batch of
one.  The only other slot values are constants, from literal sub-expressions
and fixed coordinates, which stay numbers and broadcast.  A vector jet, the
sample of a surface, is one Jet2 whose slots are (dim, n) arrays
(Jet2.stack): the component axis comes first and the batch axis last, so a
scalar jet broadcasts against it and one algebra serves both.  A batch
rounds at each of its rows exactly as Python's complex, math and cmath
would at that point, so a row's bits do not depend on the batch around it:
complex values are _CArray, their real and imaginary parts held as two
float arrays, on which products and quotients follow CPython's formulas; a
complex array is built only for numpy's elementary functions, a failed
check and readers, and where numpy's functions round differently from
math's and cmath's, those points are computed by the module's own function.  Where a floor or branch-cut check fails, the
failed rows are recorded in the innermost row_failures() sink, which
carries on with the harmless base value 1 in them; without a sink the check
raises the error of its first failed row.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from contextvars import ContextVar
from operator import add, attrgetter, neg, sub
from types import SimpleNamespace

import numpy as np

from .errors import BranchCutError, DegenerateJetError

# a divisor or sqrt argument at or below it counts as zero.  Absolute: curve
# evaluation sees the dimensionless z-plane, where G -> lambda G adds no
# division; callers with lengths (construct._assemble) use their units first
DIV_FLOOR = 1e-13


class RowFailures:
    """Rows of a batch of n points where a check failed.

    A row keeps the first check it failed, and with it the error that point
    raises alone, since the checks run in the same order for both."""

    def __init__(self, n):
        self.n = n
        self.checks = []     # (error class, rows it failed first, error of a row)

    def add(self, bad, error):
        bad = bad & ~self.rows()
        if bad.any():
            self.checks.append((type(error(int(np.argmax(bad)))), bad, error))

    def rows(self, cls=None):
        """Mask of the rows that failed with cls (any class if None)."""
        masks = [m for c, m, _ in self.checks if cls in (None, c)]
        return np.logical_or.reduce(masks) if masks else np.zeros(self.n, bool)

    def counts(self):
        """The number of failed rows per error class name."""
        out = {}
        for c, m, _ in self.checks:
            out[c.__name__] = out.get(c.__name__, 0) + int(np.count_nonzero(m))
        return out

    def raise_unless(self, allowed=()):
        """Raise the error of the first failed row whose class is not a
        subclass of one in the tuple allowed."""
        first = {int(np.argmax(m)): error for c, m, error in self.checks
                 if not issubclass(c, allowed)}
        if first:
            k = min(first)
            raise first[k](k)


# the innermost open row_failures() sink of this thread or task
_SINK = ContextVar("row_failures", default=None)


@contextmanager
def row_failures(n):
    """Collect the failed rows of batch checks over n points, instead of
    raising, for the duration of the block."""
    token = _SINK.set(RowFailures(n))
    try:
        yield _SINK.get()
    finally:
        _SINK.reset(token)


def fail_rows(bad, error):
    """Record the rows of a batch where a check came out bad.

    bad is a mask over the batch, or one bool for a broadcast constant, and
    error(k) is the error row k raises alone; the sink may call it after
    the check, so it must not read names the caller rebinds later.  The
    rows go to the innermost row_failures() sink; without one, the first
    bad row's error is raised."""
    if not np.any(bad):
        return
    sink = _SINK.get()
    if sink is None:
        raise error(int(np.argmax(bad)))
    sink.add(bad, error)


def _checked(bad, base, error):
    """base after fail_rows, where error(b) is the error of a row whose base
    value is the number b; the failed rows get the base value 1."""
    if not np.any(bad):
        return base
    values = getattr(base, "z", base)
    fail_rows(bad, lambda k: error(np.ravel(values)[k].item()))
    out = np.where(bad, 1.0, values)
    return _CArray.of(out) if np.iscomplexobj(out) else out


def _division_floor(b):
    return DegenerateJetError(f"jet division floor: |denominator| = {abs(b):.3e}")


def _parts(x):
    if isinstance(x, (_CArray, complex)):
        return x.real, x.imag
    return float(x), 0.0


def _quot(a, b):
    """CPython's _Py_c_quot (Smith's algorithm, divided by the scaled
    denominator rather than multiplied by its reciprocal as numpy does)."""
    ar, ai = _parts(a)
    br, bi = (np.asarray(x, float) for x in _parts(b))
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return _CArray(re, im)


def _powu(one, x, n):
    """x ** n for an int n >= 0: CPython's c_powu, square-and-multiply from
    one, less the last squaring, whose result it never reads."""
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


class _CArray:
    """Complex values over a batch of points, with CPython's arithmetic.

    The real and imaginary parts are two float arrays of one shape; z, the
    complex array, is built for numpy's elementary functions and readers.
    numpy's complex product fuses multiply-adds and its quotient multiplies
    by a reciprocal, so on about half of all inputs they differ from
    Python's complex in the last bit; here products, quotients and integer
    powers follow CPython's own formulas on the parts.  A number x in a sum
    or difference is the complex (x, 0.0), as in Python's and numpy's."""

    __slots__ = ("real", "imag")
    __array_ufunc__ = None     # ndarray operands defer to these methods

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    @staticmethod
    def of(z):
        z = np.asarray(z, complex)
        return _CArray(z.real, z.imag)

    @property
    def z(self):
        out = np.empty(np.shape(self.real), complex)
        out.real, out.imag = self.real, self.imag
        return out

    def __repr__(self):
        return f"_CArray({self.z!r})"

    def __add__(self, other):
        br, bi = _parts(other)
        return _CArray(self.real + br, self.imag + bi)

    __radd__ = __add__

    def __sub__(self, other):
        br, bi = _parts(other)
        return _CArray(self.real - br, self.imag - bi)

    def __rsub__(self, other):
        br, bi = _parts(other)
        return _CArray(br - self.real, bi - self.imag)

    def __neg__(self):
        return _CArray(-self.real, -self.imag)

    def __mul__(self, other):
        """CPython's _Py_c_prod; a number is the complex (x, 0)."""
        ar, ai = self.real, self.imag
        br, bi = _parts(other)
        return _CArray(ar * br - ai * bi, ar * bi + ai * br)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _quot(self, other)

    def __rtruediv__(self, other):
        return _quot(other, self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 1:
            return NotImplemented
        return _powu(1.0, self, n)

    def __abs__(self):
        return np.hypot(self.real, self.imag)


def _pointwise(fn, dtype):
    """fn over every entry of an array; nan where fn raises, which happens
    only on rows a check has already failed."""
    def safe(t):
        try:
            return fn(t)
        except (OverflowError, ValueError):
            return math.nan

    def apply(x):
        z = np.asarray(getattr(x, "z", x))
        out = np.array([safe(t) for t in z.ravel().tolist()],
                       dtype).reshape(z.shape)
        return _CArray.of(out) if dtype is complex else out

    return apply


def _numpy_but(fn, exact, differs):
    """numpy's complex fn, and the cmath function exact point by point at
    the points z where differs(z): there the two round differently."""
    exact = _pointwise(exact, complex)

    def apply(x):
        z = np.asarray(getattr(x, "z", x))
        out = np.array(fn(z))
        pick = differs(z)
        if pick.any():
            out[pick] = exact(z[pick]).z
        return _CArray.of(out)

    return apply


def _near_overflow(part):
    """Where the exponential of the real or imaginary part takes cmath's
    scaled branch (|x| > log(DBL_MAX / 4) = 708.4), or is not finite."""
    return lambda z: ~(abs(part(z)) <= 708.0)


# numpy's functions where they round as math's and cmath's (measured on
# 200 000 points each); the module's own function point by point elsewhere
_REAL_BATCH_MATH = SimpleNamespace(
    exp=_pointwise(math.exp, float), log=_pointwise(math.log, float),
    sqrt=np.sqrt, sin=np.sin, cos=np.cos,
    sinh=_pointwise(math.sinh, float), cosh=_pointwise(math.cosh, float))
_COMPLEX_BATCH_MATH = SimpleNamespace(
    exp=_numpy_but(np.exp, cmath.exp, _near_overflow(np.real)),
    log=_pointwise(cmath.log, complex),
    sqrt=_numpy_but(np.sqrt, cmath.sqrt, lambda z: z.real == 0),
    sin=_numpy_but(np.sin, cmath.sin, _near_overflow(np.imag)),
    cos=_numpy_but(np.cos, cmath.cos, _near_overflow(np.imag)),
    sinh=_numpy_but(np.sinh, cmath.sinh, _near_overflow(np.real)),
    cosh=_numpy_but(np.cosh, cmath.cosh, _near_overflow(np.real)))


# the functions whose jets compose from a pair (s, c) of functions of the
# base value, computed once per base (paired): the pair, and d0..d3 in s, c
PAIRED = {
    "sin": (("sin", "cos"), lambda s, c: (s, c, -s, -c)),
    "cos": (("sin", "cos"), lambda s, c: (c, -s, -c, s)),
    "sinh": (("sinh", "cosh"), lambda s, c: (s, c, s, c)),
    "cosh": (("sinh", "cosh"), lambda s, c: (c, s, c, s)),
}


class _Jet:
    """What both jet kinds do the same way.

    A subclass supplies its slots in order as the tuple _all, the number
    types _NUMBERS that add to its base value, its elementary functions
    _ELEMENTARY, its base value _base, its chain-rule kernel
    _compose(d0, d1, d2, d3) for an elementary function whose derivatives at
    the base value are d0..d3 (Jet2, of order 2, ignores d3), and
    _check(fn, w), the floor and branch-cut check of log and sqrt, which
    returns the base to go on with.
    """

    __slots__ = ()

    def __repr__(self):
        return f"{type(self).__name__}{self._all!r}"

    def __add__(self, other):
        cls = type(self)
        if isinstance(other, cls):
            return cls(*map(add, self._all, other._all))
        if isinstance(other, self._NUMBERS):
            base, *rest = self._all
            return cls(base + other, *rest)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return type(self)(*map(neg, self._all))

    def __sub__(self, other):
        cls = type(self)
        if isinstance(other, cls):
            return cls(*map(sub, self._all, other._all))
        if isinstance(other, self._NUMBERS):
            base, *rest = self._all
            return cls(base - other, *rest)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __rtruediv__(self, other):
        return self.constant(other).__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.constant(1) / self.__pow__(-n)
        return _powu(self.constant(1), self, n)

    def exp(self):
        e = self._ELEMENTARY.exp(self._base)
        return self._compose(e, e, e, e)

    def log(self):
        w = self._check("log", self._base)
        iw = 1 / w
        return self._compose(self._ELEMENTARY.log(w), iw, -iw * iw,
                             2 * iw ** 3)

    def sqrt(self):
        w = self._check("sqrt", self._base)
        s = self._ELEMENTARY.sqrt(w)
        return self._compose(s, 0.5 / s, -0.25 / (w * s), 0.375 / (w * w * s))

    def paired(self, fn, pairs, base):
        """The jet of fn, a key of PAIRED; its pair of base values is kept in
        the dict pairs under base, a name for this jet's base value."""
        names, derivatives = PAIRED[fn]
        if (names, base) not in pairs:
            pairs[names, base] = tuple(getattr(self._ELEMENTARY, f)(self._base)
                                       for f in names)
        return self._compose(*derivatives(*pairs[names, base]))

    def sin(self):
        return self.paired("sin", {}, None)

    def cos(self):
        return self.paired("cos", {}, None)

    def sinh(self):
        return self.paired("sinh", {}, None)

    def cosh(self):
        return self.paired("cosh", {}, None)


class ComplexJet(_Jet):
    """Value and first three derivatives of a holomorphic function at a point.

    Slots hold derivative values, not Taylor coefficients; the product rule is
    the Leibniz rule with binomial weights.
    """

    __slots__ = ("c0", "c1", "c2", "c3")
    _all = coeffs = property(attrgetter(*__slots__))
    _NUMBERS = (int, float, complex)
    _ELEMENTARY = _COMPLEX_BATCH_MATH

    def __init__(self, c0, c1=0j, c2=0j, c3=0j):
        # the algebra's own results need no coercion: complex, or _CArray
        if type(c0) is not complex and type(c0) is not _CArray:
            c0, c1, c2, c3 = (c if type(c) is _CArray
                              else _CArray.of(c) for c in (c0, c1, c2, c3))
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2
        self.c3 = c3

    @property
    def _base(self):
        return self.c0

    @staticmethod
    def constant(c):
        return ComplexJet(complex(c), 0j, 0j, 0j)

    @staticmethod
    def variable(z):
        """The identity's jet at the points z; one point is a batch of one."""
        return ComplexJet(_CArray.of(np.atleast_1d(z)), 1 + 0j, 0j, 0j)

    def batched(self, n):
        """This jet with every slot an array over n points."""
        return ComplexJet(*(
            c if np.shape(c.real) == (n,)
            else _CArray(*(np.full(n, x, float) for x in _parts(c)))
            for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, self._NUMBERS):
            return ComplexJet(self.c0 * other, self.c1 * other,
                              self.c2 * other, self.c3 * other)
        if not isinstance(other, ComplexJet):
            return NotImplemented
        f0, f1, f2, f3 = self.coeffs
        g0, g1, g2, g3 = other.coeffs
        return ComplexJet(
            f0 * g0,
            f1 * g0 + f0 * g1,
            f2 * g0 + 2 * f1 * g1 + f0 * g2,
            f3 * g0 + 3 * f2 * g1 + 3 * f1 * g2 + f0 * g3,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, self._NUMBERS):
            other = ComplexJet.constant(other)
        if not isinstance(other, ComplexJet):
            return NotImplemented
        g0, g1, g2, g3 = other.coeffs
        g0 = _checked(abs(g0) <= DIV_FLOOR, g0, _division_floor)
        f0, f1, f2, f3 = self.coeffs
        q0 = f0 / g0
        q1 = (f1 - q0 * g1) / g0
        q2 = (f2 - 2 * q1 * g1 - q0 * g2) / g0
        q3 = (f3 - 3 * q2 * g1 - 3 * q1 * g2 - q0 * g3) / g0
        return ComplexJet(q0, q1, q2, q3)

    def _compose(self, d0, d1, d2, d3):
        g1, g2, g3 = self.c1, self.c2, self.c3
        return ComplexJet(
            d0,
            d1 * g1,
            d2 * g1 * g1 + d1 * g2,
            d3 * g1 ** 3 + 3 * d2 * g1 * g2 + d1 * g3,
        )

    @staticmethod
    def _check(fn, w):
        mag = abs(w)
        w = _checked(mag <= DIV_FLOOR, w, lambda b: DegenerateJetError(
            f"{fn} at magnitude floor: |z| = {abs(b):.3e}"))
        # rows at the floor now hold 1, off the cut
        cut = (w.real < 0) & (abs(w.imag) <= 1e-13 * mag)
        return _checked(cut, w, lambda b: BranchCutError(
            f"{fn} evaluated on the branch cut at {b}"))


class Jet2(_Jet):
    """Second-order jet of a real function of (u, v), or of a vector of
    them (stack).

    duv is stored once; symmetry of mixed partials is structural.
    """

    __slots__ = ("v", "du", "dv", "duu", "duv", "dvv")
    _all = slots = property(attrgetter(*__slots__))
    _NUMBERS = (int, float)
    _ELEMENTARY = _REAL_BATCH_MATH
    __array_ufunc__ = None     # ndarray operands defer to these methods

    def __init__(self, v, du=0.0, dv=0.0, duu=0.0, duv=0.0, dvv=0.0):
        # the algebra's own results need no coercion: float, or float arrays
        if type(v) is not float and type(v) is not np.ndarray:
            v, du, dv, duu, duv, dvv = (np.asarray(x, float) for x in
                                        (v, du, dv, duu, duv, dvv))
        self.v = v
        self.du = du
        self.dv = dv
        self.duu = duu
        self.duv = duv
        self.dvv = dvv

    @property
    def _base(self):
        return self.v

    @staticmethod
    def constant(x):
        return Jet2(float(x))

    @staticmethod
    def coordinate_u(u):
        """The jet of u at the points u; one point is a batch of one."""
        return Jet2(np.atleast_1d(np.asarray(u, float)), 1.0, 0.0)

    @staticmethod
    def coordinate_v(v):
        """The jet of v at the points v; one point is a batch of one."""
        return Jet2(np.atleast_1d(np.asarray(v, float)), 0.0, 1.0)

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            # a number, or an array of factors that broadcasts against
            # every slot: each slot times it
            return Jet2(*(x * other for x in self.slots))
        a, b = self, other
        return Jet2(
            a.v * b.v,
            a.du * b.v + a.v * b.du,
            a.dv * b.v + a.v * b.dv,
            a.duu * b.v + 2 * a.du * b.du + a.v * b.duu,
            a.duv * b.v + a.du * b.dv + a.dv * b.du + a.v * b.duv,
            a.dvv * b.v + 2 * a.dv * b.dv + a.v * b.dvv,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        if not isinstance(other, Jet2):
            return NotImplemented
        b = other
        bv = _checked(abs(b.v) <= DIV_FLOOR, b.v, _division_floor)
        q0 = self.v / bv
        q_du = (self.du - q0 * b.du) / bv
        q_dv = (self.dv - q0 * b.dv) / bv
        q_duu = (self.duu - q0 * b.duu - 2 * q_du * b.du) / bv
        q_duv = (self.duv - q0 * b.duv - q_du * b.dv - q_dv * b.du) / bv
        q_dvv = (self.dvv - q0 * b.dvv - 2 * q_dv * b.dv) / bv
        return Jet2(q0, q_du, q_dv, q_duu, q_duv, q_dvv)

    def _compose(self, d0, d1, d2, d3):
        g = self
        return Jet2(
            d0,
            d1 * g.du,
            d1 * g.dv,
            d2 * g.du * g.du + d1 * g.duu,
            d2 * g.du * g.dv + d1 * g.duv,
            d2 * g.dv * g.dv + d1 * g.dvv,
        )

    @staticmethod
    def _check(fn, v):
        if fn == "log":
            return _checked(v <= DIV_FLOOR, v, lambda b: BranchCutError(
                f"log of non-positive jet value {b:.3e}"))
        return _checked(v <= DIV_FLOOR, v, lambda b: DegenerateJetError(
            f"sqrt of jet at floor: value = {b:.3e}"))

    # a vector jet: every slot a (dim, n) array, one row per component; a
    # vector times a scalar jet, in that order, rounds as each component
    # times it, and times a (dim, 1) array each component takes its factor;
    # its inner products are geometry.Ambient.dot's

    @staticmethod
    def stack(components):
        """The vector jet of the components, Jet2 or numbers; a constant
        component broadcasts over the batch, and a slot constant in every
        component is (dim, 1)."""
        comps = [c if isinstance(c, Jet2) else Jet2.constant(c)
                 for c in components]
        out = [np.empty((len(xs), max(getattr(x, "size", 1) for x in xs)))
               for xs in zip(*(c.slots for c in comps))]
        for i, c in enumerate(comps):
            for slot, x in zip(out, c.slots):
                slot[i] = x
        return Jet2(*out)

    @staticmethod
    def join(jets):
        """The vector jet over the batches of jets in turn, each slot
        concatenated along the points."""
        return Jet2(*(np.concatenate(xs, axis=1)
                      for xs in zip(*(j.slots for j in jets))))

    def __getitem__(self, i):
        """Component i of a vector jet."""
        return Jet2(*(x[i] for x in self.slots))

    def rows(self, index):
        """The vector jet at the rows of its batch an index array or slice
        picks."""
        n = max(x.shape[1] for x in self.slots)
        return Jet2(*(np.broadcast_to(x, (len(x), n))[:, index]
                      for x in self.slots))


def _re_part(w0, w1, w2):
    """Jet2 of Re f, where f, f', f'' = w0, w1, w2 (Cauchy-Riemann)."""
    return Jet2(w0.real, w1.real, -w1.imag, w2.real, -w2.imag, -w2.real)


def _im_part(w0, w1, w2):
    """Jet2 of Im f, where f, f', f'' = w0, w1, w2."""
    return Jet2(w0.imag, w1.imag, w1.real, w2.imag, w2.real, -w2.imag)


def split_re(cj):
    """Jet2 of Re f for a holomorphic jet, via the Cauchy-Riemann relations."""
    return _re_part(cj.c0, cj.c1, cj.c2)


def split_im(cj):
    """Jet2 of Im f for a holomorphic jet."""
    return _im_part(cj.c0, cj.c1, cj.c2)


def seed_surface(jets):
    """Split component jets of a holomorphic curve into the conjugate pair of
    real Jet2 bundles (g, h) = (Re, Im)."""
    return (Jet2.stack([split_re(j) for j in jets]),
            Jet2.stack([split_im(j) for j in jets]))


def seed_first_derivative_fields(jets):
    """Full Jet2 data of the fields g_u and g_v.

    Uses the third holomorphic order: g_u = Re F' is split from the window
    (c1, c2, c3) of F's jet, and g_v from i times it since dF/dv = iF'.
    """
    g_u = Jet2.stack([_re_part(j.c1, j.c2, j.c3) for j in jets])
    g_v = Jet2.stack([_re_part(j.c1 * 1j, j.c2 * 1j, j.c3 * 1j)
                      for j in jets])
    return g_u, g_v


def graph_surface(jets):
    """Vector jet of the real surface under a C^2 graph curve
    (w1(z), w2(z)): components (Re w1, Im w1, Re w2, Im w2)."""
    return Jet2.stack([f(j) for j in jets[:2] for f in (split_re, split_im)])


def fd_crosscheck(surface, points, step=1e-4):
    """Compare jet-carried first and second partials against fourth-order
    central differences on a 5x5 stencil around each point (u, v).

    surface: callable (u, v) -> a vector or scalar Jet2 over arrays of
    parameters, called once on every stencil point of every center.  Returns
    a dict with the largest absolute deviation per derivative order and
    overall, over all the points.  Any domain failure raised by the surface
    propagates.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    u0, v0 = np.asarray(points, dtype=float).reshape(-1, 2).T
    h = float(step)
    stencil = [(0, 0)] + [(i, j) for i in (-2, -1, 0, 1, 2)
                          for j in (-2, -1, 0, 1, 2)
                          if (i or j) and (i == 0 or j == 0 or abs(i) == abs(j))]
    di, dj = np.array(stencil).T[..., None]
    out = surface((u0 + di * h).ravel(), (v0 + dj * h).ravel())
    # every slot as (stencil point, center, component); a scalar jet is a
    # vector of one component, and a constant slot broadcasts
    value, *jet = (np.broadcast_to(x, np.shape(out.v)).T
                   .reshape(len(stencil), u0.size, -1) for x in out.slots)
    F = dict(zip(stencil, value))
    du, dv, duu, duv, dvv = (x[0] for x in jet)

    fd_du = (-F[2, 0] + 8 * F[1, 0] - 8 * F[-1, 0] + F[-2, 0]) / (12 * h)
    fd_dv = (-F[0, 2] + 8 * F[0, 1] - 8 * F[0, -1] + F[0, -2]) / (12 * h)
    fd_duu = (-F[2, 0] + 16 * F[1, 0] - 30 * F[0, 0]
              + 16 * F[-1, 0] - F[-2, 0]) / (12 * h * h)
    fd_dvv = (-F[0, 2] + 16 * F[0, 1] - 30 * F[0, 0]
              + 16 * F[0, -1] - F[0, -2]) / (12 * h * h)
    cross_h = (F[1, 1] - F[1, -1] - F[-1, 1] + F[-1, -1]) / (4 * h * h)
    cross_2h = (F[2, 2] - F[2, -2] - F[-2, 2] + F[-2, -2]) / (16 * h * h)
    fd_duv = (4 * cross_h - cross_2h) / 3

    first = max(np.max(np.abs(fd_du - du)), np.max(np.abs(fd_dv - dv)))
    second = max(np.max(np.abs(fd_duu - duu)), np.max(np.abs(fd_duv - duv)),
                 np.max(np.abs(fd_dvv - dvv)))
    return {"first": float(first), "second": float(second),
            "max": float(max(first, second))}
