"""The numpy and libm behaviour that pinned output digests rest on.

Some sums and powers in the package are written to round as a numpy or C
library call rounded when the digests of tests/test_outputs.py were
recorded (x86-64, numpy 2.4.6).  Each test here pins one such behaviour and
names the digest it protects, so a numpy or libm upgrade that changes it
fails here, at its cause, and not as an unexplained digest mismatch."""

import math
import warnings

import numpy as np
import pytest

from superconf.geometry import _pypow


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_row_of_four_complex_numbers_sums_in_pairs():
    """minimal.certify sums the isotropy terms as (s0 + s1) + (s2 + s3),
    which is how np.sum adds a contiguous row of four complex numbers;
    protects the `certify` and `selftest` report digests."""
    rng = np.random.default_rng(19)
    z = ((rng.standard_normal((4096, 4)) + 1j * rng.standard_normal(
        (4096, 4))) * 10.0 ** rng.integers(-8, 9, (4096, 4)))
    pairs = (z[:, 0] + z[:, 1]) + (z[:, 2] + z[:, 3])
    in_order = ((z[:, 0] + z[:, 1]) + z[:, 2]) + z[:, 3]
    assert same_bits(np.sum(z, axis=1), pairs)
    assert all(same_bits(np.sum(z[k]), pairs[k]) for k in range(64))
    # the two orders round apart, so the pin tells them apart
    assert not same_bits(pairs, in_order)


def test_mean_over_point_rows_sums_in_order():
    """moebius.degenerate_collapse_check's center is np.add.accumulate
    over the points divided by their count, which is np.mean over a
    C-contiguous (points, 4) array; protects the center that report holds
    (tests/test_moebius.py reads it) and criterion 7 of the `selftest`
    digest, which builds it."""
    rng = np.random.default_rng(20)
    apart = 0
    for n in (25, 36, 257) * 20:
        rows = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(
            -8, 9, (n, 4))
        accumulated = np.add.accumulate(rows.T, axis=1)[:, -1] / n
        assert same_bits(np.mean(rows, axis=0), accumulated)
        pairwise = np.add.reduce(np.ascontiguousarray(rows.T), axis=1) / n
        apart += not same_bits(pairwise, accumulated)
    # numpy's pairwise sum along a contiguous axis rounds apart, so the pin
    # tells the orders apart
    assert apart > 0


@pytest.mark.parametrize("n", [1, 7, 4096])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_component_sum_is_the_left_fold(d, n):
    """np.add.reduce(p, 0, initial=0.0) over a C-contiguous (d, n) array of
    products is Python's left fold 0.0 + p[0] + p[1] + ... per column, bit
    for bit: geometry.Ambient.dot and Jet2.dot, the package's one inner
    product, and so every `construct`, `verify`, `dual`, `quadric`,
    `project`, `certify` and `selftest` digest rest on it.  A row of -0.0
    products sums to +0.0."""
    rng = np.random.default_rng(30 + d + n)
    p = rng.standard_normal((d, n)) * 10.0 ** rng.integers(-30, 31, (d, n))
    p[:, ::5] = -0.0
    assert p.flags.c_contiguous
    got = np.add.reduce(p, 0, initial=0.0)
    fold = [0.0] * n
    for row in p.tolist():
        fold = [total + x for total, x in zip(fold, row)]
    assert same_bits(got, np.array(fold))
    assert not np.signbit(got[::5]).any()
    if d > 2 and n > 1000:
        # the pin tells the orders apart: the reverse fold rounds elsewhere
        reverse = [0.0] * n
        for row in p.tolist()[::-1]:
            reverse = [total + x for total, x in zip(reverse, row)]
        assert not same_bits(got, np.array(reverse))


def test_float_power_is_python_pow():
    """geometry._pypow is np.float_power, which must round as Python's
    x ** n (C pow) for n = 2, 3, 4, special values included, and leak no
    RuntimeWarning where the power overflows; the rank floors, the ellipse
    record's Wintgen defect and the summaries read it, so it protects every
    `construct` digest and the `certify`, `verify` and `selftest` ones."""
    rng = np.random.default_rng(21)
    # every binade, subnormals included
    x = np.ldexp(rng.uniform(-1.0, 1.0, 20000),
                 rng.integers(-1074, 1024, 20000))
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               1e-160, 1e200, -1e200, 1.7976931348623157e308]
    x = np.concatenate((x, special))

    def python_pow(t, n):
        try:
            return t ** n
        except OverflowError:          # where C pow gives +-inf
            return math.copysign(math.inf, t) if n % 2 else math.inf

    for n in (2, 3, 4):
        want = np.array([python_pow(t, n) for t in x.tolist()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _pypow(x, n)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert same_bits(got[~nan], want[~nan]), n
