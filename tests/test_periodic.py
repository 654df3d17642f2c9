import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab.periodic import (
    MAX_DERIV_ORDER,
    PeriodicFn,
    _deriv_coeffs,
    cohomological_phi,
    eval as fn_eval,
    eval_deriv,
    sup_norm,
)

TWO_PI = 2.0 * math.pi
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)
ORDERS = st.integers(0, MAX_DERIV_ORDER)
POINTS = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8)
#: Coefficients, exactly 0 about half the time.
COEFS = st.one_of(st.just(0.0), st.floats(-4.0, 4.0, allow_subnormal=False))


def test_zero_function():
    assert fn_eval(PeriodicFn.zero(), 0.37) == 0.0


def test_cos_values():
    f = PeriodicFn.cosine()
    assert fn_eval(f, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert fn_eval(f, 0.25) == pytest.approx(0.0, abs=1e-12)


def test_periodicity_is_structural():
    f = PeriodicFn.from_triples([(1, 0.7, -0.2), (3, 0.1, 0.4)])
    rng = np.random.default_rng(0)
    for x in rng.random(50):
        assert fn_eval(f, x + 1.0) == pytest.approx(fn_eval(f, x), abs=1e-12)
        assert fn_eval(f, x - 3.0) == pytest.approx(fn_eval(f, x), abs=1e-12)


def test_first_derivative_of_cos():
    f = PeriodicFn.cosine()
    assert eval_deriv(f, 0.0, 1) == pytest.approx(0.0, abs=1e-12)
    assert eval_deriv(f, 0.25, 1) == pytest.approx(-TWO_PI, abs=1e-9)


def test_second_derivative_of_sin_matches_closed_form():
    f = PeriodicFn.sine()
    rng = np.random.default_rng(1)
    for x in rng.random(10):
        want = -(TWO_PI**2) * math.sin(TWO_PI * x)
        assert eval_deriv(f, x, 2) == pytest.approx(want, abs=1e-9)


def test_derivative_against_finite_differences():
    f = PeriodicFn.from_triples([(1, 1.0, 0.0), (2, -0.3, 0.5)])
    rng = np.random.default_rng(2)
    h = 1e-6
    for k in (1, 2, 3):
        for x in rng.random(8):
            fd = (eval_deriv(f, x + h, k - 1) - eval_deriv(f, x - h, k - 1)) / (2 * h)
            val = eval_deriv(f, x, k)
            assert val == pytest.approx(fd, rel=1e-5, abs=1e-4)


def test_derivative_bounded_by_sup_norm():
    f = PeriodicFn.from_triples([(1, 0.9, 0.1), (4, 0.2, -0.7)])
    rng = np.random.default_rng(3)
    for k in range(5):
        bound = sup_norm(f, k)
        for x in rng.random(20):
            assert abs(eval_deriv(f, x, k)) <= bound + 1e-9


def test_order_above_maximum_rejected():
    with pytest.raises(ValueError):
        eval_deriv(PeriodicFn.cosine(), 0.1, MAX_DERIV_ORDER + 1)


def test_sup_norm_examples():
    assert sup_norm(PeriodicFn.cosine(), 0) == pytest.approx(1.0)
    assert sup_norm(PeriodicFn.cosine(), 1) == pytest.approx(TWO_PI)
    f = PeriodicFn.from_triples([(1, 3.0, 0.0), (2, 0.0, 4.0)])
    assert sup_norm(f, 0) == pytest.approx(7.0)


def test_cohomological_phi_zero_input():
    assert cohomological_phi(PeriodicFn.zero(), 2, 0.4).to_triples() == []


def test_cohomological_phi_cosine_coefficients():
    phi = cohomological_phi(PeriodicFn.cosine(), 2, 0.4)
    # cos(4 pi x) - 0.4 cos(2 pi x)
    assert phi.a[2] == pytest.approx(1.0)
    assert phi.a[1] == pytest.approx(-0.4)
    assert all(v == 0.0 for v in phi.b)
    rng = np.random.default_rng(4)
    for x in rng.random(20):
        want = math.cos(2 * TWO_PI * x) - 0.4 * math.cos(TWO_PI * x)
        assert fn_eval(phi, x) == pytest.approx(want, abs=1e-12)


def test_triples_round_trip():
    f = PeriodicFn.from_triples([(0, 0.5, 0.0), (2, -1.0, 2.0)])
    assert PeriodicFn.from_triples(f.to_triples()) == f


def test_invalid_coefficients_rejected():
    with pytest.raises(ValueError):
        PeriodicFn((float("nan"),), (0.0,))


@st.composite
def trig_polys(draw):
    degree = draw(st.integers(0, 8))
    cos = draw(st.lists(COEFS, min_size=degree + 1, max_size=degree + 1))
    sin = [0.0] + draw(st.lists(COEFS, min_size=degree, max_size=degree))
    return PeriodicFn(tuple(cos), tuple(sin))


def mp_deriv(f: PeriodicFn, x: float, order: int):
    """f^(order)(x) in 50-digit mpmath at the exact float x and coefficients."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for k, (ak, bk) in enumerate(zip(f.a, f.b)):
            arg = 2 * mpmath.pi * k * mpmath.mpf(x) + order * mpmath.pi / 2
            total += (2 * mpmath.pi * k) ** order * (ak * mpmath.cos(arg) + bk * mpmath.sin(arg))
        return total


def rounding_bound(f: PeriodicFn, order: int) -> float:
    """Bound on |eval_deriv - exact| for x in [0, 1), counted before running.

    With u = 2^-53 and S = sup_norm(f, order), each term c_k trig(ang) errs by
    at most |c_k| u times: 2 order + 3 for its coefficient ((2 pi k)^order from
    the rounded 2 pi, a product, a power within 1 ulp, times a_k); 6 pi k for
    the angle 2 pi (x k), three roundings of a value below 2 pi k; 4 for the
    cos or sin (4 ulps of a value <= 1); 1 for the product; and 2 K for the sums of at most 2 K + 1 terms.  Summed
    over k <= K that is (6 pi K + 2 K + 2 order + 8) u S; the factor 1.01
    covers second-order terms and the rounding of S itself.
    """
    K = f.degree
    return 1.01 * (6 * math.pi * K + 2 * K + 2 * order + 8) * 2.0**-53 * sup_norm(f, order)


@SETTINGS
@given(trig_polys(), ORDERS, POINTS)
def test_eval_deriv_matches_mpmath(f, order, xs):
    bound = rounding_bound(f, order)
    got = eval_deriv(f, np.array(xs), order)
    for x, g in zip(xs, got):
        assert abs(mpmath.mpf(g) - mp_deriv(f, x, order)) <= bound
        assert abs(mpmath.mpf(eval_deriv(f, x, order)) - mp_deriv(f, x, order)) <= bound


def test_single_harmonic_is_one_transcendental():
    """A single harmonic's derivative is its one rotated coefficient times one
    cos or sin, rounded once: the order-th derivative of a cos (a sin) term is a
    cos (a sin) term at even order and a sin (a cos) term at odd order."""
    xs = np.concatenate([np.random.default_rng(0).random(257), np.arange(8) / 8, [-2.75, 7.1]])
    frac = xs - np.floor(xs)
    for kind in ("cos", "sin"):
        for k in range(1, 9):
            ang = TWO_PI * (frac * k)
            for amplitude in (1.0, -1.0, 0.37, -2.5e3):
                f = getattr(PeriodicFn, "cosine" if kind == "cos" else "sine")(amplitude, k)
                for order in range(MAX_DERIV_ORDER + 1):
                    c_cos, c_sin = _deriv_coeffs(f, order)
                    as_cos = (kind == "cos") == (order % 2 == 0)
                    coef, other = (c_cos, c_sin) if as_cos else (c_sin, c_cos)
                    assert not other.any() and np.count_nonzero(coef) == 1
                    trig = np.cos if as_cos else np.sin
                    assert np.array_equal(eval_deriv(f, xs, order), coef[k] * trig(ang))
                    assert eval_deriv(f, float(xs[3]), order) == coef[k] * trig(ang)[3]


# ------------------------------------------- oracle: the plain-expression sum

def reference_eval_deriv(f: PeriodicFn, x, order: int):
    """eval_deriv as first written: every product and sum a fresh array, in
    the order the module docstring gives."""
    xa = np.asarray(x, dtype=float)
    frac = xa - np.floor(xa)
    a, b = _deriv_coeffs(f, order)
    cos_sum = a[0] if a[0] != 0.0 else None
    sin_sum = None
    for k in range(1, len(a)):
        if a[k] == 0.0 and b[k] == 0.0:
            continue
        ang = TWO_PI * (frac * k)
        if a[k] != 0.0:
            cos_sum = a[k] * np.cos(ang) if cos_sum is None else cos_sum + a[k] * np.cos(ang)
        if b[k] != 0.0:
            sin_sum = b[k] * np.sin(ang) if sin_sum is None else sin_sum + b[k] * np.sin(ang)
    out = cos_sum if sin_sum is None else sin_sum if cos_sum is None else cos_sum + sin_sum
    if out is None:
        out = 0.0
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return np.full(frac.shape, out) if np.ndim(out) == 0 else out


#: One harmonic's (a_k, b_k): cosine only, sine only, both, or zero.
HARMONIC = st.one_of(
    st.tuples(COEFS, st.just(0.0)),
    st.tuples(st.just(0.0), COEFS),
    st.tuples(COEFS, COEFS),
    st.just((0.0, 0.0)),
)
#: Points below 0, in [0, 1) and above 1.
WIDE = st.floats(-3.0, 4.0, allow_subnormal=False)
#: Seeded points in [-3, 4) that fill every array input after its drawn ones.
SEEDED = np.random.default_rng(9).uniform(-3.0, 4.0, 48)


@st.composite
def shaped_points(draw):
    """A Python float, a 0-d array, or a 1-d or 2-d array of 48 points: up
    to 8 drawn points, then SEEDED."""
    kind = draw(st.sampled_from(["float", "0-d", "1-d", "2-d"]))
    if kind == "float":
        return draw(WIDE)
    if kind == "0-d":
        return np.array(draw(WIDE))
    pts = np.concatenate([draw(st.lists(WIDE, max_size=8)), SEEDED])[:48]
    return pts if kind == "1-d" else pts.reshape(draw(st.sampled_from([2, 3, 4, 6])), -1)


@st.composite
def polys_to_degree_4(draw):
    """A trig polynomial of degree 1 to 4 whose harmonics are each cosine
    only, sine only, both or zero."""
    harmonics = draw(st.lists(HARMONIC, min_size=draw(st.integers(1, 4)), max_size=4))
    return PeriodicFn((draw(COEFS),) + tuple(a for a, _ in harmonics), (0.0,) + tuple(b for _, b in harmonics))


@SETTINGS
@given(polys_to_degree_4(), shaped_points())
def test_eval_deriv_matches_the_plain_expression_bit_for_bit(f, x):
    before = np.array(x, copy=True)
    for order in range(MAX_DERIV_ORDER + 1):
        got, want = eval_deriv(f, x, order), reference_eval_deriv(f, x, order)
        if np.ndim(x) == 0:
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        else:
            assert isinstance(got, np.ndarray) and got.shape == np.shape(x)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, x)
        assert np.array(x).tobytes() == before.tobytes()  # the input is never written
