import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootchain import functionals as fn

ALL_BUILTINS = [
    fn.linear(np.array([1.0, -0.5, 2.0])),
    fn.power(np.array([0.3, 1.0, -0.2]), 3),
    fn.quadratic_form(),
    fn.quadratic_form(np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 3.0]])),
    fn.exp_linear(np.array([0.4, -0.1, 0.2])),
    fn.radial("exp_neg"),
    fn.radial("log1p"),
]


def grad_check(f: fn.Functional, theta, h: float = 1e-5) -> float:
    """Max relative error of the analytic gradient against central differences.

    Relative error per coordinate is |fd - analytic| / (1 + |analytic|); the
    1 in the denominator avoids blowup near gradient zeros.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    t = np.asarray(theta, dtype=float)
    g = fn.grad(f, t)
    worst = 0.0
    for i in range(t.shape[0]):
        tp = t.copy()
        tm = t.copy()
        tp[i] += h
        tm[i] -= h
        fd = (fn.value(f, tp) - fn.value(f, tm)) / (2.0 * h)
        worst = max(worst, abs(fd - g[i]) / (1.0 + abs(g[i])))
    return worst


def test_value_examples():
    assert fn.value(fn.linear(np.array([1.0, 0.0])), np.array([3.0, 0.0])) == 3.0
    f0 = fn.exp_linear(np.zeros(2))
    assert fn.value(f0, np.array([5.0, -7.0])) == 1.0
    f3 = fn.power(np.array([1.0, 1.0]), 3)
    assert fn.value(f3, np.array([1.0, 2.0])) == pytest.approx(27.0)


def test_grad_examples():
    u = np.array([0.7, -1.2])
    theta = np.array([3.0, 4.0])
    assert np.array_equal(fn.grad(fn.linear(u), theta), u)
    got = fn.grad(fn.quadratic_form(np.eye(2)), np.array([1.0, 2.0]))
    assert np.allclose(got, [2.0, 4.0])
    got = fn.grad(fn.power(np.array([1.0, 0.0]), 2), np.array([3.0, 5.0]))
    assert np.allclose(got, [6.0, 0.0])


def test_power_one_is_linear():
    # p = 1 is the smallest exponent power accepts, and it is <u, theta> itself
    u = np.array([0.7, -1.2, 0.4])
    theta = np.array([[3.0, 4.0, -1.5], [0.2, -0.3, 2.5]])
    assert np.array_equal(fn.value(fn.power(u, 1), theta), fn.value(fn.linear(u), theta))
    assert np.array_equal(fn.grad(fn.power(u, 1), theta), fn.grad(fn.linear(u), theta))


def test_grad_check_bounds():
    rng = np.random.default_rng(3)
    theta = rng.standard_normal(3)
    assert grad_check(fn.linear(np.array([1.0, 2.0, 3.0])), theta) <= 1e-9
    assert grad_check(fn.exp_linear(np.array([1.0, 0.0, 0.0])), np.zeros(3)) <= 1e-7
    assert grad_check(fn.quadratic_form(), theta) <= 1e-8


@pytest.mark.parametrize("f", ALL_BUILTINS)
def test_grad_check_under_1e6_on_ball(f):
    rng = np.random.default_rng(17)
    for _ in range(100):
        theta = rng.standard_normal(3)
        theta *= rng.uniform(0, 10) / max(np.linalg.norm(theta), 1e-12)
        assert grad_check(f, theta, h=1e-5) <= 1e-6


def test_batched_evaluation_matches_per_row():
    rng = np.random.default_rng(5)
    block = rng.standard_normal((8, 3))
    for f in ALL_BUILTINS:
        vals = fn.value(f, block)
        grads = fn.grad(f, block)
        assert vals.shape == (8,)
        assert grads.shape == (8, 3)
        for i in range(8):
            assert vals[i] == pytest.approx(fn.value(f, block[i]), rel=1e-14, abs=1e-14)
            assert np.allclose(grads[i], fn.grad(f, block[i]), rtol=1e-14, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
def test_values_and_grads_finite(coords):
    theta = np.asarray(coords)
    d = theta.size
    u = np.linspace(0.1, 1.0, d)
    for f in (fn.linear(u), fn.power(u, 2), fn.quadratic_form(), fn.exp_linear(u / 4),
              fn.radial("exp_neg"), fn.radial("log1p")):
        assert np.isfinite(fn.value(f, theta))
        assert np.all(np.isfinite(fn.grad(f, theta)))


def test_constructor_validation():
    # a bool is an int to isinstance, but True is no exponent
    for p in (0, 2.0, True, np.int64(0), np.bool_(True), np.float64(2.0)):
        with pytest.raises(ValueError):
            fn.power(np.ones(2), p)
    # a numpy integer is an exponent, by the rule experiments.as_int applies to integer fields
    p = fn.power(np.ones(2), np.int64(2)).p
    assert p == 2 and type(p) is int
    with pytest.raises(ValueError):
        fn.radial("nope")
    with pytest.raises(ValueError):
        fn.quadratic_form(np.ones((2, 3)))


def test_grad_check_rejects_bad_step():
    with pytest.raises(ValueError):
        grad_check(fn.quadratic_form(), np.ones(2), h=0.0)



@pytest.mark.parametrize("d", [*range(1, 13), 17, 63, 178, 503])
def test_row_dot_is_numpy_row_sum_bit_for_bit(d):
    # column adds below 8 coordinates with the bits of np.sum(a * b,
    # axis=-1), and from 8 up one np.einsum: a numpy whose summation order
    # moved fails here rather than in the digests of the outputs. Either
    # way a NaN or an infinite product and an all-zero row sum as IEEE says
    rng = np.random.default_rng(500 + d)
    for shape in ((d,), (5, d), (4, 7, d)):
        for trial in range(24):
            a, b = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150, shape) for _ in range(2))
            flat = a.reshape(-1)
            flat[rng.integers(0, flat.size)] = -0.0
            if trial % 3 == 1:
                flat[rng.integers(0, flat.size)] = np.inf
            if trial % 3 == 2:
                flat[rng.integers(0, flat.size)] = np.nan
            if trial % 4 == 0:  # a row of -0.0 products sums to +0.0
                a.reshape(-1, d)[-1] = -0.0
                b.reshape(-1, d)[-1] = np.abs(b.reshape(-1, d)[-1])
            with np.errstate(invalid="ignore", over="ignore"):
                want = np.asarray(np.sum(a * b, axis=-1) if d < 8 else np.einsum("...i,...i->...", a, b))
                got = np.asarray(fn._row_dot(a, b))
                rows = (a * b).reshape(-1, d)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            got = got.reshape(-1)
            assert np.all(np.isnan(got) == np.isnan(rows).any(axis=-1))
            infinite = ~np.isnan(got) & np.isinf(rows).any(axis=-1)
            assert np.array_equal(got[infinite], rows[infinite].sum(axis=-1))
            zero = np.all(rows == 0.0, axis=-1)
            assert np.array_equal(got[zero].view(np.int64), np.zeros(zero.sum()).view(np.int64))
