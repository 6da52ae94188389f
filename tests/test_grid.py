import numpy as np
import pytest

from viscostring.errors import GridMismatchError
from viscostring.grid import (
    Sampled1D,
    Sampled2D,
    TimeGrid,
    causal_convolve,
    centered_difference,
    cumulative_integral,
    lower_toeplitz_solve,
)

from conftest import triangle_quadrature


def _lower_toeplitz(col: np.ndarray) -> np.ndarray:
    i = np.arange(len(col))
    d = i[:, None] - i[None, :]
    return np.where(d >= 0, col[np.maximum(d, 0)], 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 31, 64, 100, 257])
def test_lower_toeplitz_solve_matches_dense_solve(rng, n):
    col = rng.standard_normal(n) / n
    col[0] = 1.0 + rng.random()
    rhs = rng.standard_normal((n, 4))
    x = lower_toeplitz_solve(col, rhs)
    ref = np.linalg.solve(_lower_toeplitz(col), rhs)
    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_lower_toeplitz_solve_columns_are_the_one_column_solves(rng):
    n = 150
    col = np.exp(-np.arange(n) / 30.0) * rng.standard_normal(n)
    col[0] = 2.0
    rhs = rng.standard_normal((n, 5))
    x = lower_toeplitz_solve(col, rhs)
    for j in range(rhs.shape[1]):
        assert np.array_equal(x[:, j], lower_toeplitz_solve(col, rhs[:, j])), j
    assert np.array_equal(lower_toeplitz_solve(col, rhs[:, :1]), x[:, :1])
    with pytest.raises(GridMismatchError):
        lower_toeplitz_solve(col, rhs[1:])


def test_time_grid_basics():
    g = TimeGrid(0.25, 4)
    assert g.t_max == 1.0
    assert np.allclose(g.nodes(), [0, 0.25, 0.5, 0.75, 1.0])
    assert g.index_of(0.75) == 3
    with pytest.raises(GridMismatchError):
        g.index_of(0.3)
    with pytest.raises(GridMismatchError):
        TimeGrid(-0.1, 4)
    with pytest.raises(GridMismatchError):
        TimeGrid(0.1, 0)


def test_sampled1d_shape_validation():
    g = TimeGrid(0.25, 4)
    with pytest.raises(GridMismatchError):
        Sampled1D(g, np.ones(4))
    s = Sampled1D(g, np.ones(5))
    with pytest.raises(ValueError):
        s.values[0] = 2.0  # frozen


def test_convolve_unit_kernels_exact():
    # k = h = 1 on [0,1], dt = 0.25: the running integral of 1 is t exactly
    g = TimeGrid(0.25, 4)
    one = Sampled1D(g, np.ones(5))
    out = causal_convolve(one, one)
    assert np.allclose(out.values, g.nodes(), atol=1e-15)


def test_convolve_zero_kernel():
    g = TimeGrid(0.1, 30)
    z = Sampled1D(g, np.zeros(31))
    h = Sampled1D.from_callable(g, lambda t: np.cos(t))
    assert np.all(causal_convolve(z, h).values == 0.0)


def test_convolve_linear_kernel_closed_form():
    # k(t) = t, h = 1: int_0^t (t-s) ds = t^2/2; trapezoid is second order
    g = TimeGrid(1e-3, 1000)
    k = Sampled1D.from_callable(g, lambda t: t)
    h = Sampled1D(g, np.ones(g.n + 1))
    err = np.max(np.abs(causal_convolve(k, h).values - g.nodes() ** 2 / 2))
    assert err <= 1e-6


def test_convolve_grid_mismatch():
    a = Sampled1D(TimeGrid(0.1, 10), np.ones(11))
    b = Sampled1D(TimeGrid(0.1, 11), np.ones(12))
    with pytest.raises(GridMismatchError):
        causal_convolve(a, b)


def test_convolve_bilinear_and_commutative(rng):
    g = TimeGrid(0.01, 150)
    k = Sampled1D(g, rng.standard_normal(g.n + 1))
    h1 = Sampled1D(g, rng.standard_normal(g.n + 1))
    h2 = Sampled1D(g, rng.standard_normal(g.n + 1))
    combo = causal_convolve(k, Sampled1D(g, 2.5 * h1.values - 1.5 * h2.values)).values
    parts = 2.5 * causal_convolve(k, h1).values - 1.5 * causal_convolve(k, h2).values
    scale = np.max(np.abs(parts)) + 1e-30
    assert np.max(np.abs(combo - parts)) <= 1e-12 * scale
    sym = causal_convolve(k, h1).values - causal_convolve(h1, k).values
    assert np.max(np.abs(sym)) <= 1e-12 * scale


def test_cumulative_integral_cases():
    g = TimeGrid(1e-3, 1500)
    one = Sampled1D(g, np.ones(g.n + 1))
    assert np.allclose(cumulative_integral(one).values, g.nodes(), atol=1e-12)
    e = Sampled1D.from_callable(g, lambda t: np.exp(-t))
    err = np.max(np.abs(cumulative_integral(e).values - (1 - np.exp(-g.nodes()))))
    assert err <= 1e-7
    z = Sampled1D(g, np.zeros(g.n + 1))
    assert np.all(cumulative_integral(z).values == 0.0)


def test_cumulative_integral_monotone(rng):
    g = TimeGrid(0.05, 100)
    h = Sampled1D(g, np.abs(rng.standard_normal(g.n + 1)))
    assert np.all(np.diff(cumulative_integral(h).values) >= 0.0)


def test_centered_difference_quadratic_exact():
    g = TimeGrid(0.1, 20)
    v = 3.0 * g.nodes() ** 2 - 2.0 * g.nodes() + 1.0
    d = centered_difference(v, g.dt)
    assert np.allclose(d, 6.0 * g.nodes() - 2.0, atol=1e-12)


def _square_grids(m, T):
    dt = T / m
    return TimeGrid(dt, 2 * m), TimeGrid(dt, m)


def test_triangle_zero_and_constant():
    gs, gt = _square_grids(40, 0.5)
    zero = Sampled2D(gs, gt, np.zeros((gs.n + 1, gt.n + 1)))
    assert triangle_quadrature(zero, 40, 40) == 0.0
    one = Sampled2D(gs, gt, np.ones((gs.n + 1, gt.n + 1)))
    # area of D(T,T) is T^2, the operator returns half of the integral
    T = 0.5
    assert abs(triangle_quadrature(one, 40, 40) - T * T / 2) <= 1e-13


def brute_force_half_integral(fn, s, t, cells):
    """Midpoint Riemann sum of (1/2) * int_{D(s,t)} fn(xi, tau)."""
    dtau = t / cells
    total = 0.0
    for j in range(cells):
        tau = (j + 0.5) * dtau
        lo, hi = abs(s - t + tau), s + t - tau
        if hi <= lo:
            continue
        nxi = max(1, int(np.ceil((hi - lo) / dtau)))
        dxi = (hi - lo) / nxi
        xi = lo + (np.arange(nxi) + 0.5) * dxi
        total += np.sum(fn(xi, tau)) * dxi * dtau
    return 0.5 * total


def test_triangle_linear_integrand_vs_bruteforce():
    m, T = 40, 0.5
    gs, gt = _square_grids(m, T)
    vals = np.tile(gs.nodes()[:, None], (1, gt.n + 1))
    F = Sampled2D(gs, gt, vals)
    got = triangle_quadrature(F, m, m)
    # closed form: int_0^T int_tau^{2T-tau} xi dxi dtau = T^3, halved
    assert abs(got - T**3 / 2) <= 1e-12
    brute = brute_force_half_integral(lambda xi, tau: xi, T, T, 10 * m)
    assert abs(got - brute) <= 5e-4 * abs(got)


def test_triangle_smooth_integrand_vs_bruteforce():
    m, T = 32, 0.4
    gs, gt = _square_grids(m, T)
    fn = lambda xi, tau: np.sin(3 * xi) * np.cos(2 * tau)
    S, Tt = np.meshgrid(gs.nodes(), gt.nodes(), indexing="ij")
    F = Sampled2D(gs, gt, fn(S, Tt))
    for (i, k) in [(m, m), (m // 2, m // 2), (2 * m - 8, 8), (5, 17)]:
        got = triangle_quadrature(F, i, k)
        brute = brute_force_half_integral(fn, gs.nodes()[i], gt.nodes()[k], 10 * m)
        assert abs(got - brute) <= 2e-4 * max(abs(brute), 1e-6)


def test_sampled2d_requires_shared_step():
    with pytest.raises(GridMismatchError):
        Sampled2D(TimeGrid(0.1, 4), TimeGrid(0.2, 4), np.zeros((5, 5)))


def test_sampled2d_copies_what_it_does_not_own():
    g = TimeGrid(0.25, 4)
    src = np.arange(25.0).reshape(5, 5)
    F = Sampled2D(g, g, src)
    src[2, 3] = -1.0  # a writable input is copied: later writes do not reach values
    assert F.values[2, 3] == 13.0 and not F.values.flags.writeable
    view = src.T
    view.flags.writeable = False  # read-only, but its owner is not: copied
    assert not np.shares_memory(Sampled2D(g, g, view).values, src)
    owner = np.ones((5, 5))
    early = owner[:]
    owner.flags.writeable = False  # a view taken before the owner froze stays writable: copied
    assert not np.shares_memory(Sampled2D(g, g, early).values, owner)
    ints = np.ones((5, 5), dtype=int)
    ints.flags.writeable = False  # read-only, but not float64: converted
    assert Sampled2D(g, g, ints).values.dtype == np.float64


def test_sampled2d_keeps_a_frozen_array():
    g = TimeGrid(0.25, 4)
    frozen = np.ones((5, 5))
    frozen.flags.writeable = False
    assert Sampled2D(g, g, frozen).values is frozen
    assert Sampled2D(g, g, frozen.T).values.base is frozen

