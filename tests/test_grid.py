import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from viscostring.errors import GridMismatchError
from viscostring.grid import (
    Sampled1D,
    Sampled2D,
    TimeGrid,
    _lower_toeplitz_matrix,
    centered_difference,
    convolve_values,
    cumulative_values,
)
from viscostring.kernels import _volterra_values

from conftest import triangle_quadrature


def _trapezoid_operator(k: np.ndarray, dt: float) -> np.ndarray:
    """Dense matrix of h -> convolve_values(k, h, dt): row j >= 1 weighs h[i]
    by dt k[j-i], halved at i = 0 and i = j; row 0 is zero."""
    i = np.arange(len(k))
    d = i[:, None] - i[None, :]
    A = np.where(d >= 0, dt * k[np.maximum(d, 0)], 0.0)
    A[:, 0] *= 0.5
    A[i, i] *= 0.5
    A[0] = 0.0
    return A


# The lower-triangular Toeplitz solve of the trapezoid rule (the inverse by
# causal doubling, one convolution) runs in kernels._volterra_values.
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 31, 64, 100, 257])
def test_lower_toeplitz_solve_matches_dense_solve(rng, n):
    dt = 1.0 / n
    k = rng.standard_normal(n + 1)
    k[0] = abs(k[0])  # diagonal 1 + dt k(0)/2 >= 1
    A = _trapezoid_operator(k, dt)
    for f in rng.standard_normal((4, n + 1)):
        assert np.allclose(A @ f, convolve_values(k, f, dt), rtol=0.0, atol=1e-14)
        v = _volterra_values(k, f, dt)
        ref = np.linalg.solve(np.eye(n + 1) + A, f)
        assert np.max(np.abs(v - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 33, 257])
def test_lower_toeplitz_matrix_is_the_sliding_window_copy(rng, n):
    # the former construction: row i is a window of the reversed, zero-padded column
    col = rng.standard_normal(n)
    padded = np.concatenate([col[::-1], np.zeros(n - 1)])
    ref = sliding_window_view(padded, n)[::-1].copy()
    L = _lower_toeplitz_matrix(col)
    assert L.shape == ref.shape and L.tobytes() == ref.tobytes()
    assert L.flags.c_contiguous and L.flags.writeable


def test_lower_toeplitz_solve_of_a_prefix_is_the_prefix_of_the_solve(rng):
    # a prefix of k and f gives a prefix of v (from 12 rows on), bit for bit
    n, dt = 150, 1.0 / 64
    k = np.exp(-np.arange(n + 1) / 30.0) * rng.standard_normal(n + 1)
    k[0] = 2.0
    for f in rng.standard_normal((5, n + 1)):
        v = _volterra_values(k, f, dt)
        assert v.shape == f.shape
        for p in (2, 13, 64, 65, 129):
            assert np.array_equal(_volterra_values(k[:p], f[:p], dt), v[:p]), p


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
    out = convolve_values(np.ones(5), np.ones(5), g.dt)
    assert np.allclose(out, g.nodes(), atol=1e-15)


def test_convolve_zero_kernel():
    g = TimeGrid(0.1, 30)
    assert np.all(convolve_values(np.zeros(31), np.cos(g.nodes()), g.dt) == 0.0)


def test_convolve_linear_kernel_closed_form():
    # k(t) = t, h = 1: int_0^t (t-s) ds = t^2/2; trapezoid is second order
    g = TimeGrid(1e-3, 1000)
    err = np.max(np.abs(convolve_values(g.nodes(), np.ones(g.n + 1), g.dt) - g.nodes() ** 2 / 2))
    assert err <= 1e-6


def test_convolve_bilinear_and_commutative(rng):
    dt = 0.01
    k, h1, h2 = rng.standard_normal((3, 151))
    combo = convolve_values(k, 2.5 * h1 - 1.5 * h2, dt)
    parts = 2.5 * convolve_values(k, h1, dt) - 1.5 * convolve_values(k, h2, dt)
    scale = np.max(np.abs(parts)) + 1e-30
    assert np.max(np.abs(combo - parts)) <= 1e-12 * scale
    sym = convolve_values(k, h1, dt) - convolve_values(h1, k, dt)
    assert np.max(np.abs(sym)) <= 1e-12 * scale


def test_cumulative_integral_cases():
    g = TimeGrid(1e-3, 1500)
    t = g.nodes()
    assert np.allclose(cumulative_values(np.ones(g.n + 1), g.dt), t, atol=1e-12)
    err = np.max(np.abs(cumulative_values(np.exp(-t), g.dt) - (1 - np.exp(-t))))
    assert err <= 1e-7
    assert np.all(cumulative_values(np.zeros(g.n + 1), g.dt) == 0.0)


def test_cumulative_values_runs_down_each_column_bit_for_bit(rng):
    # the 2-D running trapezoid of the Gram's factor stack is the 1-D one of
    # every column, so a kernel's M and a factor's U come from one primitive
    h = rng.standard_normal((97, 7))
    U = cumulative_values(h, 0.013)
    assert U.shape == h.shape and np.all(U[0] == 0.0)
    for j in range(h.shape[1]):
        assert U[:, j].tobytes() == cumulative_values(h[:, j].copy(), 0.013).tobytes()


def test_cumulative_integral_monotone(rng):
    h = np.abs(rng.standard_normal(101))
    assert np.all(np.diff(cumulative_values(h, 0.05)) >= 0.0)


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

