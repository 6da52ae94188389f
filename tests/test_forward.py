import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from viscostring.errors import GridMismatchError, KernelValidationError
from viscostring.grid import Sampled1D, TimeGrid, centered_difference
from viscostring import forward, kernels
from viscostring.connecting import gram_from_data, gram_oracle, hat_basis, synthesize_table
from viscostring.kernels import build_kernel, resolvent, response_to_traction
from viscostring.forward import (
    StringProblem,
    _mild_march,
    fd_oracle,
    solve_mild,
)

from conftest import bump, general_kernel


def _wave_problem(m=64, T=0.5, L=1.0):
    dt = T / m
    ker = build_kernel(TimeGrid(dt, m), "const")
    p = StringProblem(L, lambda x: np.zeros_like(x), ker, T)
    return p, TimeGrid(dt, m)


def test_problem_validation():
    g = TimeGrid(0.01, 100)
    ker = build_kernel(g, "const")
    with pytest.raises(GridMismatchError):
        StringProblem(0.5, lambda x: np.zeros_like(x), ker, 0.9)  # T > L
    with pytest.raises(GridMismatchError):
        StringProblem(1.0, np.zeros(7), ker, 0.5)  # wrong q sampling
    with pytest.raises(GridMismatchError):
        StringProblem(1.0005, lambda x: np.zeros_like(x), ker, 0.5)  # off-lattice L


def test_problem_checks_its_horizon_once():
    # StringProblem holds every horizon rule; the solvers check only the control
    dt = 1.0 / 64
    zero = lambda x: np.zeros_like(x)
    ker = build_kernel(TimeGrid(dt, 64), "const")
    with pytest.raises(GridMismatchError, match="does not cover"):
        StringProblem(1.0, zero, build_kernel(TimeGrid(dt, 16), "const"), 17 * dt)
    with pytest.raises(GridMismatchError, match="lattice"):
        StringProblem(1.0, zero, ker, 0.5 + 0.3 * dt)
    with pytest.raises(GridMismatchError, match="exceeds"):
        StringProblem(0.25, zero, ker, 0.5)
    p = StringProblem(1.0, zero, ker, 0.5)
    assert p.tgrid == TimeGrid(dt, 32)
    for grid in (TimeGrid(dt, 31), TimeGrid(dt / 2, 64)):  # another horizon, another step
        f = Sampled1D(grid, np.sin(np.pi * grid.nodes() / grid.t_max) ** 2)
        for solver in (solve_mild, fd_oracle):
            with pytest.raises(GridMismatchError, match="control must be sampled"):
                solver(p, f)


def test_control_must_start_at_zero():
    p, tg = _wave_problem()
    f = Sampled1D(tg, np.ones(tg.n + 1))
    with pytest.raises(KernelValidationError):
        solve_mild(p, f)


def test_degenerate_transport_exact():
    # N == 1, q == 0: w(x,t) = f(t-x) to round-off
    p, tg = _wave_problem(m=96)
    f = Sampled1D.from_callable(tg, lambda t: np.sin(np.pi * t / tg.t_max) ** 2)
    fld = solve_mild(p, f)
    t, x = tg.nodes(), fld.xgrid.nodes()
    lag = t[None, :] - x[:, None]
    exact = np.where(lag >= 0, np.interp(np.clip(lag, 0, None), t, f.values), 0.0)
    assert np.max(np.abs(fld.w.values - exact)) <= 1e-12


def test_zero_control_zero_field():
    p, tg = _wave_problem(m=32)
    fld = solve_mild(p, Sampled1D(tg, np.zeros(tg.n + 1)))
    assert np.all(fld.w.values == 0.0)
    assert np.all(fld.y.values == 0.0)


def test_finite_speed_exact_zeros():
    m, T, L = 80, 0.4, 1.0
    dt = T / m
    ker = general_kernel(TimeGrid(dt, m))
    p = StringProblem(L, lambda x: 0.5 + 0.2 * np.sin(np.pi * x), ker, T)
    tg = TimeGrid(dt, m)
    f = Sampled1D.from_callable(tg, lambda t: bump(t, 0.0, T))
    fld = solve_mild(p, f)
    x, t = fld.xgrid.nodes(), tg.nodes()
    ahead = x[:, None] > t[None, :] + dt
    assert np.max(np.abs(fld.w.values[ahead])) <= 1e-10 * np.max(np.abs(f.values))


def test_forward_linearity():
    m, T, L = 64, 0.4, 1.0
    dt = T / m
    ker = general_kernel(TimeGrid(dt, m))
    p = StringProblem(L, lambda x: 1.0 - 0.5 * x, ker, T)
    tg = TimeGrid(dt, m)
    f1 = Sampled1D.from_callable(tg, lambda t: bump(t, 0.0, T))
    f2 = Sampled1D.from_callable(tg, lambda t: (t / T) ** 2 * (1 - t / T) ** 2)
    a, b = 1.7, -0.6
    fld12 = solve_mild(p, Sampled1D(tg, a * f1.values + b * f2.values))
    combo = a * solve_mild(p, f1).w.values + b * solve_mild(p, f2).w.values
    scale = np.max(np.abs(combo))
    assert np.max(np.abs(fld12.w.values - combo)) <= 1e-10 * scale


def test_time_invariance_of_response():
    # the system is autonomous: delaying the control delays field and response
    m, T, L = 128, 0.5, 1.5
    dt = T / m
    ker = build_kernel(TimeGrid(dt, round(L / dt)), "exp", rate=1.0)
    p = StringProblem(L, lambda x: 0.8 * np.ones_like(x), ker, T)
    tg = TimeGrid(dt, m)
    pulse = lambda t: bump(t, 0.05, 0.25)
    shift = 32
    f0 = Sampled1D.from_callable(tg, pulse)
    f1 = Sampled1D.from_callable(tg, lambda t: pulse(t - shift * dt))
    fld0, fld1 = solve_mild(p, f0), solve_mild(p, f1)
    w_shifted = np.zeros_like(fld0.w.values)
    w_shifted[:, shift:] = fld0.w.values[:, : tg.n + 1 - shift]
    assert np.max(np.abs(fld1.w.values - w_shifted)) <= 1e-12
    y_shifted = np.zeros(tg.n + 1)
    y_shifted[shift:] = fld0.y.values[: tg.n + 1 - shift]
    scale = np.max(np.abs(fld0.y.values))
    assert np.max(np.abs(fld1.y.values - y_shifted)) <= 1e-12 * scale


@pytest.mark.parametrize("shift", [1, 37])
def test_time_invariance_of_spike_response_with_memory(shift):
    # genuine memory (K != 0): the unit spike at t_1 and its delay give the
    # delayed field and the delayed memory part y - gamma f + f' of the trace,
    # the impulse response synthesize_table builds every response from
    m, T, L = 128, 0.5, 1.5
    dt = T / m
    ker = general_kernel(TimeGrid(dt, round(L / dt)))
    p = StringProblem(L, lambda x: 1.0 + 0.3 * np.sin(3.0 * x), ker, T)
    tg = TimeGrid(dt, m)
    spikes = np.zeros((2, m + 1))
    spikes[0, 1] = spikes[1, 1 + shift] = 1.0
    fld0, fld1 = (solve_mild(p, Sampled1D(tg, e)) for e in spikes)
    w_shifted = np.zeros_like(fld0.w.values)
    w_shifted[:, shift:] = fld0.w.values[:, : m + 1 - shift]
    assert np.max(np.abs(fld1.w.values - w_shifted)) <= 1e-12 * np.max(np.abs(fld0.w.values))
    gamma = resolvent(ker).gamma
    z0, z1 = (
        fld.y.values - gamma * e + centered_difference(e, dt)
        for fld, e in zip((fld0, fld1), spikes)
    )
    assert np.max(np.abs(z0)) > 0.0
    z_shifted = np.zeros(m + 1)
    z_shifted[shift:] = z0[: m + 1 - shift]
    assert np.max(np.abs(z1 - z_shifted)) <= 1e-12 * np.max(np.abs(z0))


def test_response_degenerate_negative_derivative():
    # N == 1, q == 0, f = t^2: y = -f' = -2t (exact for a quadratic control)
    p, tg = _wave_problem(m=64)
    f = Sampled1D.from_callable(tg, lambda t: t**2)
    fld = solve_mild(p, f)
    assert np.max(np.abs(fld.y.values + 2 * tg.nodes())) <= 1e-12


def test_response_matches_fd_oracle():
    m, T, L = 200, 0.5, 1.0
    dt = T / m
    ker = build_kernel(TimeGrid(dt, m), "exp", rate=1.0)
    p = StringProblem(L, lambda x: np.zeros_like(x), ker, T)
    tg = TimeGrid(dt, m)
    f = Sampled1D.from_callable(tg, lambda t: np.sin(np.pi * t / T) ** 2)
    a = solve_mild(p, f)
    b = fd_oracle(p, f)
    gap = np.linalg.norm(a.y.values - b.y.values) / np.linalg.norm(b.y.values)
    assert gap <= 2e-2


def test_field_matches_fd_oracle_memory_kernel():
    m, T, L = 120, 0.4, 1.0
    dt = T / m
    ker = general_kernel(TimeGrid(dt, m))
    qf = lambda x: 1.0 + 0.5 * np.sin(np.pi * x / L)
    p = StringProblem(L, qf, ker, T)
    tg = TimeGrid(dt, m)
    f = Sampled1D.from_callable(tg, lambda t: np.sin(np.pi * t / T) ** 2)
    a = solve_mild(p, f)
    b = fd_oracle(p, f)
    keep = a.xgrid.n + 1
    gap = np.linalg.norm(a.w.values - b.w.values[:keep]) / np.linalg.norm(b.w.values[:keep])
    assert gap <= 1e-2


def test_fd_oracle_trace_is_the_one_sided_stencil_of_its_field():
    # the oracle reads y off its own field by the second-order one-sided
    # difference at x = 0, the end stencil of centered_difference
    m, T, L = 40, 0.4, 1.0
    dt = T / m
    tg = TimeGrid(dt, m)
    p = StringProblem(L, lambda x: 1.0 + 0.5 * np.sin(np.pi * x / L), general_kernel(tg), T)
    f = Sampled1D.from_callable(tg, lambda t: np.sin(np.pi * t / T) ** 2)
    b = fd_oracle(p, f)
    w = b.w.values
    assert np.array_equal(b.y.values, (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * dt))


def test_final_snapshot_transport_and_front():
    p, tg = _wave_problem(m=64)
    T = tg.t_max
    f = Sampled1D.from_callable(tg, lambda t: t * (T - t))
    fld = solve_mild(p, f)
    w_T = fld.w.values[:, -1]
    x = fld.xgrid.nodes()
    assert np.max(np.abs(w_T - np.interp(T - x, tg.nodes(), f.values))) <= 1e-12
    # the wavefront value continues the control's t -> 0+ limit (here 0),
    # approached at O(dt) governed by the launch slope f'(0) = T
    assert abs(w_T[-1]) <= 1e-12
    assert abs(w_T[-2]) <= 1.5 * T * tg.dt


def test_mild_strong_consistency_residual_shrinks():
    # residual of the original integro-differential model, evaluated by
    # numerical differentiation of the computed field, is O(dt)
    def residual(m):
        T, L = 0.4, 1.0
        dt = T / m
        ker = build_kernel(TimeGrid(dt, m), "exp", rate=1.0)
        p = StringProblem(L, lambda x: 0.5 + 0.3 * x, ker, T)
        tg = TimeGrid(dt, m)
        f = Sampled1D.from_callable(tg, lambda t: bump(t, 0.05, 0.35))
        fld = solve_mild(p, f)
        w = fld.w.values
        n1 = ker.N1.values
        n = ker.N.values
        m_t = tg.n
        wt = (w[:, 2:] - w[:, :-2]) / (2 * dt)
        lw = np.zeros_like(w)
        lw[1:-1, :] = (w[2:, :] - 2 * w[1:-1, :] + w[:-2, :]) / dt**2 + p.q[1 : w.shape[0] - 1, None] * w[1:-1, :]
        conv = np.zeros_like(w)
        for k in range(1, m_t + 1):
            wgt = np.full(k + 1, dt)
            wgt[0] = wgt[-1] = 0.5 * dt
            conv[:, k] = (lw[:, : k + 1] * (n[k::-1] * wgt)[None, :]).sum(axis=1)
        r = wt[1:-1, :] - conv[1:-1, 1:-1]
        return np.linalg.norm(r) / np.linalg.norm(wt[1:-1, :])

    r1, r2 = residual(60), residual(120)
    assert r2 <= r1 / 1.4


def test_response_operator_unbounded_trend():
    # || y_n ||/|| f_n || grows with the control frequency
    m, T, L = 256, 0.5, 1.0
    dt = T / m
    ker = build_kernel(TimeGrid(dt, m), "exp", rate=1.0)
    p = StringProblem(L, lambda x: 0.3 * np.ones_like(x), ker, T)
    tg = TimeGrid(dt, m)
    t = tg.nodes()
    window = bump(t, 0.0, T)
    ratios = []
    for n in range(1, 9):
        f = Sampled1D(tg, np.sin(n * np.pi * t / T) * window)
        fld = solve_mild(p, f)
        ratios.append(np.linalg.norm(fld.y.values) / np.linalg.norm(f.values))
    assert np.all(np.diff(ratios) > 0)


def test_sigma_consistent_with_response():
    m, T, L = 96, 0.4, 1.0
    dt = T / m
    ker = build_kernel(TimeGrid(dt, m), "exp", rate=2.0)
    p = StringProblem(L, lambda x: np.ones_like(x), ker, T)
    tg = TimeGrid(dt, m)
    f = Sampled1D.from_callable(tg, lambda t: bump(t, 0.0, T))
    fld = solve_mild(p, f)
    n = ker.N.values[: tg.n + 1]
    from viscostring.grid import convolve_values

    sigma = -convolve_values(n, fld.y.values, dt)
    assert np.allclose(response_to_traction(fld.y, ker).values, sigma, atol=1e-14)


def _reference_memory_row(K, W, k, dt):
    """Trapezoid of int_0^{t_k} K(t_k - s) W(x, s) ds for every x at once."""
    if k == 0:
        return np.zeros(W.shape[0])
    acc = 0.5 * K[k] * W[:, 0] + 0.5 * K[0] * W[:, k]
    if k > 1:
        acc += W[:, 1:k] @ K[k - 1:0:-1]
    return dt * acc


def _reference_solve(p, f, res):
    """The per-level march over all x-rows with the (m+1)^2 source array F,
    and the trace read from F's anti-diagonals afterwards: (w, y, sigma)."""
    dt = p.dt
    m = round(p.T / dt)
    gamma, alpha = res.gamma, res.alpha
    K = res.K.values
    has_memory = bool(np.any(K[: m + 1]))
    t = TimeGrid(dt, m).nodes()
    qa = p.q[: m + 1] + alpha
    g = np.exp(-gamma * t) * f.values

    W = np.zeros((m + 1, m + 1))
    F = np.zeros((m + 1, m + 1))
    W[0, :] = g
    for k in range(1, m):
        F[:, k] = qa * W[:, k]
        if has_memory:
            F[:, k] += _reference_memory_row(K, W, k, dt)
        W[1:m, k + 1] = W[2 : m + 1, k] + W[0 : m - 1, k] - W[1:m, k - 1] + dt * dt * F[1:m, k]
    if m >= 1:
        F[:, m] = qa * W[:, m]
        if has_memory:
            F[:, m] += _reference_memory_row(K, W, m, dt)

    w = np.exp(gamma * t)[None, :] * W
    fp = centered_difference(f.values, dt)
    integral = np.zeros(m + 1)
    for k in range(1, m + 1):
        idx = np.arange(k + 1)
        diag = F[idx, k - idx]
        integral[k] = dt * (diag.sum() - 0.5 * diag[0] - 0.5 * diag[-1])
    y = gamma * f.values - fp + np.exp(gamma * t) * integral
    sigma = response_to_traction(Sampled1D(TimeGrid(dt, m), y), p.kernel).values
    return w, y, sigma


@pytest.mark.parametrize("m", [1, 2, 3, 31, 32, 33, 69])
@pytest.mark.parametrize("kernel", ["const", "exp", "general"])
def test_light_cone_march_matches_reference(rng, kernel, m):
    # sizes around the memory block edges (levels 1-32, 33-64, ...); the
    # control starts at rest only up to the 1e-10 the solver admits
    dt = 1.0 / 64
    T, L = m * dt, (m + 2) * dt
    grid = TimeGrid(dt, m + 2)
    ker = general_kernel(grid) if kernel == "general" else build_kernel(grid, kernel, rate=1.0)
    p = StringProblem(L, lambda x: 1.0 + 0.3 * np.sin(3.0 * x), ker, T)
    tg = TimeGrid(dt, m)
    vals = rng.standard_normal(m + 1)
    vals[0] = 1e-11 * np.max(np.abs(vals))
    f = Sampled1D(tg, vals)
    res = resolvent(ker)
    if m == 1:  # too short for the trace's one-sided derivative, on both paths
        with pytest.raises(GridMismatchError):
            solve_mild(p, f)
        with pytest.raises(GridMismatchError):
            _reference_solve(p, f, res)
        return
    fld = solve_mild(p, f)
    sigma = response_to_traction(fld.y, ker).values
    for got, want in zip((fld.w.values, fld.y.values, sigma), _reference_solve(p, f, res)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    x, t = fld.xgrid.nodes(), tg.nodes()
    assert np.all(fld.w.values[x[:, None] > t[None, :]] == 0.0)


@pytest.mark.parametrize("m", [2, 3, 31, 32, 33, 64, 65])
@pytest.mark.parametrize("kernel", ["const", "exp", "general"])
def test_march_cut_at_the_last_anti_diagonal_keeps_the_trace(rng, kernel, m):
    # y(t_n) reads the anti-diagonal x + t = t_n, so the march synthesize_table
    # asks for (cells x + t <= T) gives the whole cone's trace and field there
    dt = 1.0 / 64
    grid = TimeGrid(dt, m)
    ker = general_kernel(grid) if kernel == "general" else build_kernel(grid, kernel, rate=1.0)
    p = StringProblem(m * dt, lambda x: 1.0 + 0.3 * np.sin(3.0 * x), ker, m * dt)
    vals = rng.standard_normal(m + 1)
    vals[0] = 0.0
    f = Sampled1D(grid, vals)
    W, y = _mild_march(p, f, m)
    W = np.pad(W, ((0, 0), (0, m + 1 - W.shape[1])))  # the cut stores only the rows it touches
    W_cone, y_cone = _mild_march(p, f, 2 * m)
    assert np.array_equal(y_cone, solve_mild(p, f).y.values)
    assert np.max(np.abs(y - y_cone)) <= 1e-15 * np.max(np.abs(y_cone))
    cut = np.add.outer(np.arange(m + 1), np.arange(m + 1)) <= m  # [k, i]: x_i + t_k <= T
    assert np.max(np.abs(W - W_cone)[cut]) <= 1e-15 * np.max(np.abs(W_cone))
    assert np.all(W[~cut] == 0.0)


def test_solve_mild_hands_over_its_frozen_field():
    # the field is the march's own array, transposed and frozen, not a copy
    p, tg = _wave_problem(m=32)
    fld = solve_mild(p, Sampled1D.from_callable(tg, lambda t: bump(t, 0.0, 0.5)))
    w, owner = fld.w.values, fld.w.values.base
    assert owner is not None and owner.base is None
    assert not w.flags.writeable and not owner.flags.writeable


def _reference_level_loop(p, f, last):
    """The level loop with the l = k end of the memory trapezoid as its own
    term, beside the block's far history and the near product of the levels
    k0..k-1, and F added to the anti-diagonal integral in two statements:
    the march before one near product per level.  Returns (W, y) as
    ``_mild_march`` does."""
    dt, m = p.dt, p.tgrid.n
    res = resolvent(p.kernel)
    gamma, alpha = res.gamma, res.alpha
    B = forward._BLOCK
    dK = dt * res.K.values[: m + 1]
    has_memory = bool(np.any(dK))
    windows = sliding_window_view(np.concatenate([dK, np.zeros(B)]), B)
    t = p.tgrid.nodes()
    qa = p.q[: m + 1] + alpha
    level = np.arange(m + 1)
    rows = np.minimum(np.minimum(level + 2, m + 1), last + 1 - level)
    ends = np.minimum(rows, m + 1 - level).tolist()
    rows = rows.tolist()
    W = np.zeros((m + 1, max(rows)))
    W[:, 0] = np.exp(-gamma * t) * f.values
    dt2 = dt * dt
    integral = np.zeros(m + 1)
    for k0 in range(1, m + 1, B):
        k1 = min(k0 + B, m + 1)
        if has_memory:
            c = min(k0, last - k0 + 1)
            history = windows[k0 - 1 : 0 : -1, : k1 - k0].T @ W[1:k0, :c]
            history[:, 0] += 0.5 * dK[k0:k1] * W[0, 0]
        for k in range(k0, k1):
            r = rows[k]
            Wk = W[k, :r]
            F = qa[:r] * Wk
            if has_memory:
                mem = 0.5 * dK[0] * Wk
                mem[:c] += history[k - k0, :r]
                if k > k0:
                    mem += dK[k - k0 : 0 : -1] @ W[k0:k, :r]
                F += mem
            n = ends[k]
            integral[k] += 0.5 * F[0]
            integral[k + 1 : k + n] += F[1:n]
            if k < m:
                W[k + 1, 1 : r - 1] = Wk[2:] + Wk[:-2] - W[k - 1, 1 : r - 1] + dt2 * F[1:-1]
    fp = centered_difference(f.values, dt)
    return W, gamma * f.values - fp + np.exp(gamma * t) * (dt * integral)


@pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 64, 65])
@pytest.mark.parametrize("kernel", ["const", "exp", "general"])
def test_one_near_product_per_level_matches_the_split_end_loop(rng, kernel, m):
    # block edges (levels 1-32, 33-64, ...) and m < _BLOCK, whose near weights
    # run past lag m.  Without memory the two loops do the same arithmetic;
    # with it the fold reorders the memory sum, and W, y and sigma agree to
    # round-off (the dt^2 F term of the W update is ~dt^2 of W, so a changed
    # last bit of F seldom reaches W)
    dt = 1.0 / 64
    grid, kgrid = TimeGrid(dt, m), TimeGrid(dt, m + 2)  # a kernel needs 3 samples
    ker = general_kernel(kgrid) if kernel == "general" else build_kernel(kgrid, kernel, rate=1.0)
    p = StringProblem(m * dt, lambda x: 1.0 + 0.3 * np.sin(3.0 * x), ker, m * dt)
    vals = rng.standard_normal(m + 1)
    vals[0] = 0.0
    spike = np.zeros(m + 1)
    spike[min(1, m)] = 1.0
    if m == 1:  # too short for the trace's one-sided derivative, in both loops
        for march in (_mild_march, _reference_level_loop):
            with pytest.raises(GridMismatchError):
                march(p, Sampled1D(grid, vals), 2 * m)
        return
    def agree(got, want):
        if kernel == "general":
            return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        return np.array_equal(got, want)

    fld = solve_mild(p, Sampled1D(grid, vals))
    W_ref, y_ref = _reference_level_loop(p, Sampled1D(grid, vals), 2 * m)
    w_ref = W_ref * np.exp(resolvent(ker).gamma * grid.nodes())[:, None]
    sigma_ref = response_to_traction(Sampled1D(grid, y_ref), ker).values
    assert agree(fld.w.values.T, w_ref)
    sigma = response_to_traction(fld.y, ker).values
    assert agree(fld.y.values, y_ref) and agree(sigma, sigma_ref)
    # the spike march synthesize_table cuts at x + t <= T
    _, y_cut = _mild_march(p, Sampled1D(grid, spike), m)
    _, y_cut_ref = _reference_level_loop(p, Sampled1D(grid, spike), m)
    assert agree(y_cut, y_cut_ref)


def _trace_from_field(p, f, W):
    """gamma f - f' + e^{gamma t} dt Sigma, Sigma the trapezoid sum of (q+alpha) W
    along each anti-diagonal x_i + t_k = t_n, added level by level from k = 0."""
    dt, m = p.dt, p.tgrid.n
    res = resolvent(p.kernel)
    F = (p.q[: W.shape[1]] + res.alpha) * W
    integral = np.zeros(m + 1)
    for k in range(m + 1):
        row = F[k, : m + 1 - k].copy()
        row[0] *= 0.5
        integral[k : k + len(row)] += row
    t = p.tgrid.nodes()
    fp = centered_difference(f.values, dt)
    return res.gamma * f.values - fp + np.exp(res.gamma * t) * (dt * integral)


@pytest.mark.parametrize("dt", [1.0 / 256, 1.0 / 100])
@pytest.mark.parametrize("m", [forward._BLOCK - 1, forward._BLOCK, forward._BLOCK + 1, 2 * forward._BLOCK + 1])
@pytest.mark.parametrize("kernel", ["const", "exp"])
def test_block_summed_trace_is_the_level_ordered_anti_diagonal_sum(rng, kernel, m, dt):
    # the march sums its dt^2-scaled F rows once per block; the sum over the
    # block buffer's rows keeps the level order, and a power-of-two dt scales
    # exactly, so the trace is the field's anti-diagonal sums bit for bit.
    # The unit spike's trace past t_2 is e^{gamma t} dt Sigma alone, so there
    # every bit of Sigma shows
    grid = TimeGrid(dt, m)
    ker = build_kernel(grid, kernel, rate=1.0)
    p = StringProblem(m * dt, lambda x: 1.0 + 0.3 * np.sin(3.0 * x), ker, m * dt)
    vals = rng.standard_normal(m + 1)
    vals[0] = 0.0
    spike = np.zeros(m + 1)
    spike[1] = 1.0
    for f in (Sampled1D(grid, spike), Sampled1D(grid, vals)):
        for last in (2 * m, m):  # the whole cone and the spike cut
            W, y = _mild_march(p, f, last)
            want = _trace_from_field(p, f, W)
            if dt == 1.0 / 256:
                assert np.array_equal(y, want), last
            else:
                assert np.max(np.abs(y - want)) <= 1e-13 * np.max(np.abs(want)), last


class _FullWidthField:
    """numpy, except that a 2-D np.zeros is square: _mild_march then stores
    its field on all m+1 rows, as a march that sizes it by m alone would."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def zeros(shape, *args, **kwargs):
        if isinstance(shape, tuple) and len(shape) == 2:
            shape = (shape[0], shape[0])
        return np.zeros(shape, *args, **kwargs)


@pytest.mark.parametrize("M", [8, 33, 64, 512])
@pytest.mark.parametrize("kernel", ["exp", "general"])
def test_spike_march_stores_only_the_rows_it_touches(monkeypatch, kernel, M):
    # synthesize_table's spike march (cells x + t <= T) touches the rows
    # i <= min(k+1, M-k) only, so its field has (M+3)//2 columns, not M+1,
    # and its trace is the full-width march's bit for bit
    dt = 1.0 / 256
    grid = TimeGrid(dt, M)
    ker = general_kernel(grid) if kernel == "general" else build_kernel(grid, "exp", rate=1.0)
    p = StringProblem(M * dt, lambda x: 1.0 + 0.25 * np.sin(x), ker, M * dt)
    spike = np.zeros(M + 1)
    spike[1] = 1.0
    f = Sampled1D(grid, spike)
    W, y = _mild_march(p, f, M)
    assert W.shape == (M + 1, (M + 3) // 2)
    monkeypatch.setattr(forward, "np", _FullWidthField())
    W_full, y_full = _mild_march(p, f, M)
    assert W_full.shape == (M + 1, M + 1)
    assert np.array_equal(y, y_full)
    assert np.array_equal(W, W_full[:, : W.shape[1]]) and np.all(W_full[:, W.shape[1] :] == 0.0)


def test_resolvent_on_the_horizon_window_is_bit_identical():
    # solve_mild reads the resolvent of the kernel's whole grid; the Volterra
    # solves are causal, so a kernel sampled past T gives the field of the
    # same kernel built on [0, T] bit for bit
    m, dt = 48, 1.0 / 64
    f = Sampled1D.from_callable(TimeGrid(dt, m), lambda t: bump(t, 0.0, m * dt))
    kers = [general_kernel(TimeGrid(dt, n)) for n in (2 * m + 5, m)]
    fld, ref = (solve_mild(StringProblem(1.0, lambda x: 0.5 + 0.3 * x, k, m * dt), f) for k in kers)
    for name in ("w", "y"):
        assert np.array_equal(getattr(fld, name).values, getattr(ref, name).values), name
    sigma, sigma_ref = (response_to_traction(x.y, k).values for x, k in zip((fld, ref), kers))
    assert np.array_equal(sigma, sigma_ref)


def test_one_volterra_solve_serves_every_solver_on_a_kernel(monkeypatch):
    # the kernel keeps its resolvent: synthesize_table, gram_from_data,
    # gram_oracle and solve_mild all read the one solved on first use
    calls, real = [], kernels._volterra_values

    def spy(k, f, dt):
        calls.append(f.shape)
        return real(k, f, dt)

    monkeypatch.setattr(kernels, "_volterra_values", spy)
    m, dt, L = 16, 1.0 / 32, 1.0
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    ker2 = general_kernel(grid2)
    q = lambda x: 1.0 + 0.5 * x
    basis = hat_basis(grid, 3)
    gram_from_data(synthesize_table(basis, ker2, q, L))
    p = StringProblem(L, q, ker2, grid.t_max)
    gram_oracle(p, basis)
    for e in basis.samples:
        solve_mild(p, Sampled1D(grid, e))
    assert calls == [(2 * m + 1, 2)]  # R and R'' in one call
    assert resolvent(ker2) is resolvent(ker2)
