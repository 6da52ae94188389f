import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import viscostring.identify
import viscostring.kernels
from conftest import general_kernel, simpson_products
from viscostring.errors import ConfigError, GridMismatchError, NumericalFailure
from viscostring.grid import Sampled1D, TimeGrid, trap_weights
from viscostring.dataio import load_bundle, parse_q_spec, save_bundle
from viscostring.kernels import build_kernel
from viscostring.forward import StringProblem, solve_mild
from viscostring.connecting import (
    gram_from_data,
    gram_oracle,
    hat_basis,
    synthesize_table,
)
from viscostring.identify import (
    IdentifyConfig,
    default_horizons,
    pipeline,
    reconstruct_q,
    steering_control,
    steering_rhs,
)


def _active(basis, T):
    """Indices 0..k-1 of the hats supported inside (0, T], by the float rule
    support end <= T + dt/2 (the library counts them on knot node indices)."""
    return np.nonzero(basis.knots[2:] <= T + 0.5 * basis.grid.dt)[0]


def _identity_setup(m=128, n=8, T_max=0.5, L=1.0):
    dt = T_max / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    ker2 = build_kernel(grid2, "const")
    basis = hat_basis(grid, n)
    tab = synthesize_table(basis, ker2, lambda x: np.zeros_like(x), L)
    return tab, basis, ker2, grid


def test_only_the_steering_moments_integrate_N(monkeypatch, tmp_path):
    # M = int N is integrated on first read, and only steering_rhs reads it
    calls, real = [], viscostring.kernels.cumulative_values
    monkeypatch.setattr(
        viscostring.kernels, "cumulative_values", lambda h, dt: calls.append(h) or real(h, dt)
    )
    m, T_max, L = 32, 0.25, 1.0
    dt = T_max / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    ker2 = build_kernel(grid2, "exp", rate=1.0)
    tab = synthesize_table(hat_basis(grid, 12), ker2, lambda x: np.ones_like(x), L)
    p = StringProblem(L, lambda x: np.ones_like(x), ker2, T_max)
    solve_mild(p, Sampled1D(grid, np.sin(np.pi * grid.nodes() / T_max) ** 2))
    assert calls == []
    save_bundle(str(tmp_path), tab, L)
    loaded, _, _ = load_bundle(str(tmp_path))
    pipeline(loaded)
    assert len(calls) == 1


def test_config_validation():
    # the readout is fixed: the lattice depth and fit window are constants, not
    # settings, each horizon takes one plain solve, and the zero guard is 5*dt
    assert (IdentifyConfig().readout_points, IdentifyConfig().smoothing_halfwidth) == (3, 3)
    for retired in (
        "horizons", "readout_points", "smoothing_halfwidth", "tikhonov_lambda", "xi_zero_guard",
    ):
        with pytest.raises(TypeError):
            IdentifyConfig(**{retired: 3})


def test_steering_rhs_wave_closed_form():
    # N == 1: M(T-r) = T-r and <T-., e_j> = mass_j * (T - tbar_j) exactly
    tab, basis, ker2, grid = _identity_setup()
    T = grid.t_max
    b = steering_rhs(ker2, basis, T)
    expected = basis.element_masses * (T - basis.dual_abscissae)
    assert np.max(np.abs(b - expected)) <= 1e-8


def test_steering_rhs_vanishes_beyond_horizon():
    tab, basis, ker2, grid = _identity_setup()
    T = basis.knots[2]  # only the first hat is inside (0, T]
    b = steering_rhs(ker2, basis, float(T))
    assert np.all(b[2:] == 0.0)
    assert b[0] > 0.0


def test_steering_rhs_needs_a_kernel_reaching_the_horizon():
    # a grid mismatch, as in StringProblem; no config text reaches this check
    grid = TimeGrid(1.0 / 64, 32)
    short = build_kernel(TimeGrid(grid.dt, 31), "const")
    with pytest.raises(GridMismatchError, match="does not cover"):
        steering_rhs(short, hat_basis(grid, 3), grid.t_max)


def test_steering_rhs_memory_kernel_vs_refined_quadrature():
    # M = 1 - exp(-t); compare the trapezoid moments against a 10x refined
    # quadrature of the exact integrand
    m, n, T_max = 2048, 4, 0.25
    dt = T_max / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    ker2 = build_kernel(grid2, "exp", rate=1.0)
    basis = hat_basis(grid, n)
    T = T_max
    b = steering_rhs(ker2, basis, T)
    tf = np.linspace(0.0, T, 10 * m + 1)
    for j in range(n):
        ej = np.interp(tf, grid.nodes(), basis.samples[j])
        integrand = (1.0 - np.exp(-(T - tf))) * ej
        brute = np.trapezoid(integrand, tf)
        assert abs(b[j] - brute) <= 1e-8


def test_steering_control_wave_identity():
    tab, basis, ker2, grid = _identity_setup(m=256, n=16)
    gram = gram_from_data(tab)
    T = grid.t_max
    b = steering_rhs(ker2, basis, T)
    sc = steering_control(gram, T, b)
    t = sc.control.grid.nodes()
    target = T - t
    assert np.linalg.norm(sc.control.values - target) / np.linalg.norm(target) <= 1e-2
    assert abs(sc.xi - T) <= 1e-2 * T
    assert sc.residual <= 1e-6


def test_steering_control_zero_rhs():
    tab, basis, ker2, grid = _identity_setup()
    gram = gram_from_data(tab)
    sc = steering_control(gram, grid.t_max, np.zeros(basis.n))
    assert np.all(sc.coefficients == 0.0)
    assert np.all(sc.control.values == 0.0)
    assert sc.xi == 0.0
    assert sc.residual == 0.0  # no 0/0


def test_steering_control_lambda_to_zero_limit():
    # the unregularized limit is what steering_control solves: C c = b as it stands
    tab, basis, ker2, grid = _identity_setup()
    gram = gram_from_data(tab)
    T = grid.t_max
    b = steering_rhs(ker2, basis, T)
    active = _active(basis, T)
    C = gram.at(T)[np.ix_(active, active)]
    direct = np.linalg.solve(C, b[active])
    sc = steering_control(gram, T, b)
    assert np.max(np.abs(sc.coefficients - direct)) <= 1e-15 * np.max(np.abs(direct))


def test_steering_control_rejects_non_psd():
    tab, basis, ker2, grid = _identity_setup(n=4)
    gram = gram_from_data(tab)
    bad_C = gram.C.copy()
    bad_C[-1] = -np.eye(basis.n)  # the last knot is T_max
    from dataclasses import replace

    bad = replace(gram, C=bad_C)
    with pytest.raises(NumericalFailure):
        steering_control(bad, grid.t_max, np.ones(basis.n))


def test_steering_control_scales_with_a_gram_whose_squares_overflow():
    # the guard's norm is taken on C over its largest |entry|: a Gram 2^1000
    # times larger solves to 2^-1000 times the trace with the same residual
    gram, basis, ker2 = _exp_gram_system()
    big = replace(gram, C=gram.C * 2.0**1000)
    for T in default_horizons(basis):
        T = float(T)
        b = steering_rhs(ker2, basis, T)
        ref, got = steering_control(gram, T, b), steering_control(big, T, b)
        assert got.xi == 2.0**-1000 * ref.xi
        assert got.residual == ref.residual
        cond = ref.diagnostics["condition"]
        assert abs(got.diagnostics["condition"] - cond) <= 1e-12 * cond


def test_responses_whose_gram_squares_overflow():
    # exp A7 with the responses after t = 0 scaled by 2^1000: the asymmetry
    # is a ratio of norms taken on each Gram over its largest |entry|, and the
    # target trace 2^-1000 times the unscaled one falls under the zero guard
    m, n, T_max, L = 256, 32, 1.0, 2.0
    dt = T_max / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    q = parse_q_spec("const:1 + sin:0.25,1", np.arange(round(L / dt) + 1) * dt, L)
    tab = synthesize_table(hat_basis(grid, n), build_kernel(grid2, "exp", rate=1.0), q, L)
    Y = tab.Y.copy()
    Y[:, 1:] *= 2.0**1000
    big = replace(tab, Y=Y)
    assert np.all(np.isfinite(gram_from_data(big).asymmetry))
    with pytest.raises(NumericalFailure, match="identically degenerate"):
        pipeline(big)


def test_steering_control_rejects_singular_gram():
    # positive semidefinite but singular: no solve, no regularized answer
    from dataclasses import replace

    tab, basis, ker2, grid = _identity_setup(n=4)
    gram = gram_from_data(tab)
    bad_C = gram.C.copy()
    bad_C[-1] = np.diag([1.0, 1.0, 0.0, 0.0])
    bad = replace(gram, C=bad_C)
    with pytest.raises(NumericalFailure, match="not positive definite"):
        steering_control(bad, grid.t_max, steering_rhs(ker2, basis, grid.t_max))


def test_gram_lookup_accepts_knots_and_rejects_a_node_between_knots():
    # the Gram lives on the knots: gram.at maps a knot horizon to its row, a
    # grid node between knots has no matrix, and off-grid horizons are
    # rejected by gram.at, steering_rhs and steering_control alike, before
    # any linear algebra
    tab, basis, ker2, grid = _identity_setup()
    gram = gram_from_data(tab)
    T_max = grid.t_max
    assert gram.C.shape == (basis.n + 2, basis.n, basis.n)
    for j, T in enumerate(basis.knots):
        assert np.array_equal(gram.at(float(T)), gram.C[j])
    for T in (T_max, T_max * (1 + 1e-14), float(basis.knots[4])):
        k = grid.index_of(T)
        b = steering_rhs(ker2, basis, T)
        assert steering_control(gram, T, b).control.grid.n == k
    between = float(basis.knots[4]) + grid.dt
    b = steering_rhs(ker2, basis, between)  # a grid node: the moments exist
    with pytest.raises(GridMismatchError, match="not a knot"):
        gram.at(between)
    with pytest.raises(GridMismatchError, match="not a knot"):
        steering_control(gram, between, b)
    b = steering_rhs(ker2, basis, T_max)
    for T in (T_max * (1 + 1e-11), T_max + 0.5 * grid.dt, T_max + grid.dt, -grid.dt):
        with pytest.raises(GridMismatchError):
            grid.index_of(T)
        with pytest.raises(GridMismatchError):
            gram.at(T)
        with pytest.raises(GridMismatchError):
            steering_rhs(ker2, basis, T)
        with pytest.raises(GridMismatchError):
            steering_control(gram, T, b)


def test_steering_control_below_first_support():
    # no config text reaches a horizon, so the error is a grid mismatch (not
    # the exit-2 ConfigError of the CLI)
    tab, basis, ker2, grid = _identity_setup()
    gram = gram_from_data(tab)
    with pytest.raises(GridMismatchError, match="below the first basis support"):
        steering_control(gram, grid.dt, np.zeros(basis.n))


@pytest.mark.parametrize("m, n", [(128, 8), (8, 6), (2, 1)])
def test_steering_control_at_dt_is_below_the_first_support_before_the_knot_lookup(m, n):
    # T = dt is below the first support whether or not it is a knot (it is
    # knots[1] when the first hat rises over one step); that error comes
    # first either way, not the off-knot error of a node between knots
    tab, basis, ker2, grid = _identity_setup(m=m, n=n)
    gram = gram_from_data(tab)
    if basis.knots[1] == grid.dt:
        assert np.array_equal(gram.at(grid.dt), gram.C[1])
    else:
        with pytest.raises(GridMismatchError, match="not a knot"):
            gram.at(grid.dt)
    with pytest.raises(GridMismatchError, match="below the first basis support"):
        steering_control(gram, grid.dt, steering_rhs(ker2, basis, grid.dt))


def test_reconstruct_q_closed_forms():
    cfg = IdentifyConfig()
    h = np.linspace(0.1, 1.0, 28)
    q, guarded = reconstruct_q(h, h.copy(), cfg, 1e-3)
    assert np.max(np.abs(q)) <= 0.05
    assert not np.any(guarded)
    # the steering target solves xi'' + q xi = 0: growing sinh means q = -1,
    # oscillating sin means q = +1
    q, _ = reconstruct_q(h, np.sinh(h), cfg, 1e-3)
    assert np.max(np.abs(q + 1.0)) <= 0.02
    q, _ = reconstruct_q(h, np.sin(h), cfg, 1e-3)
    assert np.max(np.abs(q - 1.0)) <= 0.02


def test_reconstruct_q_guard_interpolates_across_zero():
    h = np.linspace(0.3, np.pi + 0.2, 40)
    xi = np.sin(h)
    q, guarded = reconstruct_q(h, xi, IdentifyConfig(), 0.01)  # guard 5*dt = 0.05
    assert np.any(guarded)
    assert np.all(guarded == (np.abs(xi) <= 0.05) | np.isclose(np.abs(xi), 0.05))
    assert np.all(np.isfinite(q))
    clear = ~guarded
    assert np.max(np.abs(q[clear] - 1.0)) <= 0.05
    # the guarded stretch is filled by interpolation between clear neighbors
    assert np.max(np.abs(q[guarded] - 1.0)) <= 0.1


def test_reconstruct_q_degenerate_target():
    h = np.linspace(0.1, 1.0, 12)
    with pytest.raises(NumericalFailure):
        reconstruct_q(h, np.full_like(h, 0.01), IdentifyConfig(), 0.1)  # guard 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["xi", "horizons"])
def test_reconstruct_q_rejects_non_finite_input(bad, where):
    # a non-finite sample would make its windows' fits non-finite, fail the
    # zero guard and be interpolated over as if |xi| were small
    h = np.linspace(0.1, 1.0, 20)
    xi = np.sin(h)
    (xi if where == "xi" else h)[5] = bad
    (xi if where == "xi" else h)[12] = np.nan  # only the first is named
    with pytest.raises(NumericalFailure, match=re.escape(f"sample 5: T = {h[5]}, xi = {xi[5]}")):
        reconstruct_q(h, xi, IdentifyConfig(), 1e-3)


def test_reconstruct_q_needs_enough_samples():
    # as centered_difference for too few samples: a grid mismatch, not config
    cfg = IdentifyConfig()
    with pytest.raises(GridMismatchError, match="need at least 7 horizon samples"):
        reconstruct_q(np.linspace(0.1, 1, 5), np.ones(5), cfg, 1e-3)
    q, _ = reconstruct_q(np.linspace(0.1, 1, 7), np.linspace(0.1, 1, 7), cfg, 1e-3)
    assert q.shape == (7,)


def test_pipeline_identity_case():
    tab, basis, ker2, grid = _identity_setup(m=128, n=16, T_max=1.0, L=2.0)
    result = pipeline(tab)
    assert np.max(np.abs(result.q_hat)) <= 0.05
    assert np.max(np.abs(result.xi - result.horizons)) <= 2e-2
    assert np.all(result.residual <= 1e-4)  # residual consistency invariant
    assert len(result.residual) == len(result.condition) == len(result.horizons)


def test_pipeline_basis_too_small_for_lattice(monkeypatch):
    # 8 hats leave 6 lattice horizons, one short of the 7-sample xi'' window:
    # the error names n_basis and comes before any Gram is built
    tab, basis, ker2, grid = _identity_setup(n=8)

    def no_gram(tab):
        raise AssertionError("gram_from_data called")

    monkeypatch.setattr(viscostring.identify, "gram_from_data", no_gram)
    with pytest.raises(ConfigError, match="n_basis >= 9, got n_basis = 8"):
        pipeline(tab)
    tab9, _, _, _ = _identity_setup(n=9)
    with pytest.raises(AssertionError, match="gram_from_data called"):
        pipeline(tab9)


def test_pipeline_monotone_refinement():
    errs = []
    for m in (64, 128, 256):
        tab, basis, ker2, grid = _identity_setup(m=m, n=8)
        gram = gram_from_data(tab)
        T = grid.t_max
        sc = steering_control(gram, T, steering_rhs(ker2, basis, T))
        errs.append(abs(sc.xi - T))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    order = min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2]))
    assert order >= 1.0


def test_pipeline_with_oracle_gram_memory_case():
    # plug the forward-oracle Gram into the same steering machinery
    m, n, T_max, L = 128, 12, 1.0, 2.0
    dt = T_max / m
    grid = TimeGrid(dt, m)
    ker = build_kernel(grid, "exp", rate=1.0)
    p = StringProblem(L, lambda x: np.ones_like(x), ker, T_max)
    basis = hat_basis(grid, n)
    orc = gram_oracle(p, basis)
    ker2 = build_kernel(TimeGrid(dt, 2 * m), "exp", rate=1.0)
    xi = []
    horizons = default_horizons(basis)
    for T in horizons:
        b = steering_rhs(ker2, basis, float(T))
        xi.append(steering_control(orc, float(T), b).xi)
    xi = np.asarray(xi)
    assert np.max(np.abs(xi - np.sin(horizons)) / np.sin(horizons)) <= 0.03


def test_pipeline_exp_kernel_at_a_non_dyadic_rate_at_a7_size():
    # exp:0.3 has K == 0 exactly, so its Gram is the closed-form triangle
    # quadrature that exp:1 uses, not a march over round-off in K
    T_max, L, n, m = 1.0, 2.0, 32, 256
    grid, grid2 = TimeGrid(T_max / m, m), TimeGrid(T_max / m, 2 * m)
    qf = lambda x: 1.0 + 0.25 * np.sin(np.pi * x / L)
    res = pipeline(synthesize_table(hat_basis(grid, n), build_kernel(grid2, "exp", rate=0.3), qf, L))
    w = (res.horizons >= 0.1 * T_max) & (res.horizons <= 0.9 * T_max)
    q_ref = qf(res.horizons[w])
    assert np.linalg.norm(res.q_hat[w] - q_ref) / np.linalg.norm(q_ref) <= 0.03


def _exp_gram_system():
    m, n, T_max, L = 128, 8, 0.5, 1.0
    dt = T_max / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    ker2 = build_kernel(grid2, "exp", rate=1.0)
    basis = hat_basis(grid, n)
    gram = gram_from_data(synthesize_table(basis, ker2, lambda x: 1.0 + 0.5 * x, L))
    return gram, basis, ker2


def test_spectral_condition_matches_svd_condition():
    gram, basis, ker2 = _exp_gram_system()
    for T in default_horizons(basis):
        sc = steering_control(gram, float(T), steering_rhs(ker2, basis, float(T)))
        active = _active(basis, float(T))
        C = gram.at(float(T))[np.ix_(active, active)]
        ref = np.linalg.cond(C)
        assert abs(sc.diagnostics["condition"] - ref) <= 1e-12 * ref


def test_steering_control_starts_at_f0_not_at_xi():
    # gamma = -0.5 here: the control starts at the extrapolated f(0+), and
    # the target trace is its wavefront value exp(gamma T) f(0+)
    gram, basis, ker2 = _exp_gram_system()
    assert gram.gamma != 0.0
    for T in default_horizons(basis):
        T = float(T)
        sc = steering_control(gram, T, steering_rhs(ker2, basis, T))
        f0 = sc.control.values[0]
        ref = np.polyval(np.polyfit(basis.dual_abscissae[:3], sc.duals[:3], 2), 0.0)
        assert abs(f0 - ref) <= 1e-12 * abs(ref)
        assert abs(sc.xi - np.exp(gram.gamma * T) * f0) <= 1e-14 * abs(sc.xi)


def _reference_readout(gram, T, b, cfg):
    """Steering readout with per-call basis products: np.ix_ gathers on the
    active set, abscissae from the diagonal of an n x n moment product and
    polyfit extrapolation (the control starts at f(0+))."""
    basis = gram.basis
    S, dt = basis.samples, basis.grid.dt
    active = _active(basis, T)
    C = gram.at(T)[np.ix_(active, active)]
    c_a = np.linalg.solve(C, b[active])
    residual = np.linalg.norm(C @ c_a - b[active]) / np.linalg.norm(b[active])
    masses = S @ trap_weights(basis.grid.n + 1, dt)
    t = basis.grid.nodes()[None, :].repeat(basis.n, axis=0)
    tbars = (simpson_products(S, t, dt).diagonal() / masses)[active]
    duals = (simpson_products(S, S, dt)[np.ix_(active, active)] @ c_a) / masses[active]

    def extrapolate(tt, vv, t0):
        if len(tt) == 1:
            return float(vv[0])
        return float(np.polyval(np.polyfit(tt, vv, len(tt) - 1), t0))

    pts = min(cfg.readout_points, len(active))
    f0 = extrapolate(tbars[:pts], duals[:pts], 0.0)
    tail = extrapolate(tbars[-pts:], duals[-pts:], T)
    nodes = TimeGrid(dt, basis.grid.index_of(T)).nodes()
    control = np.interp(
        nodes, np.concatenate(([0.0], tbars, [T])), np.concatenate(([f0], duals, [tail]))
    )
    return {
        "xi": np.exp(gram.gamma * T) * f0,
        "duals": duals,
        "control": control,
        "residual": residual,
        "condition": np.linalg.cond(C),
    }


@pytest.mark.parametrize("kernel", ["const", "exp", "general"])
def test_readout_matches_per_call_reference(kernel):
    m, n, T_max, L = 64, 8, 0.5, 1.0
    dt = T_max / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    ker2 = {
        "const": lambda: build_kernel(grid2, "const"),
        "exp": lambda: build_kernel(grid2, "exp", rate=1.0),
        "general": lambda: general_kernel(grid2),
    }[kernel]()
    basis = hat_basis(grid, n)
    gram = gram_from_data(synthesize_table(basis, ker2, lambda x: 1.0 + 0.5 * x, L))
    cfg = IdentifyConfig()
    # the basis quantities are computed once and cannot be written
    for name in ("mass_matrix", "element_masses", "dual_abscissae", "knot_nodes"):
        arr = getattr(basis, name)
        assert getattr(basis, name) is arr
        with pytest.raises(ValueError):
            arr[0] = 1.0
    horizons = basis.knots[2:]  # every lattice horizon, down to one active hat
    for T in horizons:
        T = float(T)
        k = len(_active(basis, T))
        b = steering_rhs(ker2, basis, T)
        sc = steering_control(gram, T, b, cfg)
        assert len(sc.coefficients) == k
        ref = _reference_readout(gram, T, b, cfg)
        got = {
            "xi": sc.xi,
            "duals": sc.duals,
            "control": sc.control.values,
            "residual": sc.residual,
            "condition": sc.diagnostics["condition"],
        }
        for key, value in ref.items():
            gap = np.max(np.abs(np.asarray(got[key]) - value))
            assert gap <= 1e-12 * np.max(np.abs(value)), (T, key)


def _polyfit_reconstruct(horizons, xi, cfg, dt):
    """The per-horizon np.polyfit loop that the stacked Savitzky-Golay
    weights of reconstruct_q replaced."""
    h, v, w = np.asarray(horizons, float), np.asarray(xi, float), cfg.smoothing_halfwidth
    n = len(h)
    eps = 5.0 * dt
    q, guarded = np.empty(n), np.zeros(n, dtype=bool)
    for i in range(n):
        lo = min(max(0, i - w), n - (2 * w + 1))
        window = slice(lo, lo + 2 * w + 1)
        degree = 2 if lo == i - w else 3
        coef = np.polyfit(h[window] - h[i], v[window], degree)
        if abs(coef[-1]) > eps:
            q[i] = -2.0 * coef[degree - 2] / coef[-1]
        else:
            q[i], guarded[i] = np.nan, True
    q[guarded] = np.interp(h[guarded], h[~guarded], q[~guarded])
    return q, guarded


def _rounded_lattice(n):
    """Default horizons of hat_basis at dt = 1/(8n) on [0, 1]: the knots are
    rounded to grid nodes, so the spacings alternate 7 and 8 steps."""
    grid = TimeGrid(1.0 / (8 * n), 8 * n)
    h = default_horizons(hat_basis(grid, n))
    assert set(np.round(np.diff(h) / grid.dt)) == {7.0, 8.0}
    return h, grid.dt


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize(
    "target, guard",
    [
        (lambda T: np.sin(1.3 * T) + 0.2 * T**2, None),
        (lambda T: np.sin(2.0 * np.pi * T), 0.05),  # crosses zero: guarded points
    ],
)
def test_reconstruct_q_matches_polyfit_loop_on_rounded_lattice(n, target, guard):
    h, dt = _rounded_lattice(n)
    if guard is not None:
        dt = guard / 5  # the guard is 5*dt, and 5 * (0.05/5) == 0.05
    cfg = IdentifyConfig()
    q, guarded = reconstruct_q(h, target(h), cfg, dt)
    q_ref, guarded_ref = _polyfit_reconstruct(h, target(h), cfg, dt)
    assert np.array_equal(guarded, guarded_ref)
    assert np.any(guarded) == (guard is not None)
    assert np.max(np.abs(q - q_ref)) <= 1e-12 * np.max(np.abs(q_ref))


def _exact_fit_q(h, v, w=3):
    """-xi''/xi of each window's least-squares fit in exact rational
    arithmetic (normal equations over Fractions of the float inputs)."""
    n, out = len(h), []
    for i in range(n):
        lo = min(max(0, i - w), n - (2 * w + 1))
        degree = 2 if lo == i - w else 3
        x = [Fraction(h[j]) - Fraction(h[i]) for j in range(lo, lo + 2 * w + 1)]
        y = [Fraction(v[j]) for j in range(lo, lo + 2 * w + 1)]
        A = [[sum(t ** (p + r) for t in x) for r in range(degree + 1)] for p in range(degree + 1)]
        rhs = [sum(t**p * yy for t, yy in zip(x, y)) for p in range(degree + 1)]
        for c in range(degree + 1):  # Gauss-Jordan; the Gram of distinct nodes is SPD
            for r in range(degree + 1):
                if r != c:
                    f = A[r][c] / A[c][c]
                    A[r] = [a - f * b for a, b in zip(A[r], A[c])]
                    rhs[r] -= f * rhs[c]
        out.append(float(-2 * (rhs[2] / A[2][2]) / (rhs[0] / A[0][0])))
    return np.array(out)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_reconstruct_q_round_off_against_exact_least_squares(n):
    # the polyfit loop itself is off by up to ~2e-12 of max|q| here, at the
    # small-xi end; the stacked weights on xi - xi(T) stay closer to exact
    h, dt = _rounded_lattice(n)
    for xi in (np.sinh(h), np.sin(h)):
        exact = _exact_fit_q(h, xi)
        scale = np.max(np.abs(exact))
        err = np.max(np.abs(reconstruct_q(h, xi, IdentifyConfig(), dt)[0] - exact)) / scale
        err_polyfit = np.max(np.abs(_polyfit_reconstruct(h, xi, IdentifyConfig(), dt)[0] - exact)) / scale
        assert err <= min(err_polyfit, 1.5e-12)


def test_pipeline_xi_and_diagnostics_are_steering_control_bit_for_bit():
    m, n, T_max, L = 128, 16, 1.0, 2.0
    grid, grid2 = TimeGrid(T_max / m, m), TimeGrid(T_max / m, 2 * m)
    ker2 = build_kernel(grid2, "exp", rate=1.0)
    basis = hat_basis(grid, n)
    tab = synthesize_table(basis, ker2, lambda x: 1.0 + 0.25 * np.sin(np.pi * x / L), L)
    res = pipeline(tab)
    gram = gram_from_data(tab)
    for i, T in enumerate(res.horizons):
        sc = steering_control(gram, float(T), steering_rhs(ker2, basis, float(T)))
        assert np.float64(sc.xi).view(np.int64) == res.xi[i].view(np.int64)
        assert res.residual[i] == sc.residual
        assert res.condition[i] == sc.diagnostics["condition"]
    q_ref, _ = _polyfit_reconstruct(res.horizons, res.xi, IdentifyConfig(), grid.dt)
    assert np.max(np.abs(res.q_hat - q_ref)) <= 1e-12 * np.max(np.abs(q_ref))


def test_pipeline_runs_no_svd(tmp_path, monkeypatch):
    # the q readout solves its least-squares fits by QR: neither an SVD nor a
    # pseudo-inverse runs anywhere in pipeline, whose result is unchanged
    grid, grid2 = TimeGrid(0.5 / 64, 64), TimeGrid(0.5 / 64, 128)
    ker2 = build_kernel(grid2, "exp", rate=1.0)
    save_bundle(str(tmp_path), synthesize_table(hat_basis(grid, 10), ker2, lambda x: 1.0 + 0.5 * x, 1.0), L=1.0)
    expected = pipeline(load_bundle(str(tmp_path))[0])
    pinv = np.linalg.pinv

    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran")

    # the implementation module's globals too, where pinv looks up svd
    for namespace in (vars(np.linalg), np.linalg.svd.__wrapped__.__globals__):
        for name in ("svd", "pinv"):
            monkeypatch.setitem(namespace, name, no_svd)
    with pytest.raises(AssertionError, match="an SVD ran"):
        pinv(np.eye(2))
    res = pipeline(load_bundle(str(tmp_path))[0])
    assert np.array_equal(res.q_hat, expected.q_hat) and np.array_equal(res.xi, expected.xi)


def test_identify_results_csv_columns(tmp_path):
    from viscostring.cli import main
    from viscostring.dataio import load_bundle

    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel = exp:1\nL = 1\nT_max = 0.5\ndt = 0.0078125\nn_basis = 12\nq = const:1\n")
    bundle, out = str(tmp_path / "bundle"), tmp_path / "run"
    assert main(["synthesize", "--config", str(cfg), "--out", bundle]) == 0
    assert main(["identify", bundle, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_bytes().decode().split("\r\n")
    assert lines[0] == "T,xi,q_hat,residual,guard_flag" and lines[-1] == ""
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:-1]])
    res = pipeline(load_bundle(bundle)[0])
    assert np.array_equal(rows[:, [0, 1, 3, 4]], np.column_stack([res.horizons, res.xi, res.residual, res.guarded]))
    q_ref, guarded = _polyfit_reconstruct(res.horizons, res.xi, IdentifyConfig(), 0.0078125)
    assert np.array_equal(rows[:, 4], guarded.astype(float))
    assert np.max(np.abs(rows[:, 2] - q_ref)) <= 1e-12 * np.max(np.abs(q_ref))
