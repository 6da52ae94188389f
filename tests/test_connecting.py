import numpy as np
import pytest

from viscostring.errors import GridMismatchError, NumericalFailure
from viscostring.grid import (
    Sampled1D,
    Sampled2D,
    TimeGrid,
    centered_difference,
    convolve_values,
    cumulative_values,
    trap_weights,
    triangle_quadrature,
)
from viscostring.kernels import build_kernel, resolvent
from viscostring.forward import StringProblem, solve_mild
from viscostring.connecting import (
    ControlBasis,
    ResponseTable,
    _march,
    affine_source,
    blago_solve,
    gram_from_data,
    gram_oracle,
    hat_basis,
    synthesize_table,
)

from conftest import bump, frob_rel, general_kernel


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------


def test_hat_basis_structure():
    grid = TimeGrid(0.5 / 256, 256)
    basis = hat_basis(grid, 32)
    assert basis.n == 32
    assert np.all(basis.samples[:, 0] == 0.0)
    assert np.all(basis.samples[:, -1] == 0.0)
    assert np.all(np.diff(basis.knots) > 0)
    # nested supports: at T = knots[k+1] exactly k elements are usable
    for k in (3, 10, 32):
        assert len(basis.active(basis.knots[k])) == k - 1
    assert len(basis.active(grid.t_max)) == 32


def test_hat_basis_mass_matrix_uniform_lattice():
    # 32 knot intervals on 256 steps: exactly uniform, closed form applies
    grid = TimeGrid(0.5 / 256, 256)
    basis = hat_basis(grid, 31)
    delta = basis.spacing
    ideal = (
        np.diag(np.full(31, 2 * delta / 3))
        + np.diag(np.full(30, delta / 6), 1)
        + np.diag(np.full(30, delta / 6), -1)
    )
    assert np.max(np.abs(basis.mass_matrix() - ideal)) <= 1e-12


def test_hat_basis_dual_abscissae_affine_exact():
    grid = TimeGrid(1.0 / 128, 128)
    basis = hat_basis(grid, 9)
    t = grid.nodes()
    f = 3.0 - 2.0 * t  # affine
    w = trap_weights(grid.n + 1, grid.dt)
    averages = (basis.samples * w) @ f / basis.element_masses()
    assert np.max(np.abs(averages - (3.0 - 2.0 * basis.dual_abscissae()))) <= 1e-12


def test_hat_basis_too_fine_rejected():
    with pytest.raises(GridMismatchError):
        hat_basis(TimeGrid(0.1, 10), 15)


# ---------------------------------------------------------------------------
# response tables
# ---------------------------------------------------------------------------


def _wave_setup(m=64, n=4, T_max=0.5, L=1.0, kernel="const", q=None):
    dt = T_max / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    if kernel == "general":
        ker2 = general_kernel(grid2)
    else:
        ker2 = build_kernel(grid2, kernel, rate=1.0)
    basis = hat_basis(grid, n)
    qf = q if q is not None else (lambda x: np.zeros_like(x))
    tab = synthesize_table(basis, ker2, qf, L)
    return tab, basis, ker2, grid, grid2


def test_synthesize_requires_reflection_free_window():
    dt = 0.5 / 32
    grid, grid2 = TimeGrid(dt, 32), TimeGrid(dt, 64)
    basis = hat_basis(grid, 3)
    ker2 = build_kernel(grid2, "const")
    with pytest.raises(GridMismatchError):
        synthesize_table(basis, ker2, lambda x: np.zeros_like(x), L=0.75)


def test_response_table_shape_validation():
    tab, basis, ker2, grid, grid2 = _wave_setup()
    with pytest.raises(GridMismatchError):
        ResponseTable(basis=basis, kernel=ker2, Y=tab.Y[:, :-1])
    bad = tab.Y.copy()
    bad[2, 0] = 100.0 / basis.spacing
    with pytest.raises(GridMismatchError):
        ResponseTable(basis=basis, kernel=ker2, Y=bad)


def test_wave_responses_are_negative_derivatives():
    tab, basis, ker2, grid, grid2 = _wave_setup(m=128, n=6)
    E = basis.sampled_on(grid2)
    for i in range(basis.n):
        expected = -centered_difference(E[i], grid2.dt)
        assert np.max(np.abs(tab.Y[i] - expected)) <= 1e-10


def _per_control_table(basis, kernel, q, L):
    """Reference synthesis: one forward solve per basis control (noiseless)."""
    grid2 = kernel.grid
    res = resolvent(kernel)
    p = StringProblem(L=L, q=q, kernel=kernel, T=grid2.t_max)
    return np.vstack(
        [solve_mild(p, Sampled1D(grid2, c), res=res).y.values for c in basis.sampled_on(grid2)]
    )


@pytest.mark.parametrize("kernel", ["const", "exp", "general"])
def test_synthesize_matches_per_control_reference(kernel):
    # 5 hats on 64 steps: knot gaps of 10 and 11 steps, so the rows are not
    # shifts of one another and the Toeplitz product is checked in general
    m, L = 64, 1.0
    q = lambda x: 0.5 + 0.4 * x
    tab, basis, ker2, grid, grid2 = _wave_setup(m=m, n=5, L=L, kernel=kernel, q=q)
    assert len(set(np.diff(basis.knots / grid.dt).round().astype(int))) > 1
    Y = _per_control_table(basis, ker2, q, L)
    assert np.max(np.abs(tab.Y - Y)) <= 1e-13 * np.max(np.abs(Y))

    # the noise step is unchanged: seeded Gaussian samples on top of the
    # noiseless table, none at t = 0
    sigma, seed = 1e-3, 11
    noisy = synthesize_table(basis, ker2, q, L, noise_sigma=sigma, seed=seed, meta={"seed": seed})
    noise = sigma * np.random.default_rng(seed).standard_normal(Y.shape)
    noise[:, 0] = 0.0
    assert np.array_equal(noisy.Y, tab.Y + noise)
    assert noisy.meta == {"provenance": "synthetic", "L": L, "noise_sigma": sigma, "seed": seed}


# ---------------------------------------------------------------------------
# the affine source and the stepwise chain it collapses
# ---------------------------------------------------------------------------


def _chain_inputs(tab, basis, grid2, i, j):
    E = basis.sampled_on(grid2)
    return (
        Sampled1D(grid2, E[i]),
        Sampled1D(grid2, E[j]),
        Sampled1D(grid2, tab.Y[i]),
        Sampled1D(grid2, tab.Y[j]),
    )


def _phi(f, g, yf, yg, ker, m):
    """Reference first step of the chain, as rank-two factors:
    Phi(s,t) = (N*f)(t) y^g(s) - (N*y^f)(t) g(s), t truncated to [0, m*dt].
    Returns ((s-factors), (t-factors)); Phi = outer(s0, t0) - outer(s1, t1)."""
    dt = ker.grid.dt
    A = convolve_values(ker.N.values, f, dt)[: m + 1]
    B = convolve_values(ker.N.values, yf, dt)[: m + 1]
    return (yg, g), (A, B)


def _psi(factors, ker):
    """Reference second step: Psi(s,t) = int_0^s N(s-r) Phi(r,t) dr."""
    (a, b), t_factors = factors
    dt = ker.grid.dt
    return (convolve_values(ker.N.values, a, dt), convolve_values(ker.N.values, b, dt)), t_factors


def _dense(factors):
    (a, b), (A, B) = factors
    return np.outer(a, A) - np.outer(b, B)


def test_phi_zero_inputs():
    tab, basis, ker2, grid, grid2 = _wave_setup()
    zero = np.zeros(grid2.n + 1)
    assert np.all(_dense(_phi(zero, zero, zero, zero, ker2, grid.n)) == 0.0)


def test_phi_classical_closed_form():
    # N == 1, q == 0: Phi(s,t) = (int f)(t) y_g(s) - (int y_f)(t) g(s) with
    # y = -f' for both controls
    tab, basis, ker2, grid, grid2 = _wave_setup(m=128, n=5)
    f, g, yf, yg = (v.values for v in _chain_inputs(tab, basis, grid2, 1, 3))
    field = _dense(_phi(f, g, yf, yg, ker2, grid.n))
    m = grid.n
    A = cumulative_values(f, grid2.dt)[: m + 1]
    B = cumulative_values(yf, grid2.dt)[: m + 1]
    expected = np.outer(yg, A) - np.outer(g, B)
    assert np.max(np.abs(field - expected)) <= 1e-10


def test_psi_zero_and_wave_reduction():
    tab, basis, ker2, grid, grid2 = _wave_setup(m=96, n=4)
    f, g, yf, yg = (v.values for v in _chain_inputs(tab, basis, grid2, 0, 2))
    p_factors = _phi(f, g, yf, yg, ker2, grid.n)
    s_field = _dense(_psi(p_factors, ker2))
    # N == 1: Psi(s,t) = int_0^s Phi(r,t) dr
    direct = np.apply_along_axis(lambda col: cumulative_values(col, grid2.dt), 0, _dense(p_factors))
    assert np.max(np.abs(s_field - direct)) <= 1e-10


def test_psi_separable_against_brute_force():
    # Phi = a(t) b(s): Psi = a(t) (N*b)(s), cross-checked by dense quadrature
    m = 48
    dt = 0.4 / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    ker = general_kernel(grid2)
    a_t = np.sin(grid.nodes() * 4.0)
    b_s = np.cos(grid2.nodes() * 2.0)
    zero_s, zero_t = np.zeros_like(b_s), np.zeros_like(a_t)
    factors = ((b_s, zero_s), (a_t, zero_t))
    out = _dense(_psi(factors, ker))
    dense = _dense(factors)
    brute = np.empty_like(dense)
    for k in range(grid.n + 1):
        brute[:, k] = convolve_values(ker.N.values, dense[:, k], dt)
    assert np.max(np.abs(out - brute)) <= 1e-12


def test_affine_chain_matches_stepwise_discrete_chain():
    """The closed-form affine term equals the literal chain
    (s-derivative of Psi -> s-resolvent -> t-derivative -> t-resolvent ->
    exponential weights) up to quadrature order."""

    def stepwise(tab, basis, ker, res, grid, grid2, i, j):
        dt = grid.dt
        m = grid.n
        E = basis.sampled_on(grid2)
        f, g, yf, yg = E[i], E[j], tab.Y[i], tab.Y[j]
        n = ker.N.values
        n1 = ker.N1.values
        R = res.R.values
        # t-factors of Phi and their analytic derivative chain
        A = convolve_values(n, f, dt)[: m + 1]
        B = convolve_values(n, yf, dt)[: m + 1]
        Ap = (f + convolve_values(n1, f, dt))[: m + 1]
        Bp = (yf + convolve_values(n1, yf, dt))[: m + 1]
        # s-factors: Psi, d/ds Psi, s-resolvent application
        a, b = yg, g
        da = a + convolve_values(n1, a, dt)
        db = b + convolve_values(n1, b, dt)
        Fa = da - convolve_values(R, da, dt)
        Fb = db - convolve_values(R, db, dt)
        # t-resolvent on the differentiated t-factors
        Rm = R[: m + 1]
        GA = Ap - convolve_values(Rm, Ap, dt)
        GB = Bp - convolve_values(Rm, Bp, dt)
        es = np.exp(-res.gamma * grid2.nodes())
        et = np.exp(-res.gamma * grid.nodes())
        # G = -e^{-gamma t} (F2 - R *_t F2), F2 = -e^{-gamma s} dF/dt
        return np.outer(es * Fa, et * GA) - np.outer(es * Fb, et * GB)

    m = 64
    dt = 0.4 / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    ker = general_kernel(grid2)
    res = resolvent(ker)
    basis = hat_basis(grid, 4)
    tab = synthesize_table(basis, ker, lambda x: 0.5 + 0.4 * x, 1.0)
    f, g, yf, yg = _chain_inputs(tab, basis, grid2, 1, 3)
    closed = affine_source(f, g, yf, yg, res).values
    literal = stepwise(tab, basis, ker, res, grid, grid2, 1, 3)
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(closed - literal)) <= 30.0 * dt**2 * scale


def test_affine_term_antisymmetric_for_equal_controls():
    # for f = g the final affine term is antisymmetric on the shared square,
    # so its diagonal vanishes (this is where the classical antisymmetry of
    # the product-moment source survives the memory transforms)
    tab, basis, ker2, grid, grid2 = _wave_setup(m=64, n=4, kernel="exp")
    res = resolvent(ker2)
    f, _, yf, _ = _chain_inputs(tab, basis, grid2, 2, 2)
    G = affine_source(f, f, yf, yf, res).values
    m = grid.n
    square = G[: m + 1, :]
    assert np.max(np.abs(square + square.T)) <= 1e-12 * max(np.max(np.abs(G)), 1e-30)
    assert np.max(np.abs(np.diag(square))) <= 1e-12 * max(np.max(np.abs(G)), 1e-30)


# ---------------------------------------------------------------------------
# the two-variable wave solve
# ---------------------------------------------------------------------------


def test_blago_zero_source():
    m = 24
    grid, grid2 = TimeGrid(0.01, m), TimeGrid(0.01, 2 * m)
    res = resolvent(general_kernel(grid2))
    G = Sampled2D(grid2, grid, np.zeros((2 * m + 1, m + 1)))
    sol = blago_solve(G, res)
    assert np.all(sol.W.values == 0.0)
    assert np.all(sol.H.values == 0.0)


def test_blago_quadrature_is_single_triangle_pass(rng):
    # R2 == 0 (exponential family): W = (1/2) int_D G, one quadrature
    m = 32
    grid, grid2 = TimeGrid(0.01, m), TimeGrid(0.01, 2 * m)
    res = resolvent(build_kernel(grid2, "exp", rate=1.0))
    assert not np.any(res.K.values)
    vals = rng.standard_normal((2 * m + 1, m + 1))
    G = Sampled2D(grid2, grid, vals)
    sol = blago_solve(G, res)  # auto -> quadrature
    assert sol.scheme == "quadrature"
    for (i, k) in [(m, m), (7, 5), (40, 20), (3, 9)]:
        assert abs(sol.W.values[i, k] - triangle_quadrature(G, i, k)) <= 1e-12


def test_blago_march_agrees_with_quadrature_when_memoryless():
    tab, basis, ker2, grid, grid2 = _wave_setup(m=96, n=3, kernel="exp")
    res = resolvent(ker2)
    f, g, yf, yg = _chain_inputs(tab, basis, grid2, 0, 2)
    G = affine_source(f, g, yf, yg, res)
    a = blago_solve(G, res, scheme="quadrature")
    b = blago_solve(G, res, scheme="march")
    scale = np.max(np.abs(a.diagonal()))
    assert np.max(np.abs(a.diagonal() - b.diagonal())) <= 5e-3 * scale


def test_blago_march_agrees_with_picard_general_kernel():
    tab, basis, ker2, grid, grid2 = _wave_setup(m=64, n=3, kernel="general",
                                                q=lambda x: 0.3 + 0.4 * x)
    res = resolvent(ker2)
    f, g, yf, yg = _chain_inputs(tab, basis, grid2, 0, 1)
    G = affine_source(f, g, yf, yg, res)
    a = blago_solve(G, res, scheme="march")
    b = blago_solve(G, res, scheme="picard", tol=1e-13)
    scale = np.max(np.abs(a.diagonal()))
    assert np.max(np.abs(a.diagonal() - b.diagonal())) <= 2e-2 * scale
    # sigma only conditions the iteration; the result must not depend on it
    c = blago_solve(G, res, scheme="picard", sigma_weight=2.0, tol=1e-13)
    assert np.max(np.abs(b.diagonal() - c.diagonal())) <= 1e-8 * scale


@pytest.mark.parametrize("q", [2, 7])
def test_march_invariant_under_whole_step_delays(rng, q):
    # the premise of the Gram's spike readout: phi(s) delta_q gives the
    # delta_1 solution delayed by q-1 levels on the live rows
    m = 48
    grid2 = TimeGrid(0.4 / m, 2 * m)
    kmem = resolvent(general_kernel(grid2)).K.values
    n_s = len(kmem) - 1
    phi = rng.standard_normal((n_s + 1, 1))
    spike = lambda level: lambda k: phi[: n_s - k + 1] * float(k == level)
    W1 = _march(spike(1), kmem, m, grid2.dt)[:, :, 0]
    Wq = _march(spike(q), kmem, m, grid2.dt)[:, :, 0]
    assert np.max(np.abs(W1)) > 0.0 and np.all(Wq[: q + 1] == 0.0)
    for k in range(q + 1, m + 1):
        live = n_s - k + 1
        gap = np.max(np.abs(Wq[k, :live] - W1[k - q + 1, :live]))
        assert gap <= 1e-15 * np.max(np.abs(W1[k - q + 1, :live]))


def test_blago_quadrature_refuses_memory_kernel():
    m = 16
    grid, grid2 = TimeGrid(0.01, m), TimeGrid(0.01, 2 * m)
    res = resolvent(general_kernel(grid2))
    G = Sampled2D(grid2, grid, np.ones((2 * m + 1, m + 1)))
    with pytest.raises(NumericalFailure):
        blago_solve(G, res, scheme="quadrature")


def test_blago_picard_iteration_budget_error():
    m = 24
    grid, grid2 = TimeGrid(0.02, m), TimeGrid(0.02, 2 * m)
    res = resolvent(general_kernel(grid2))
    S, T = np.meshgrid(grid2.nodes(), grid.nodes(), indexing="ij")
    G = Sampled2D(grid2, grid, np.sin(S) * T)
    with pytest.raises(NumericalFailure):
        blago_solve(G, res, scheme="picard", tol=1e-16, max_iter=1)


def test_blago_boundary_conditions():
    tab, basis, ker2, grid, grid2 = _wave_setup(m=48, n=3, kernel="general",
                                                q=lambda x: 0.5 * np.ones_like(x))
    res = resolvent(ker2)
    f, g, yf, yg = _chain_inputs(tab, basis, grid2, 0, 2)
    G = affine_source(f, g, yf, yg, res)
    sol = blago_solve(G, res, scheme="march")
    hmax = np.max(np.abs(sol.H.values))
    assert np.max(np.abs(sol.H.values[0, :])) <= 1e-10 * hmax
    assert np.max(np.abs(sol.H.values[:, 0])) <= 1e-10 * hmax


def test_blago_classical_product_moment_off_diagonal():
    # memoryless case: H(s,t) = int_0^min(s,t) f(t-x) g(s-x) dx in closed form
    m, T = 128, 0.5
    dt = T / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    ker = build_kernel(grid2, "const")
    res = resolvent(ker)
    t2 = grid2.nodes()
    f_full = bump(t2, 0.05, 0.45)
    g_full = bump(t2, 0.10, 0.40)
    yf = -centered_difference(f_full, dt)
    yg = -centered_difference(g_full, dt)
    G = affine_source(
        Sampled1D(grid2, f_full), Sampled1D(grid2, g_full),
        Sampled1D(grid2, yf), Sampled1D(grid2, yg), res,
    )
    sol = blago_solve(G, res)

    def closed(s, t):
        x = np.linspace(0.0, min(s, t), 4001)
        fa = np.interp(t - x, t2, f_full)
        ga = np.interp(s - x, t2, g_full)
        return np.trapezoid(fa * ga, x)

    for (i, k) in [(m, m), (m // 2, m // 2), (3 * m // 2, m // 2), (m // 4, m // 2)]:
        s, t = grid2.nodes()[i], grid.nodes()[k]
        assert abs(sol.H.values[i, k] - closed(s, t)) <= 2e-4 * max(abs(closed(m * dt, m * dt)), 1e-12)


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------


def _symmetrized(raw):
    flip = np.transpose(raw, (0, 2, 1))
    norms = np.linalg.norm(raw, axis=(1, 2))
    gaps = np.linalg.norm(raw - flip, axis=(1, 2))
    return 0.5 * (raw + flip), np.where(norms > 0, gaps / np.where(norms > 0, norms, 1.0), 0.0)


def _per_pair_gram(tab):
    """Reference assembly: one affine source and one blago_solve per ordered
    control pair, read on the diagonal; returns (symmetrized C, asymmetry)."""
    res = resolvent(tab.kernel)
    grid2 = tab.grid2
    controls = [Sampled1D(grid2, e) for e in tab.basis.sampled_on(grid2)]
    responses = [Sampled1D(grid2, y) for y in tab.Y]
    n = tab.basis.n
    raw = np.zeros((tab.basis.grid.n + 1, n, n))
    for i in range(n):
        for j in range(n):
            G = affine_source(controls[i], controls[j], responses[i], responses[j], res)
            raw[:, i, j] = blago_solve(G, res).diagonal()
    return _symmetrized(raw)


def _blocked_march_gram(tab):
    """Reference assembly for K != 0: one march per j and block of 4 i, with
    the rank-two source of every pair marched in full."""
    basis = tab.basis
    m, dt = basis.grid.n, basis.grid.dt
    res = resolvent(tab.kernel)
    es = np.exp(-res.gamma * tab.grid2.nodes())
    a, c = (es * tab.Y).T, (es * basis.sampled_on(tab.grid2)).T
    kmem = res.K.values
    n, n_s = basis.n, len(kmem) - 1
    diag, block = np.arange(m + 1), 4
    raw = np.zeros((m + 1, n, n))
    for j in range(n):
        for lo in range(0, n, block):
            b, d = c[: m + 1, lo : lo + block], a[: m + 1, lo : lo + block]
            W = _march(
                lambda k: a[: n_s - k + 1, j, None] * b[k] - c[: n_s - k + 1, j, None] * d[k],
                kmem, m, dt,
            )
            raw[:, lo : lo + block, j] = W[diag, diag]
    raw *= np.exp(2.0 * res.gamma * basis.grid.nodes())[:, None, None]
    return _symmetrized(raw)


@pytest.mark.parametrize("kernel", ["const", "exp", "general"])
def test_gram_matches_per_pair_reference(kernel):
    # const/exp take the closed-form diagonal, general the spike-response
    # march, whose readout of the pairs is checked against full marches here
    tab, basis, ker2, grid, grid2 = _wave_setup(m=24, n=6, kernel=kernel, q=lambda x: 0.5 + 0.4 * x)
    gram = gram_from_data(tab)
    C, asym = _per_pair_gram(tab)
    assert np.all(gram.C[0] == 0.0) and np.all(C[0] == 0.0)
    for k in range(1, grid.n + 1):
        assert np.linalg.norm(gram.C[k] - C[k]) <= 1e-12 * np.linalg.norm(C[k])
    # some horizons are symmetric to round-off (asymmetry ~1e-17), where no
    # relative digit is defined; compare on the scale of the diagnostic
    assert np.max(np.abs(gram.asymmetry - asym)) <= 1e-12 * np.max(asym)


def test_gram_matches_blocked_march_reference():
    # the general-identify instance: n = 16, dt = 1/128, general kernel
    m, L = 128, 2.0
    tab, basis, ker2, grid, grid2 = _wave_setup(
        m=m, n=16, T_max=1.0, L=L, kernel="general", q=lambda x: 1.0 + 0.25 * np.sin(np.pi * x / L)
    )
    gram = gram_from_data(tab)
    C, asym = _blocked_march_gram(tab)
    assert np.all(gram.C[0] == 0.0) and np.all(C[0] == 0.0)
    for k in range(1, m + 1):
        assert np.linalg.norm(gram.C[k] - C[k]) <= 1e-13 * np.linalg.norm(C[k])
    assert np.max(np.abs(gram.asymmetry - asym)) <= 1e-12 * np.max(asym)


def test_gram_identity_case_is_mass_matrix():
    tab, basis, ker2, grid, grid2 = _wave_setup(m=128, n=8)
    gram = gram_from_data(tab)
    assert frob_rel(gram.at(grid.t_max), basis.mass_matrix()) <= 1e-2
    assert np.max(gram.asymmetry) <= 0.02


def test_gram_zero_controls_zero_table():
    m, n = 32, 3
    dt = 0.5 / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    knots = hat_basis(grid, n).knots
    basis = ControlBasis(grid=grid, knots=knots, samples=np.zeros((n, m + 1)))
    ker2 = build_kernel(grid2, "const")
    tab = ResponseTable(basis=basis, kernel=ker2, Y=np.zeros((n, 2 * m + 1)))
    gram = gram_from_data(tab)
    assert np.all(gram.C == 0.0)


def test_gram_memory_case_matches_oracle_at_all_horizons():
    tab, basis, ker2, grid, grid2 = _wave_setup(
        m=96, n=6, kernel="exp", q=lambda x: 1.0 + 0.5 * np.sin(np.pi * x)
    )
    gram = gram_from_data(tab)
    ker1 = build_kernel(grid, "exp", rate=1.0)
    p = StringProblem(1.0, lambda x: 1.0 + 0.5 * np.sin(np.pi * x), ker1, grid.t_max)
    orc = gram_oracle(p, basis)
    for k in range(8, grid.n + 1, 24):
        assert frob_rel(gram.C[k], orc.C[k]) <= 2e-2


def test_gram_general_kernel_matches_oracle():
    tab, basis, ker2, grid, grid2 = _wave_setup(
        m=64, n=4, kernel="general", q=lambda x: 0.3 + 0.4 * x
    )
    gram = gram_from_data(tab)
    kerg = general_kernel(grid)
    p = StringProblem(1.0, lambda x: 0.3 + 0.4 * x, kerg, grid.t_max)
    orc = gram_oracle(p, basis)
    assert frob_rel(gram.at(grid.t_max), orc.at(grid.t_max)) <= 1e-2


def test_gram_bilinearity_under_basis_scaling():
    tab, basis, ker2, grid, grid2 = _wave_setup(m=64, n=4, kernel="exp")
    gram1 = gram_from_data(tab)
    basis2 = ControlBasis(grid=grid, knots=basis.knots, samples=2.0 * basis.samples)
    tab2 = ResponseTable(basis=basis2, kernel=ker2, Y=2.0 * tab.Y, meta=tab.meta)
    gram2 = gram_from_data(tab2)
    assert np.max(np.abs(gram2.C - 4.0 * gram1.C)) <= 1e-10 * np.max(np.abs(gram1.C))


def test_gram_oracle_symmetric_psd():
    tab, basis, ker2, grid, grid2 = _wave_setup(m=64, n=5, kernel="exp",
                                                q=lambda x: 0.5 + 0.5 * x)
    ker1 = build_kernel(grid, "exp", rate=1.0)
    p = StringProblem(1.0, lambda x: 0.5 + 0.5 * x, ker1, grid.t_max)
    orc = gram_oracle(p, basis)
    C = orc.at(grid.t_max)
    assert np.max(np.abs(C - C.T)) == 0.0
    assert np.linalg.eigvalsh(C)[0] >= -1e-12 * np.linalg.norm(C)


def test_gram_oracle_zero_control():
    m = 32
    dt = 0.5 / m
    grid = TimeGrid(dt, m)
    knots = hat_basis(grid, 1).knots
    basis = ControlBasis(grid=grid, knots=knots, samples=np.zeros((1, m + 1)))
    ker = build_kernel(grid, "const")
    p = StringProblem(1.0, lambda x: np.zeros_like(x), ker, grid.t_max)
    orc = gram_oracle(p, basis)
    assert np.all(orc.C == 0.0)
