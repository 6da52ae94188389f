import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viscostring.errors import GridMismatchError, NumericalFailure
from viscostring.grid import (
    Sampled1D,
    Sampled2D,
    TimeGrid,
    centered_difference,
    convolve_values,
    cumulative_values,
    trap_weights,
)
from viscostring.kernels import build_kernel, resolvent
from viscostring.forward import StringProblem, solve_mild
from viscostring.connecting import (
    ControlBasis,
    ResponseTable,
    _diagonal_closed_form,
    _diagonal_march,
    _gaussian,
    _green,
    _row0_density,
    _splitmix64,
    gram_from_data,
    gram_oracle,
    hat_basis,
    synthesize_table,
)

from conftest import (
    _spy_green,
    frob_rel,
    general_kernel,
    simpson_products,
    triangle_quadrature,
)


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


def test_hat_basis_mass_matrix_uniform_lattice():
    # 32 knot intervals on 256 steps: exactly uniform, closed form applies
    grid = TimeGrid(0.5 / 256, 256)
    basis = hat_basis(grid, 31)
    delta = grid.t_max / 32
    ideal = (
        np.diag(np.full(31, 2 * delta / 3))
        + np.diag(np.full(30, delta / 6), 1)
        + np.diag(np.full(30, delta / 6), -1)
    )
    assert np.max(np.abs(basis.mass_matrix - ideal)) <= 1e-12


def test_hat_basis_dual_abscissae_affine_exact():
    grid = TimeGrid(1.0 / 128, 128)
    basis = hat_basis(grid, 9)
    t = grid.nodes()
    f = 3.0 - 2.0 * t  # affine
    w = trap_weights(grid.n + 1, grid.dt)
    averages = (basis.samples * w) @ f / basis.element_masses
    assert np.max(np.abs(averages - (3.0 - 2.0 * basis.dual_abscissae))) <= 1e-12


@st.composite
def _rising_knot_nodes(draw):
    m = draw(st.integers(2, 96))
    interior = draw(st.lists(st.integers(1, m - 1), min_size=1, max_size=m - 1, unique=True))
    return np.array([0, *sorted(interior), m])


@settings(max_examples=80, deadline=None)
@given(_rising_knot_nodes(), st.sampled_from([1.0 / 64, 0.01, 0.3]))
@example(np.array([0, 1, 2]), 0.01)  # n = 1 on one-step tents
@example(np.arange(12), 1.0 / 64)  # every tent one step wide
def test_basis_products_from_the_knots_are_the_simpson_products_of_the_samples(nodes, dt):
    basis = ControlBasis(TimeGrid(dt, int(nodes[-1])), nodes)
    S, t = basis.samples, basis.grid.nodes()[None, :]
    masses = simpson_products(S, np.ones_like(t), dt)[:, 0]
    M = simpson_products(S, S, dt)
    abscissae = simpson_products(S, t, dt)[:, 0] / masses
    assert np.max(np.abs(basis.element_masses - masses) / masses) <= 1e-14
    assert np.max(np.abs(basis.mass_matrix - M)) <= 1e-14 * np.max(np.abs(M))
    assert np.max(np.abs(basis.dual_abscissae - abscissae) / abscissae) <= 1e-14


def test_hat_basis_too_fine_rejected():
    with pytest.raises(GridMismatchError):
        hat_basis(TimeGrid(0.1, 10), 15)


def test_hat_basis_checks_its_size_before_forming_the_knots():
    # n hats need n+2 distinct knots among the grid's n+1 nodes; a size numpy
    # could not allocate knots for is a GridMismatchError, not a MemoryError
    grid = TimeGrid(0.1, 10)
    assert np.array_equal(hat_basis(grid, 9).knot_nodes, np.arange(11))
    for n in (10, 10**17):
        with pytest.raises(GridMismatchError, match="distinct knots"):
            hat_basis(grid, n)


@pytest.mark.parametrize(
    "knot_nodes",
    [
        np.array([0.0, 16.0, 32.0, 48.0, 64.0]),  # float, even with integral values
        np.array([0, 16, 48, 32, 64]),  # not rising
        np.array([0, 16, 16, 48, 64]),  # repeated
        np.array([1, 16, 32, 48, 64]),  # does not start at node 0
        np.array([0, 16, 32, 48, 63]),  # does not end at node m
        np.array([0, 64]),  # too short: no hat
        np.array([[0, 32, 64]]),  # not one-dimensional
    ],
    ids=["float", "non-rising", "repeated", "first-not-0", "last-not-m", "too-short", "2-d"],
)
def test_control_basis_rejects_bad_knot_nodes(knot_nodes):
    with pytest.raises(GridMismatchError, match="basis knots"):
        ControlBasis(TimeGrid(0.5 / 64, 64), knot_nodes)


def test_control_basis_stores_only_its_knot_nodes():
    grid = TimeGrid(0.5 / 64, 64)
    basis = ControlBasis(grid, [0, 20, 40, 64])
    assert [f.name for f in dataclasses.fields(basis)] == ["grid", "knot_nodes"]
    assert basis.knot_nodes.dtype == int and basis.n == 2
    for derived in (basis.knot_nodes, basis.knots, basis.samples):
        assert not derived.flags.writeable


def _reference_hats(grid: TimeGrid, knot_idx: np.ndarray) -> tuple:
    """Reference knots and samples: the tent formula on the knot times, with
    the end columns set to 0 explicitly rather than left to the formula."""
    knots = knot_idx * grid.dt
    t = grid.nodes()
    a, c, b = knots[:-2, None], knots[1:-1, None], knots[2:, None]
    samples = np.clip(np.minimum((t - a) / (c - a), (b - t) / (b - c)), 0.0, None)
    samples[:, 0] = 0.0
    samples[:, -1] = 0.0
    return knots, samples


@pytest.mark.parametrize(
    "m, n",
    [(16, 15), (256, 32), (33, 5)],
    ids=["one-step-hats", "A7-7-8-step-lattice", "odd-m"],
)
def test_derived_hats_match_the_stored_hats_bit_for_bit(m, n):
    grid, grid2 = TimeGrid(0.5 / m, m), TimeGrid(0.5 / m, 2 * m)
    basis = hat_basis(grid, n)
    knots, samples = _reference_hats(grid, basis.knot_nodes)
    assert basis.knots.tobytes() == knots.tobytes()
    assert basis.samples.tobytes() == samples.tobytes()
    extended = np.zeros((n, 2 * m + 1))
    extended[:, : m + 1] = samples
    assert basis.sampled_on(grid2).tobytes() == extended.tobytes()


# ---------------------------------------------------------------------------
# response tables
# ---------------------------------------------------------------------------


def _wave_setup(m=64, n=4, T_max=0.5, L=1.0, kernel="const", q=None, rate=1.0):
    dt = T_max / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    if kernel == "general":
        ker2 = general_kernel(grid2)
    else:
        ker2 = build_kernel(grid2, kernel, rate=rate)
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
    bad[2, 0] = 100.0 / (grid.t_max / (basis.n + 1))
    with pytest.raises(GridMismatchError):
        ResponseTable(basis=basis, kernel=ker2, Y=bad)


def test_wave_responses_are_negative_derivatives():
    tab, basis, ker2, grid, grid2 = _wave_setup(m=128, n=6)
    E = basis.sampled_on(grid2)
    for i in range(basis.n):
        expected = -centered_difference(E[i], grid2.dt)
        assert np.max(np.abs(tab.Y[i] - expected)) <= 1e-10


@pytest.mark.parametrize("m, n", [(2, 1), (8, 6)])
@pytest.mark.parametrize("kernel", ["const", "exp", "general"])
def test_single_step_launch_goes_through_gram(m, n, kernel):
    # a first hat that rises over one step launches with y(0) = 2/dt under the
    # one-sided stencil; the table check must accept what synthesize_table builds
    L = 1.0
    tab, basis, ker2, grid, grid2 = _wave_setup(m=m, n=n, L=L, kernel=kernel, q=lambda x: 1.0 + 0.5 * x)
    assert basis.knots[1] == grid.dt
    launch = -centered_difference(basis.samples, grid.dt)[:, 0]
    assert np.max(np.abs(launch)) == 2.0 / grid.dt
    assert np.max(np.abs(tab.Y[:, 0] - launch)) <= 1e-12 * np.max(np.abs(launch))
    gram = gram_from_data(tab)
    assert gram.C.shape == (n + 2, n, n)
    assert np.all(np.isfinite(gram.C))


def _per_control_table(basis, kernel, q, L):
    """Reference synthesis: one forward solve per basis control (noiseless)."""
    grid2 = kernel.grid
    p = StringProblem(L=L, q=q, kernel=kernel, T=grid2.t_max)
    return np.vstack([solve_mild(p, Sampled1D(grid2, c)).y.values for c in basis.sampled_on(grid2)])


@pytest.mark.parametrize("kernel", ["const", "exp", "general"])
def test_synthesize_matches_per_control_reference(kernel):
    L = 1.0
    q = lambda x: 0.5 + 0.4 * x
    # 5 hats on 64 steps: knot gaps of 10 and 11 steps, so the rows are not
    # shifts of one another and the Toeplitz product is checked in general;
    # m - 1 hats: every hat rises and falls over one step, a one-node support
    for m, n in ((16, 15), (64, 5)):
        tab, basis, ker2, grid, grid2 = _wave_setup(m=m, n=n, L=L, kernel=kernel, q=q)
        gaps = set(np.diff(basis.knots / grid.dt).round().astype(int))
        assert gaps == {1} if n == m - 1 else len(gaps) > 1
        Y = _per_control_table(basis, ker2, q, L)
        assert np.max(np.abs(tab.Y - Y)) <= 1e-13 * np.max(np.abs(Y))

    # the noise step: seeded Gaussian samples of the reference stream on top
    # of the noiseless table, none at t = 0; math.log may round a sample one
    # ulp apart from numpy's log, which moves a sum by at most one ulp
    sigma, seed = 1e-3, 11
    noisy = synthesize_table(basis, ker2, q, L, noise_sigma=sigma, seed=seed, meta={"seed": seed})
    noise = sigma * _gaussian_reference(seed, Y.shape)
    noise[:, 0] = 0.0
    assert np.array_equal(noisy.Y[:, 0], tab.Y[:, 0])
    assert np.all(np.abs(noisy.Y - (tab.Y + noise)) <= np.spacing(np.abs(tab.Y + noise)))
    assert noisy.meta == {"noise_sigma": sigma, "seed": seed}  # what a manifest records


_MASK64 = 2**64 - 1


def _splitmix64_reference(seed, count):
    """SplitMix64 in Python integers: the state advances by the golden-ratio
    increment and each word is its mixed state (Steele, Lea and Flood,
    OOPSLA 2014)."""
    words, state = [], seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        words.append(z ^ (z >> 31))
    return words


def _gaussian_reference(seed, shape):
    """Box-Muller in Python floats: words 2c and 2c+1 give the flat cells 2c
    and 2c+1, with u1 = ((w >> 11) + 1) 2^-53 and u2 = (w >> 11) 2^-53."""
    size = math.prod(shape)
    words = _splitmix64_reference(seed, size + size % 2)
    out = []
    for w1, w2 in zip(words[::2], words[1::2]):
        r = math.sqrt(-2.0 * math.log(((w1 >> 11) + 1) * 2.0**-53))
        theta = 2.0 * math.pi * ((w2 >> 11) * 2.0**-53)
        out += [r * math.cos(theta), r * math.sin(theta)]
    return np.array(out[:size]).reshape(shape)


def test_noise_stream_is_splitmix64():
    # the published first words of seed 0
    assert [int(w) for w in _splitmix64(0, 3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
    ]
    # every word, across the wrap-around of the state at the top of the range
    for seed in (0, 11, 2**63 + 5, 2**64 - 1):
        assert [int(w) for w in _splitmix64(seed, 257)] == _splitmix64_reference(seed, 257)


@pytest.mark.parametrize("shape", [(1,), (3, 5), (4, 129)])
def test_gaussian_is_box_muller_by_flat_index(shape):
    got = _gaussian(11, shape)
    assert got.shape == shape
    np.testing.assert_allclose(got, _gaussian_reference(11, shape), rtol=1e-15, atol=0)
    # a cell's sample depends on the seed and its flat index only
    assert np.array_equal(got.ravel(), _gaussian(11, (1001,))[: got.size])


def test_gaussian_is_deterministic_and_keyed_by_the_seed():
    a = _gaussian(3, (8, 65))
    assert np.array_equal(a, _gaussian(3, (8, 65)))
    assert not np.any(a == _gaussian(4, (8, 65)))


def test_gaussian_moments_and_tails():
    # 8e5 samples: mean and standard deviation within 5 standard errors of
    # 0 and 1, and the two-sided 3-sigma tail share 0.0027 within ~3.5 of its
    # standard errors (5.8e-5)
    z = _gaussian(2026, (800, 1000))
    n = z.size
    assert abs(z.mean()) <= 5.0 / math.sqrt(n)
    assert abs(z.std() - 1.0) <= 5.0 / math.sqrt(2 * n)
    assert 0.0025 <= np.mean(np.abs(z) > 3.0) <= 0.0029


def test_synthesize_seed_outside_64_bits_raises():
    tab, basis, ker2, grid, grid2 = _wave_setup(m=16, n=3)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must lie in"):
            synthesize_table(basis, ker2, lambda x: 0.5 + 0.4 * x, 1.0, noise_sigma=1e-3, seed=seed)
    top = synthesize_table(basis, ker2, lambda x: 0.5 + 0.4 * x, 1.0, noise_sigma=1e-3, seed=2**64 - 1)
    assert np.all(np.isfinite(top.Y))


@pytest.mark.parametrize("kernel", ["const", "exp", "general"])
def test_synthesize_reads_q_on_the_backward_light_cone_only(kernel):
    # y(t) depends on the cells x + t' <= t only, and the table ends at
    # t = 2 T_max, so q beyond x = T_max cannot move a single bit of it
    T_max = 0.5
    q = lambda x: 0.5 + 0.4 * x
    far = lambda x: np.where(x > T_max + 1e-9, 40.0 - 30.0 * np.cos(9.0 * x), q(x))
    tab, basis, ker2, grid, grid2 = _wave_setup(m=64, n=6, T_max=T_max, L=1.5, kernel=kernel, q=q)
    assert np.array_equal(synthesize_table(basis, ker2, far, 1.5).Y, tab.Y)
    # the cone's last nonzero cells do read q: a change from x = T_max - dt
    # on shows (at x = T_max the field is on its front, where it vanishes)
    near = lambda x: np.where(x > T_max - grid.dt - 1e-9, 40.0 - 30.0 * np.cos(9.0 * x), q(x))
    assert not np.array_equal(synthesize_table(basis, ker2, near, 1.5).Y, tab.Y)


def test_synthesize_raises_when_q_overflows_the_solver():
    # the table path checks the spike's trace as solve_mild checks its output;
    # the CLI maps this to exit 3
    with pytest.raises(NumericalFailure, match="overflows the solver"):
        _wave_setup(q=lambda x: np.full_like(x, 1e16))


# ---------------------------------------------------------------------------
# the affine source and the stepwise chain it collapses
# ---------------------------------------------------------------------------


def _factors(tab, res):
    """The s-factors a = exp(-gamma s) y and c = exp(-gamma s) e of every
    control, one column each, as ``gram_from_data`` builds them."""
    es = np.exp(-res.gamma * tab.grid2.nodes())
    return (es * tab.Y).T, (es * tab.basis.sampled_on(tab.grid2)).T


def _affine_source(a, c, i, j, m):
    """The affine term of the control pair (e_i, e_j) in closed form, s-major
    with t on [0, t_m]: G_ij(s,t) = a_j(s) c_i(t) - c_j(s) a_i(t), which is
    exp(-gamma(s+t)) [ f(t) y^g(s) - y^f(t) g(s) ] (connecting module docstring)."""
    return np.outer(a[:, j], c[: m + 1, i]) - np.outer(c[:, j], a[: m + 1, i])


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
    closed = _affine_source(*_factors(tab, res), 1, 3, m)
    literal = stepwise(tab, basis, ker, res, grid, grid2, 1, 3)
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(closed - literal)) <= 30.0 * dt**2 * scale


def test_affine_term_antisymmetric_for_equal_controls():
    # for f = g the final affine term is antisymmetric on the shared square,
    # so its diagonal vanishes (this is where the classical antisymmetry of
    # the product-moment source survives the memory transforms)
    tab, basis, ker2, grid, grid2 = _wave_setup(m=64, n=4, kernel="exp")
    m = grid.n
    G = _affine_source(*_factors(tab, resolvent(ker2)), 2, 2, m)
    square = G[: m + 1, :]
    assert np.max(np.abs(square + square.T)) <= 1e-12 * max(np.max(np.abs(G)), 1e-30)
    assert np.max(np.abs(np.diag(square))) <= 1e-12 * max(np.max(np.abs(G)), 1e-30)


# ---------------------------------------------------------------------------
# the two-variable wave solve
# ---------------------------------------------------------------------------


def _reference_march(source, kmem, n_t, dt):
    """The unbanded march, kept as the reference: W[k, i, b] = W_b(s_i, t_k).

    source(k) is the level-k source on the live rows s_0..s_{n_s-k}, shape
    (n_s-k+1, batch).  Each level multiplies the full (n_s+1)^2 Toeplitz
    matrix of dt K and sums the whole t-history in one product."""
    n_s = len(kmem) - 1
    row0 = source(0)
    W = np.zeros((n_t + 1, n_s + 1, row0.shape[1]))
    W[1, 1:n_s] = 0.25 * dt * dt * (0.5 * row0[: n_s - 1] + row0[1:n_s] + 0.5 * row0[2:])
    kd = dt * kmem
    lag = np.arange(n_s + 1)
    toeplitz = np.tril(kd[np.abs(lag[:, None] - lag)], -1)
    for k in range(1, n_t):
        live = n_s - k + 1
        hist = np.dot(kd[k - 1 : 0 : -1], W[1:k].reshape(k - 1, W[0].size)).reshape(W[0].shape)
        Q = source(k) + hist[:live] - toeplitz[:live, :live] @ W[k, :live]
        W[k + 1, 1 : live - 1] = (
            W[k, 2:live] + W[k, : live - 2] - W[k - 1, 1 : live - 1] + dt * dt * Q[1 : live - 1]
        )
    return W


def test_blago_march_agrees_with_quadrature_when_memoryless():
    # with K == 0 the identity is solved by the triangle quadrature of its
    # source; the lozenge march approximates it to second order
    tab, basis, ker2, grid, grid2 = _wave_setup(m=96, n=3, kernel="exp")
    res = resolvent(ker2)
    assert not np.any(res.K.values)
    m = grid.n
    G = _affine_source(*_factors(tab, res), 0, 2, m)
    F = Sampled2D(grid2, grid, G)
    weight = np.exp(2.0 * res.gamma * grid.nodes())  # H = exp(gamma(s+t)) W
    quad = weight * [triangle_quadrature(F, k, k) for k in range(m + 1)]
    W = _reference_march(lambda k: G[: 2 * m - k + 1, k, None], res.K.values, m, grid.dt)
    march = weight * W[:, :, 0].diagonal()
    assert np.max(np.abs(quad - march)) <= 5e-3 * np.max(np.abs(quad))


def test_blago_boundary_conditions():
    # W(0, t) = 0 and W(s, 0) = 0, also for a pair whose source launches at t = 0
    tab, basis, ker2, grid, grid2 = _wave_setup(m=48, n=3, kernel="general",
                                                q=lambda x: 0.5 * np.ones_like(x))
    res = resolvent(ker2)
    G = _affine_source(*_factors(tab, res), 0, 2, grid.n)
    assert np.any(G[:, 0])
    m = grid.n
    W = _reference_march(lambda k: G[: 2 * m - k + 1, k, None], res.K.values, m, grid.dt)[:, :, 0]
    assert np.max(np.abs(W)) > 0.0
    assert np.all(W[0] == 0.0) and np.all(W[:, 0] == 0.0)


@pytest.mark.parametrize("q", [2, 7])
def test_march_invariant_under_whole_step_delays(rng, q):
    # a premise of the Gram's Green's-function readout: phi(s) delta_q gives the
    # delta_1 solution delayed by q-1 levels on the live rows
    m = 48
    grid2 = TimeGrid(0.4 / m, 2 * m)
    kmem = resolvent(general_kernel(grid2)).K.values
    n_s = len(kmem) - 1
    phi = rng.standard_normal((n_s + 1, 1))

    def spike(level):
        return _reference_march(lambda k: phi[: n_s - k + 1] * (k == level), kmem, m, grid2.dt)[:, :, 0]

    W1, Wq = spike(1), spike(q)
    assert np.max(np.abs(W1)) > 0.0 and np.all(Wq[: q + 1] == 0.0)
    for k in range(q + 1, m + 1):
        live = n_s - k + 1
        gap = np.max(np.abs(Wq[k, :live] - W1[k - q + 1, :live]))
        assert gap <= 1e-15 * np.max(np.abs(W1[k - q + 1, :live]))


def test_green_ignores_kernel_past_lag_2m(rng):
    # the free-space window spans 3m+2 rows, K is known to lag 2m only: the
    # band of 2m+1 rows never reads a lag past it, so any tail gives the same G
    m = 24
    grid2 = TimeGrid(0.4 / m, 2 * m)
    kmem = resolvent(general_kernel(grid2)).K.values
    noisy = np.concatenate([kmem, rng.standard_normal(m + 1)])
    assert np.array_equal(_green(noisy, m, grid2.dt), _green(kmem, m, grid2.dt))


def test_march_invariant_under_whole_row_shifts():
    # a unit source at two row offsets gives the same field relative to the
    # source at every level before its light cone reaches row 1 (the s = 0
    # clamp) and on the rows both live windows still hold
    m, n_s = 40, 100
    grid2 = TimeGrid(0.4 / m, n_s)
    kmem = resolvent(general_kernel(grid2)).K.values
    p1, p2 = 23, 36
    units = np.zeros((n_s + 1, 2))
    units[[p1, p2], [0, 1]] = 1.0
    W = _reference_march(lambda k: units[: n_s - k + 1] * (k == 1), kmem, m, grid2.dt)
    W1, W2 = W[:, :, 0], W[:, :, 1]
    scale = np.max(np.abs(W1))
    for lev in range(2, p1 + 1):
        d = np.arange(-p1 + 1, n_s - lev - p2 + 1)  # offsets live in both windows
        assert np.max(np.abs(W1[lev, p1 + d] - W2[lev, p2 + d])) <= 1e-14 * scale
        assert np.all(W1[lev, : p1 - lev + 2] == 0.0)  # support starts at d = -(l-2)


@pytest.mark.parametrize("m", [1, 2, 3, 15, 16, 17, 33, 128])
def test_green_matches_the_reference_march(m):
    # sizes straddle the march's block of 16 levels; G is read on d <= 2m - l
    # only, and below the light cone d = -(l-2) the banded march never writes
    grid2 = TimeGrid(0.5 / m, 2 * m)
    kmem = resolvent(general_kernel(grid2)).K.values
    G = _green(kmem, m, grid2.dt)
    n_s = 3 * m + 1
    kpad = np.zeros(n_s + 1)
    kpad[: 2 * m + 1] = kmem
    src = np.zeros((2, n_s + 1, 1))
    src[1, m + 1] = 1.0
    ref = _reference_march(lambda k: src[int(k == 1), : n_s - k + 1], kpad, m + 1, grid2.dt)[:, :, 0]
    assert G.shape == ref.shape == (m + 2, n_s + 1)
    lev, d = np.arange(m + 2)[:, None], np.arange(-(m + 1), 2 * m + 1)[None, :]
    exact = d <= 2 * m - lev
    assert np.max(np.abs(G - ref)[exact]) <= 1e-12 * np.max(np.abs(ref))
    assert np.all(G[np.broadcast_to(d < -(lev - 2), G.shape)] == 0.0)


@pytest.mark.parametrize("lift", [0, 1])
def test_row0_density_cancels_the_half_space_row1(rng, lift):
    # rho(l) = -W(s_1, t_l)/dt^2 for the half-space march of the same source:
    # at level 1 (lift 0) or as the level-1 seed (lift 1, source at level 0)
    m = 32
    grid2 = TimeGrid(0.4 / m, 2 * m)
    dt = grid2.dt
    kmem = resolvent(general_kernel(grid2)).K.values
    phi = rng.standard_normal((2 * m + 1, 3))
    level = 1 - lift
    W = _reference_march(lambda k: phi[: 2 * m - k + 1] * (k == level), kmem, m, dt)
    if lift:  # the seed the march builds from a level-0 source
        seed = np.zeros_like(phi)
        seed[1:-1] = 0.25 * (0.5 * phi[:-2] + phi[1:-1] + 0.5 * phi[2:])
        phi = seed
    rho = _row0_density(_green(kmem, m, dt), m, phi, phi)[lift]
    expected = -W[1:m, 1] / dt**2
    assert np.max(np.abs(rho - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("lift", [0, 1])
def test_row0_density_matches_the_dense_solve(rng, lift):
    # the Toeplitz solver against LU on the gathered matrix T[l, l'] = G[l-l'+2, 0]
    m = 64
    grid2 = TimeGrid(1.0 / m, 2 * m)
    G = _green(resolvent(general_kernel(grid2)).K.values, m, grid2.dt)
    src = rng.standard_normal((3 * m + 2, 5))
    o, lev = m + 1, np.arange(2, m + 1)
    T = G[np.maximum(lev[:, None] - lev[None, :] + 2, 0), o]
    assert np.all(np.triu(T, 1) == 0.0) and np.all(np.diag(T) == grid2.dt**2)
    ref = -np.linalg.solve(T, G[2 + lift : m + 1 + lift, o - 1 : 0 : -1] @ src[1 : m + 1])
    rho = _row0_density(G, m, src, src)[lift]
    assert np.max(np.abs(rho - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------


def _symmetrized(raw):
    flip = np.transpose(raw, (0, 2, 1))
    norms = np.linalg.norm(raw, axis=(1, 2))
    gaps = np.linalg.norm(raw - flip, axis=(1, 2))
    return 0.5 * (raw + flip), np.where(norms > 0, gaps / np.where(norms > 0, norms, 1.0), 0.0)


def _per_pair_gram(tab):
    """Reference assembly: every ordered pair's rank-two source solved on its
    own and read on the diagonal, by the reference march (all n^2 pairs in
    one batch) when K != 0 and by the direct triangle quadrature at each
    diagonal apex when K == 0; returns (symmetrized C, asymmetry) at every node."""
    basis = tab.basis
    m, dt = basis.grid.n, basis.grid.dt
    res = resolvent(tab.kernel)
    a, c = _factors(tab, res)
    kmem = res.K.values
    n, diag = basis.n, np.arange(m + 1)
    if np.any(kmem):
        I, J = np.divmod(np.arange(n * n), n)  # batch column i*n + j holds the pair (i, j)
        W = _reference_march(
            lambda k: a[: 2 * m - k + 1, J] * c[k, I] - c[: 2 * m - k + 1, J] * a[k, I], kmem, m, dt
        )
        raw = W[diag, diag].reshape(m + 1, n, n)
    else:
        raw = np.zeros((m + 1, n, n))
        for j in range(n):
            for i in range(n):
                F = Sampled2D(tab.grid2, basis.grid, _affine_source(a, c, i, j, m))
                raw[:, i, j] = [triangle_quadrature(F, k, k) for k in diag]
    raw *= np.exp(2.0 * res.gamma * basis.grid.nodes())[:, None, None]
    return _symmetrized(raw)


def _spike_march_gram(tab):
    """Reference assembly for K != 0: per control j the reference march of
    each of three t-spike sources (a_j and c_j at level 1, c_j at level 0 for
    the seed; all 3n in one batch), read against the t-factors of every i
    through whole-step delays:
    W_ij(t_k,t_k) + a_i(0) Psi0_c(s_k,t_k) = sum_{q>=1} [c_i(q) Psi_a - a_i(q) Psi_c](s_k,t_{k-q+1})."""
    basis = tab.basis
    m, dt = basis.grid.n, basis.grid.dt
    res = resolvent(tab.kernel)
    a, c = _factors(tab, res)
    kmem = res.K.values
    n, n_s = basis.n, len(kmem) - 1
    k = np.arange(m + 1)
    lev = np.maximum(k[:, None] - k[None, 1:] + 1, 0)  # level k-q+1, q >= 1; W[0] = 0
    W = _reference_march(
        lambda l: np.hstack([a * (l == 1), c * (l == 1), c * (l == 0)])[: n_s - l + 1], kmem, m, dt
    )
    Wa, Wc, W0 = W[:, :, :n], W[:, :, n : 2 * n], W[:, :, 2 * n :]
    raw = np.einsum("kqj,qi->kij", Wa[lev, k[:, None]], c[1 : m + 1])
    raw -= np.einsum("kqj,qi->kij", Wc[lev, k[:, None]], a[1 : m + 1])
    raw -= W0[k, k][:, None, :] * a[0][:, None]
    raw *= np.exp(2.0 * res.gamma * basis.grid.nodes())[:, None, None]
    return _symmetrized(raw)


def _launch(basis):
    """The launch slope that bounds |y(0)| in a ResponseTable."""
    return np.max(np.abs(basis.samples[:, 1])) / basis.grid.dt


def _assert_gram_matches(gram, C, asym, rel):
    """gram (on the knots) against an all-node reference, read at the knot nodes."""
    nodes = gram.basis.knot_nodes
    C, asym = C[nodes], asym[nodes]
    assert gram.C.shape == C.shape
    assert np.all(gram.C[0] == 0.0) and np.all(C[0] == 0.0)
    for j in range(1, len(C)):
        assert np.linalg.norm(gram.C[j] - C[j]) <= rel * np.linalg.norm(C[j])
    # the asymmetry is a ratio of norms: a relative change rel of the raw
    # matrices moves it by at most ~2 rel, however small it is
    assert np.max(np.abs(gram.asymmetry - asym)) <= 4.0 * rel


@pytest.mark.parametrize("launch", ["first hat", "every control"])
def test_gram_matches_spike_march_reference(rng, launch):
    tab, basis, ker2, grid, grid2 = _wave_setup(
        m=64, n=7, kernel="general", q=lambda x: 0.5 + 0.4 * x
    )
    if launch == "every control":  # every pair runs the seed and its row-0 density
        Y = tab.Y.copy()
        Y[:, 0] = _launch(basis) * rng.uniform(-1.0, 1.0, basis.n)
        tab = ResponseTable(basis=basis, kernel=ker2, Y=Y)
    assert np.count_nonzero(tab.Y[:, 0]) == (1 if launch == "first hat" else basis.n)
    C, asym = _spike_march_gram(tab)
    _assert_gram_matches(gram_from_data(tab), C, asym, 1e-13)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
def test_gram_matches_per_pair_reference_at_edge_sizes(rng, m):
    # the smallest windows, down to the 1 x 1 row-0 system at m = 2; the
    # responses are random (the Gram is bilinear in the data) with every
    # y(0) inside the launch bound
    dt = 0.5 / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    ker2 = general_kernel(grid2)
    for n in range(1, m):
        basis = hat_basis(grid, n)
        Y = _launch(basis) * rng.uniform(-1.0, 1.0, (n, 2 * m + 1))
        tab = ResponseTable(basis=basis, kernel=ker2, Y=Y)
        C, asym = _per_pair_gram(tab)
        _assert_gram_matches(gram_from_data(tab), C, asym, 1e-12)


@pytest.mark.parametrize("n", [3, 8])
def test_general_gram_runs_one_single_column_march(monkeypatch, n):
    tab = _wave_setup(m=48, n=n, kernel="general", q=lambda x: 0.5 + 0.4 * x)[0]
    calls = _spy_green(monkeypatch)
    gram_from_data(tab)
    assert len(calls) == 1
    (_, m, _), G = calls[0]
    assert G.shape == (m + 2, 3 * m + 2)


@pytest.mark.parametrize(
    "kernel, rate",
    [("const", 1.0), ("exp", 1.0), ("general", 1.0), ("exp", 0.3), ("exp", 1.7)],
    ids=["const", "exp", "general", "exp-0.3", "exp-1.7"],
)
def test_gram_matches_per_pair_reference(monkeypatch, kernel, rate):
    # const/exp take the closed-form diagonal at any rate (no march), general
    # the free-space Green's-function readout (one march); the reference
    # solves every pair on its own
    tab, basis, ker2, grid, grid2 = _wave_setup(
        m=24, n=6, kernel=kernel, q=lambda x: 0.5 + 0.4 * x, rate=rate
    )
    calls = _spy_green(monkeypatch)
    gram = gram_from_data(tab)
    assert len(calls) == (kernel == "general")
    C, asym = _per_pair_gram(tab)
    C, asym = C[basis.knot_nodes], asym[basis.knot_nodes]
    assert gram.C.shape == C.shape
    assert np.all(gram.C[0] == 0.0) and np.all(C[0] == 0.0)
    for j in range(1, basis.n + 2):
        assert np.linalg.norm(gram.C[j] - C[j]) <= 1e-12 * np.linalg.norm(C[j])
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
    C, asym = _per_pair_gram(tab)  # one full march per pair
    C, asym = C[basis.knot_nodes], asym[basis.knot_nodes]
    assert gram.C.shape == C.shape
    assert np.all(gram.C[0] == 0.0) and np.all(C[0] == 0.0)
    for j in range(1, basis.n + 2):
        assert np.linalg.norm(gram.C[j] - C[j]) <= 1e-13 * np.linalg.norm(C[j])
    assert np.max(np.abs(gram.asymmetry - asym)) <= 1e-12 * np.max(asym)


def test_gram_identity_case_is_mass_matrix():
    tab, basis, ker2, grid, grid2 = _wave_setup(m=128, n=8)
    gram = gram_from_data(tab)
    assert frob_rel(gram.at(grid.t_max), basis.mass_matrix) <= 1e-2
    assert np.max(gram.asymmetry) <= 0.02


def _gram_factors(tab):
    """The factors a = exp(-gamma s) y and c = exp(-gamma s) e that
    gram_from_data hands to the diagonal readouts, with K and the knots."""
    res = resolvent(tab.kernel)
    es = np.exp(-res.gamma * tab.grid2.nodes())
    a, c = (es * tab.Y).T, (es * tab.basis.sampled_on(tab.grid2)).T
    return a, c, res.K.values, tab.basis.knot_nodes, tab.basis.grid.dt


@pytest.mark.parametrize("readout", ["closed_form", "march"])
def test_diagonal_readouts_vanish_on_zero_factors(readout):
    tab = _wave_setup(m=32, n=3, kernel="general")[0]
    a, c, kmem, nodes, dt = _gram_factors(tab)
    zero = np.zeros_like(a)
    if readout == "closed_form":
        raw = _diagonal_closed_form(zero, zero, nodes, dt)
    else:
        raw = _diagonal_march(zero, zero, kmem, nodes, dt)
    assert raw.shape == (len(nodes), 3, 3) and np.all(raw == 0.0)


def test_closed_form_matches_the_offset_running_trapezoid(rng):
    # the running trapezoid dt (sum_{p<=r} v_p - v_r/2) is the trapezoid
    # from 0 plus dt v_0/2, a constant offset that cancels in every S
    m, n, dt = 48, 5, 1.0 / 96
    a, c = rng.standard_normal((2, 2 * m + 1, n))
    nodes = np.round(np.arange(n + 2) * m / (n + 1)).astype(int)
    raw = _diagonal_closed_form(a, c, nodes, dt)
    w = 0.5 * trap_weights(m + 1, dt)[:, None]
    v = np.hstack([a, c])
    U = dt * (np.cumsum(v, axis=0) - 0.5 * v)
    ref = np.zeros_like(raw)
    for j, k in enumerate(nodes):
        S = U[2 * k : k : -1] - U[:k]
        ref[j] = (w * c[: m + 1])[:k].T @ S[:, :n] - (w * a[: m + 1])[:k].T @ S[:, n:]
    assert np.any(raw != 0.0)
    assert np.max(np.abs(raw - ref)) <= 1e-14 * np.max(np.abs(raw))


def _shift_gather_march(a, c, kmem, nodes, dt):
    """Reference diagonal march: each horizon's boundary-density matrix
    gathered from G through a table of levels l-l'+1 (G[0] = G[1] = 0)."""
    n, m, o = a.shape[1], nodes[-1], nodes[-1] + 1
    G = _green(kmem, m, dt)
    phi = np.hstack([a, c])
    seed = np.zeros_like(c)
    seed[1:-1] = 0.25 * (0.5 * c[:-2] + c[1:-1] + 0.5 * c[2:])
    rho, rho0 = _row0_density(G, m, phi, seed)
    lev = np.arange(1, m + 1)
    shift = np.maximum(lev[:, None] - lev[None, :-1] + 1, 0)
    raw = np.zeros((len(nodes), n, n))
    for j, k in enumerate(nodes):
        if k == 0:
            continue
        rows = slice(o - k + 1, o + k)
        H = G[shift[:k, : k - 1], o + k]
        psi = G[1 : k + 1, rows] @ phi[2 * k - 1 : 0 : -1] + H @ rho[: k - 1]
        psi0 = G[k + 1, rows] @ seed[2 * k - 1 : 0 : -1] + H[-1] @ rho0[: k - 1]
        raw[j] = c[k:0:-1].T @ psi[:, :n] - a[k:0:-1].T @ psi[:, n:] - np.outer(a[0], psi0)
    return raw


def test_diagonal_march_matches_the_shift_gather_bit_for_bit():
    tab = _wave_setup(m=40, n=5, kernel="general", q=lambda x: 0.5 + 0.4 * x)[0]
    a, c, kmem, nodes, dt = _gram_factors(tab)
    raw = _diagonal_march(a, c, kmem, nodes, dt)
    assert np.any(raw != 0.0)
    assert raw.tobytes() == _shift_gather_march(a, c, kmem, nodes, dt).tobytes()


def test_gram_memory_case_matches_oracle_at_all_horizons():
    tab, basis, ker2, grid, grid2 = _wave_setup(
        m=96, n=6, kernel="exp", q=lambda x: 1.0 + 0.5 * np.sin(np.pi * x)
    )
    gram = gram_from_data(tab)
    ker1 = build_kernel(grid, "exp", rate=1.0)
    p = StringProblem(1.0, lambda x: 1.0 + 0.5 * np.sin(np.pi * x), ker1, grid.t_max)
    orc = gram_oracle(p, basis)
    assert gram.C.shape == orc.C.shape == (basis.n + 2, basis.n, basis.n)
    for j in range(1, basis.n + 2):
        assert frob_rel(gram.C[j], orc.C[j]) <= 2e-2


def test_gram_general_kernel_matches_oracle():
    tab, basis, ker2, grid, grid2 = _wave_setup(
        m=64, n=4, kernel="general", q=lambda x: 0.3 + 0.4 * x
    )
    gram = gram_from_data(tab)
    kerg = general_kernel(grid)
    p = StringProblem(1.0, lambda x: 0.3 + 0.4 * x, kerg, grid.t_max)
    orc = gram_oracle(p, basis)
    assert frob_rel(gram.at(grid.t_max), orc.at(grid.t_max)) <= 1e-2


@pytest.mark.parametrize("readout", ["closed_form", "march"])
def test_diagonal_readouts_are_bilinear_in_the_factors(readout):
    # doubling every control doubles both factors and quadruples the Gram
    kernel = "exp" if readout == "closed_form" else "general"
    tab = _wave_setup(m=64, n=4, kernel=kernel)[0]
    a, c, kmem, nodes, dt = _gram_factors(tab)
    if readout == "closed_form":
        raw1 = _diagonal_closed_form(a, c, nodes, dt)
        raw2 = _diagonal_closed_form(2.0 * a, 2.0 * c, nodes, dt)
    else:
        raw1 = _diagonal_march(a, c, kmem, nodes, dt)
        raw2 = _diagonal_march(2.0 * a, 2.0 * c, kmem, nodes, dt)
    assert np.max(np.abs(raw2 - 4.0 * raw1)) <= 1e-10 * np.max(np.abs(raw1))


def test_gram_oracle_symmetric_psd():
    tab, basis, ker2, grid, grid2 = _wave_setup(m=64, n=5, kernel="exp",
                                                q=lambda x: 0.5 + 0.5 * x)
    ker1 = build_kernel(grid, "exp", rate=1.0)
    p = StringProblem(1.0, lambda x: 0.5 + 0.5 * x, ker1, grid.t_max)
    orc = gram_oracle(p, basis)
    C = orc.at(grid.t_max)
    assert np.max(np.abs(C - C.T)) == 0.0
    assert np.linalg.eigvalsh(C)[0] >= -1e-12 * np.linalg.norm(C)


def _per_pair_oracle(p, basis):
    """Reference oracle: per-pair products of the full forward fields with a
    running x-sum, read on the diagonal x = t at every node."""
    m, dt, n = basis.grid.n, basis.grid.dt, basis.n
    fields = [solve_mild(p, Sampled1D(basis.grid, e)).w.values for e in basis.samples]
    raw = np.zeros((m + 1, n, n))
    idx = np.arange(m + 1)
    for i in range(n):
        for j in range(i, n):
            prod = fields[i] * fields[j]
            h = dt * (np.cumsum(prod, axis=0)[idx, idx] - 0.5 * prod[0, idx] - 0.5 * prod[idx, idx])
            h[0] = 0.0
            raw[:, i, j] = raw[:, j, i] = h
    return raw


@pytest.mark.parametrize("kernel", ["const", "exp", "general"])
def test_gram_oracle_matches_per_pair_reference_at_the_knots(kernel):
    m, n = 48, 5
    grid = TimeGrid(0.5 / m, m)
    ker = {
        "const": lambda: build_kernel(grid, "const"),
        "exp": lambda: build_kernel(grid, "exp", rate=1.0),
        "general": lambda: general_kernel(grid),
    }[kernel]()
    p = StringProblem(1.0, lambda x: 0.5 + 0.4 * x, ker, grid.t_max)
    basis = hat_basis(grid, n)
    orc = gram_oracle(p, basis)
    C = _per_pair_oracle(p, basis)[basis.knot_nodes]
    assert orc.C.shape == C.shape == (n + 2, n, n)
    assert np.all(orc.C[0] == 0.0) and np.all(orc.asymmetry == 0.0)
    for j in range(1, n + 2):
        assert np.linalg.norm(orc.C[j] - C[j]) <= 1e-13 * np.linalg.norm(C[j])
