"""Connecting-operator Gram matrices from boundary data alone.

For two controls f, g the product moment

    H^{f,g}(s,t) = int_0^L w^f(x,t) w^g(x,s) dx

satisfies, after differentiating the model and unwinding the memory
convolutions with the resolvent, a perturbed wave equation in the two time
variables.  Substituting H = exp(gamma(s+t)) W(s,t) the equation becomes

    W_tt = W_ss + int_0^t K(t-r) W(s,r) dr - int_0^s K(s-r) W(r,t) dr + G

with zero data on s = 0 and t = 0, where K(r) = exp(-gamma r) R''(r) is the
memory kernel of the forward transform and the affine term collapses (all
derivatives expanded through d/dt (N*h) = h + N1*h and every resolvent
application inverted analytically) to

    G(s,t) = exp(-gamma(s+t)) [ f(t) y^g(s) - y^f(t) g(s) ].

Both f-factors are needed on [0,T] only while the g-factors run over
[0, 2T]: the characteristic triangle of the diagonal point (T,T) reaches
s = 2T, which is why responses must be recorded on a doubled window.

The diagonal values H^{f,g}(T,T) = <C_T f, g> assemble the Gram matrix of the
connecting operator C_T for a control basis, the data side of the coefficient
reconstruction.  For (f, g) = (e_i, e_j) the source has rank two, G_ij(s,t) =
a_j(s) b_i(t) - c_j(s) d_i(t) with a = exp(-gamma s) y, c = exp(-gamma s) e
and b = c, d = a on [0, T_max].  When K == 0 (constant and exponential
kernels) the diagonal is one triangle quadrature of G, and with the running
trapezoids U_x(s_r) = dt (sum_{p<=r} x(s_p) - x(s_r)/2) of the s-factors

    W_ij(t_k,t_k) = 1/2 sum_{tau<k} w_tau [b_i(tau) S_a,j(tau,k) - d_i(tau) S_c,j(tau,k)],
    S_x(tau,k) = U_x(s_{2k-tau}) - U_x(s_tau),   w_0 = dt/2,  w_tau = dt,

which writes C_T directly in terms of the response (Belishev, "Recent progress
in the boundary control method", Inverse Problems 23 (2007) R1-R67).  When
K != 0 a march of three t-spike sources per j serves every i.  ``gram_oracle``
computes the same Gram from forward-solver snapshots (it knows q; validation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, NumericalFailure
from .grid import (
    Sampled1D,
    Sampled2D,
    TimeGrid,
    TriangleAccumulator,
    centered_difference,
    convolve_values,
    trap_weights,
)
from .kernels import MemoryKernel, ResolventData, resolvent
from .forward import StringProblem, solve_mild

__all__ = [
    "ControlBasis",
    "hat_basis",
    "pw_linear_products",
    "ResponseTable",
    "synthesize_table",
    "affine_source",
    "BlagoSolution",
    "blago_solve",
    "ConnectingGram",
    "gram_from_data",
    "gram_oracle",
]


# ---------------------------------------------------------------------------
# Control basis and response data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlBasis:
    """Piecewise-linear hat controls on [0, T_max].

    n tents peaking at interior grid nodes close to the uniform lattice
    i*T_max/(n+1), each vanishing at 0 (forward-solver requirement) and at
    T_max.  Knots are snapped to grid nodes so that every kink of a control
    (and of its piecewise-constant response) sits on a quadrature node.
    Supports are nested: e_1..e_k span the controls supported in
    (0, knots[k+1]).
    """

    grid: TimeGrid
    knots: np.ndarray
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = np.array(self.samples, dtype=float)
        kn = np.array(self.knots, dtype=float)
        if s.ndim != 2 or s.shape[1] != self.grid.n + 1:
            raise GridMismatchError(
                f"basis samples must be (n, {self.grid.n + 1}), got {s.shape}"
            )
        if kn.shape != (s.shape[0] + 2,) or np.any(np.diff(kn) <= 0):
            raise GridMismatchError("basis needs n+2 strictly increasing knots")
        if np.any(np.abs(s[:, 0]) > 0):
            raise GridMismatchError("basis controls must vanish at t = 0")
        s.flags.writeable = False
        kn.flags.writeable = False
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "knots", kn)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def spacing(self) -> float:
        """Nominal center spacing T_max/(n+1) (knots are snapped to nodes)."""
        return self.grid.t_max / (self.n + 1)

    def dual_abscissae(self) -> np.ndarray:
        """First-moment points of the elements: <t, e_i>/<1, e_i>.

        A mass-weighted average <f, e_i>/<1, e_i> equals f at this abscissa
        exactly for affine f, which is what the steering readout relies on.
        """
        t = self.grid.nodes()[None, :].repeat(self.n, axis=0)
        return pw_linear_products(self.samples, t, self.grid.dt).diagonal() / self.element_masses()

    def active(self, T: float) -> np.ndarray:
        """Indices of hats supported inside (0, T] (support end <= T + dt/2)."""
        tol = 0.5 * self.grid.dt
        return np.nonzero(self.knots[2:] <= T + tol)[0]

    def mass_matrix(self) -> np.ndarray:
        """Exact L2(0, T_max) Gram of the basis (the samples are piecewise
        linear between nodes, so the cellwise Simpson sum is exact).  For a
        uniform knot lattice this is tridiag(spacing/6, 2*spacing/3)."""
        return pw_linear_products(self.samples, self.samples, self.grid.dt)

    def element_masses(self) -> np.ndarray:
        """<1, e_i>, exact for the piecewise-linear samples."""
        w = trap_weights(self.grid.n + 1, self.grid.dt)
        return self.samples @ w

    def sampled_on(self, grid2: TimeGrid) -> np.ndarray:
        """Zero-extend the basis samples onto a longer grid (same step)."""
        if not self.grid.compatible_step(grid2) or grid2.n < self.grid.n:
            raise GridMismatchError("extension grid must share the step and be longer")
        out = np.zeros((self.n, grid2.n + 1))
        out[:, : self.grid.n + 1] = self.samples
        return out


def pw_linear_products(A: np.ndarray, B: np.ndarray, dt: float) -> np.ndarray:
    """Exact pairwise L2 inner products of piecewise-linear node functions.

    Rows of A and B are samples; on every cell the product is quadratic, so
    the cellwise Simpson sum dt/6 * (2 v0 w0 + v0 w1 + v1 w0 + 2 v1 w1) is
    exact."""
    a0, a1 = A[:, :-1], A[:, 1:]
    b0, b1 = B[:, :-1], B[:, 1:]
    return (dt / 6.0) * (2.0 * a0 @ b0.T + a0 @ b1.T + a1 @ b0.T + 2.0 * a1 @ b1.T)


def hat_basis(grid: TimeGrid, n: int) -> ControlBasis:
    """n interior tents with knots at the grid nodes nearest i*T_max/(n+1)."""
    if n < 1:
        raise GridMismatchError(f"basis size must be >= 1, got {n}")
    knot_idx = np.round(np.arange(n + 2) * grid.n / (n + 1)).astype(int)
    if np.any(np.diff(knot_idx) < 1):
        raise GridMismatchError(
            f"basis of size {n} does not fit on a grid of {grid.n} steps"
        )
    knots = knot_idx * grid.dt
    t = grid.nodes()
    a, c, b = knots[:-2, None], knots[1:-1, None], knots[2:, None]
    samples = np.clip(np.minimum((t - a) / (c - a), (b - t) / (b - c)), 0.0, None)
    samples[:, 0] = 0.0
    samples[:, -1] = 0.0
    return ControlBasis(grid=grid, knots=knots, samples=samples)


@dataclass(frozen=True)
class ResponseTable:
    """Boundary responses y^{e_i} for a control basis on the doubled window.

    This is the sole input of the data-driven inverse path; rows are sampled
    on [0, 2*T_max] (the kernel lives on the same grid).
    """

    basis: ControlBasis
    kernel: MemoryKernel
    Y: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        grid2 = self.kernel.grid
        y = np.array(self.Y, dtype=float)
        if grid2.n != 2 * self.basis.grid.n or not grid2.compatible_step(self.basis.grid):
            raise GridMismatchError("response grid must be the doubled basis grid")
        if y.shape != (self.basis.n, grid2.n + 1):
            raise GridMismatchError(
                f"response table must be ({self.basis.n}, {grid2.n + 1}), got {y.shape}"
            )
        if not np.all(np.isfinite(y)):
            raise GridMismatchError("response table contains non-finite samples")
        # Zero initial state shows up as y(0) = -f'(0+): identically 0 for
        # controls that start flat, the launch slope for the first hat.
        launch = float(np.max(np.abs(self.basis.samples[:, 1]))) / self.basis.grid.dt
        scale = max(float(np.max(np.abs(y))), 1e-30)
        if np.max(np.abs(y[:, 0])) > 1.5 * launch + 1e-9 * scale:
            raise GridMismatchError(
                "responses at t=0 exceed the launch slope of the basis; "
                "the data do not start from a zero state"
            )
        y.flags.writeable = False
        object.__setattr__(self, "Y", y)

    @property
    def grid2(self) -> TimeGrid:
        return self.kernel.grid


def synthesize_table(
    basis: ControlBasis,
    kernel: MemoryKernel,
    q,
    L: float,
    res: ResolventData | None = None,
    noise_sigma: float = 0.0,
    seed: int = 0,
    meta: dict | None = None,
) -> ResponseTable:
    """Generate the response table with the forward solver (ground truth path).

    The simulation horizon is 2*T_max, so 2*T_max <= L is required for the
    no-reflection window to be valid.

    One forward solve serves every control.  The solver's trace is
    y = gamma f - f' + z with z = exp(gamma t) int F, and z is a causal
    lattice convolution of f: the model is linear and autonomous, and since
    W(.,0) = 0 the l = 0 end of the memory trapezoid drops out, so a control
    at rest delayed by whole steps gives the delayed z.  The solve for the
    unit spike at t_1 yields the impulse response h = y - gamma e_1 + e_1',
    and a control f = sum_{j>=1} f_j (e_1 delayed j-1 steps) has
    z_k = sum_{j>=1} f_j h_{k-j+1}, its product with the upper-triangular
    Toeplitz matrix of h.  Each row takes that product as a truncated
    convolution, so no (M+1)^2 matrix is formed.
    """
    grid2 = kernel.grid
    t2 = grid2.t_max
    if t2 > L + 1e-12:
        raise GridMismatchError(
            f"synthetic data needs 2*T_max = {t2} <= L = {L} (no-reflection window)"
        )
    if res is None:
        res = resolvent(kernel)
    p = StringProblem(L=L, q=q, kernel=kernel, T=t2)
    dt, M = grid2.dt, grid2.n
    spike = np.zeros(M + 1)
    spike[1] = 1.0
    y1 = solve_mild(p, Sampled1D(grid2, spike), res=res).y.values
    h = y1 - res.gamma * spike + centered_difference(spike, dt)
    E = basis.sampled_on(grid2)
    z = np.vstack([np.convolve(e[1:], h)[: M + 1] for e in E])
    Y = res.gamma * E - centered_difference(E, dt) + z
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        noise = noise_sigma * rng.standard_normal(Y.shape)
        noise[:, 0] = 0.0
        Y = Y + noise
    info = {"provenance": "synthetic", "L": L, "noise_sigma": noise_sigma}
    if meta:
        info.update(meta)
    return ResponseTable(basis=basis, kernel=kernel, Y=Y, meta=info)


# ---------------------------------------------------------------------------
# The affine source
# ---------------------------------------------------------------------------


def affine_source(
    f: Sampled1D, g: Sampled1D, yf: Sampled1D, yg: Sampled1D, res: ResolventData
) -> Sampled2D:
    """Affine term of the two-variable wave identity for the control pair (f, g):

        G(s,t) = exp(-gamma(s+t)) [ f(t) y^g(s) - y^f(t) g(s) ].

    All four inputs live on the doubled response grid, which is also the s
    grid; t is truncated to [0, T_max].  The closed form comes from pushing
    the two exponential substitutions through the derivative/resolvent
    chain of the product-moment equation, where every step inverts the
    previous one exactly:
      d/ds (N *_s h) = h + N1 *_s h, so the s-resolvent application returns h;
      d/dt (N *_t h) = h + N1 *_t h, so the t-resolvent application returns h.
    No numerical differentiation occurs anywhere (the chain applies up to two
    derivatives, which would cost two orders of accuracy).
    """
    grid2 = f.grid
    for other in (g, yf, yg):
        f.require_same_grid(other, "source inputs")
    if not grid2.same_as(res.grid):
        raise GridMismatchError("source inputs must live on the doubled response grid")
    if grid2.n % 2 != 0:
        raise GridMismatchError("doubled response grid must have an even step count")
    m = grid2.n // 2
    es = np.exp(-res.gamma * grid2.nodes())
    et = es[: m + 1]
    vals = np.zeros((grid2.n + 1, m + 1))  # a zero start turns -0.0 products into +0.0
    vals += np.outer(es * yg.values, et * f.values[: m + 1])
    vals -= np.outer(es * g.values, et * yf.values[: m + 1])
    return Sampled2D(grid2, TimeGrid(grid2.dt, m), vals)


# ---------------------------------------------------------------------------
# The two-variable wave solve on the data trapezoid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlagoSolution:
    """Solution of the two-variable wave identity on the data trapezoid.

    W is the weighted unknown, H = exp(gamma(s+t)) W the product moment.
    Nodes outside the trapezoid {0 <= t <= T, 0 <= s <= 2T - t} are zero.
    """

    W: Sampled2D
    H: Sampled2D
    gamma: float
    scheme: str
    iterations: int = 0

    def diagonal(self) -> np.ndarray:
        """H(t_k, t_k) for every time node: the connecting readout."""
        n_t = self.H.tgrid.n
        idx = np.arange(n_t + 1)
        return self.H.values[idx, idx]


def _triangle_field(values: np.ndarray, dt: float) -> np.ndarray:
    """All half-triangle integrals (1/2) int_{D(s_i,t_k)} of a sampled field."""
    n_s, n_t = values.shape[0] - 1, values.shape[1] - 1
    acc = TriangleAccumulator(values, dt)
    out = np.zeros_like(values)
    for k in range(1, n_t + 1):
        out[: n_s - k + 1, k] = acc.level(k)
    return out


def _conv_columns(kmem: np.ndarray, w: np.ndarray, dt: float) -> np.ndarray:
    """(K *_t w)(s_i, t_k) for all nodes: causal convolution down each row."""
    n_t = w.shape[1] - 1
    out = np.zeros_like(w)
    for i in range(w.shape[0]):
        out[i, :] = convolve_values(kmem[: n_t + 1], w[i, :], dt)
    return out


def _conv_rows(kmem: np.ndarray, w: np.ndarray, dt: float) -> np.ndarray:
    """(K *_s w)(s_i, t_k) for all nodes: causal convolution up each column."""
    n_s = w.shape[0] - 1
    out = np.zeros_like(w)
    for k in range(w.shape[1]):
        out[:, k] = convolve_values(kmem[: n_s + 1], w[:, k], dt)
    return out


def blago_solve(
    G: Sampled2D,
    res: ResolventData,
    sigma_weight: float = 0.0,
    scheme: str = "auto",
    tol: float = 1e-12,
    max_iter: int = 60,
) -> BlagoSolution:
    """Solve the integral form of the two-variable wave identity

        W(s,t) = (1/2) int_{D(s,t)} [ (K *_t W) - (K *_s W) ] + (1/2) int_{D(s,t)} G

    on the trapezoid covered by the data.  Schemes:

      "march"      explicit lozenge marching in t (default for K != 0),
      "quadrature" single triangle quadrature (exact reduction when K == 0),
      "picard"     fixed-point sweeps on the weighted unknown
                   Y = exp(-sigma(s+t)) W; sigma_weight only conditions the
                   iteration, the converged H is independent of it,
      "auto"       quadrature if K vanishes on the window, else march.
    """
    sgrid, tgrid = G.sgrid, G.tgrid
    n_s, n_t = sgrid.n, tgrid.n
    dt = sgrid.dt
    kmem = res.K.values
    if len(kmem) < n_s + 1:
        raise GridMismatchError("resolvent grid does not cover the s-window")
    has_memory = bool(np.any(kmem[: n_s + 1]))

    if scheme == "auto":
        scheme = "march" if has_memory else "quadrature"
    if scheme == "quadrature" and has_memory:
        raise NumericalFailure("quadrature scheme is exact only when K vanishes")

    gvals = G.values
    iterations = 0
    if scheme == "quadrature":
        W = _triangle_field(gvals, dt)
    elif scheme == "march":
        W = _march(lambda k: gvals[: n_s - k + 1, k, None], kmem[: n_s + 1], n_t, dt)[:, :, 0].T
    elif scheme == "picard":
        W, iterations = _picard(gvals, kmem, dt, sigma_weight, sgrid, tgrid, tol, max_iter)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    t = tgrid.nodes()
    s = sgrid.nodes()
    H = np.exp(res.gamma * s)[:, None] * W * np.exp(res.gamma * t)[None, :]
    return BlagoSolution(
        W=Sampled2D(sgrid, tgrid, W),
        H=Sampled2D(sgrid, tgrid, H),
        gamma=res.gamma,
        scheme=scheme,
        iterations=iterations,
    )


def _march(source, kmem: np.ndarray, n_t: int, dt: float) -> np.ndarray:
    """Lozenge march of a batch of sources: W[k, i, b] = W_b(s_i, t_k).

    source(k) is the level-k source on the live rows s_0..s_{n_s-k}, shape
    (n_s-k+1, batch); kmem is K on the s-window.  The t-memory term is one
    product over the level-major history, the s-memory term one product with
    the trapezoid Toeplitz matrix of K; their K(0)/2 end terms cancel, and
    those at r = 0 vanish with W(s,0) = W(0,t) = 0.
    """
    n_s = len(kmem) - 1
    row0 = source(0)
    W = np.zeros((n_t + 1, n_s + 1, row0.shape[1]))
    # Seed level 1 from the triangle quadrature itself: the tau = 0 row of the
    # source is nonzero whenever a control launches with a slope
    # (y(0+) = -f'(0+)), and the lozenge recursion alone would miss it.
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


def _picard(gvals, kmem, dt, sigma, sgrid, tgrid, tol, max_iter):
    n_s, n_t = sgrid.n, tgrid.n
    has_memory = bool(np.any(kmem[: n_s + 1]))
    E = np.exp(-sigma * (sgrid.nodes()[:, None] + tgrid.nodes()[None, :]))
    g0 = E * _triangle_field(gvals, dt)
    Y = g0.copy()
    scale = max(np.max(np.abs(g0)), 1e-300)
    prev_delta = np.inf
    growth = 0
    for it in range(1, max_iter + 1):
        if not has_memory:
            return Y / E, it
        Wcur = Y / E
        core = _conv_columns(kmem, Wcur, dt) - _conv_rows(kmem, Wcur, dt)
        Y_new = E * _triangle_field(core, dt) + g0
        delta = np.max(np.abs(Y_new - Y))
        Y = Y_new
        if delta <= tol * scale:
            return Y / E, it
        if delta > prev_delta:
            growth += 1
            if growth >= 3:
                raise NumericalFailure(
                    f"picard sweeps diverge (delta {delta:.3e} after {it} sweeps); "
                    "increase sigma_weight or shorten the horizon"
                )
        else:
            growth = 0
        prev_delta = delta
    raise NumericalFailure(
        f"picard did not reach tolerance {tol} within {max_iter} sweeps "
        f"(last delta {prev_delta:.3e})"
    )


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectingGram:
    """Per-horizon Gram matrices <C_T e_i, e_j> of the connecting operator.

    C[k] is the symmetrized n x n matrix at horizon horizons[k]; asymmetry[k]
    records the pre-symmetrization relative Frobenius gap (a discretization
    diagnostic of the data chain; identically 0 for the forward oracle).
    gamma = R(0)/2 travels along because the steering trace needs it:
    the wavefront value of the physical field is exp(gamma T) f(0+).
    """

    horizons: np.ndarray
    C: np.ndarray
    asymmetry: np.ndarray
    source: str
    basis: ControlBasis
    gamma: float = 0.0

    def index_of(self, T: float) -> int:
        i = int(np.argmin(np.abs(self.horizons - T)))
        if abs(self.horizons[i] - T) > 1e-9 * max(1.0, abs(T)):
            raise GridMismatchError(f"no stored horizon at T={T}")
        return i

    def at(self, T: float) -> np.ndarray:
        return self.C[self.index_of(T)]


def gram_from_data(tab: ResponseTable) -> ConnectingGram:
    """Gram of the connecting operator at every time node, from boundary data.

    Entry (i,j) at t_k is H(t_k, t_k) for the source G_ij, built from its
    rank-two factors (module docstring): in closed form when K vanishes on
    the window, else from one march per j of three t-spike sources, read
    against the t-factors of every i.  (i,j) and (j,i) are computed
    independently so the symmetry defect measures the discretization error
    of the data side; the returned matrices are the symmetrized averages.
    """
    basis = tab.basis
    m, dt = basis.grid.n, basis.grid.dt
    res = resolvent(tab.kernel)
    es = np.exp(-res.gamma * tab.grid2.nodes())
    a, c = (es * tab.Y).T, (es * basis.sampled_on(tab.grid2)).T
    if np.any(res.K.values):
        raw = _diagonal_march(a, c, res.K.values, m, dt)
    else:
        raw = _diagonal_closed_form(a, c, m, dt)
    raw *= np.exp(2.0 * res.gamma * basis.grid.nodes())[:, None, None]

    sym = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
    norms = np.linalg.norm(raw, axis=(1, 2))
    gaps = np.linalg.norm(raw - np.transpose(raw, (0, 2, 1)), axis=(1, 2))
    asym = np.where(norms > 0, gaps / np.where(norms > 0, norms, 1.0), 0.0)
    return ConnectingGram(
        horizons=basis.grid.nodes().copy(),
        C=sym,
        asymmetry=asym,
        source="boundary-data",
        basis=basis,
        gamma=res.gamma,
    )


def _diagonal_closed_form(a: np.ndarray, c: np.ndarray, m: int, dt: float) -> np.ndarray:
    """W_ij(t_k, t_k) when K == 0: two small products per horizon (module docstring)."""
    n = a.shape[1]
    w = 0.5 * trap_weights(m + 1, dt)[:, None]  # w_tau / 2; tau = m is never summed
    bw, dw = w * c[: m + 1], w * a[: m + 1]
    A = np.hstack([a, c])
    U = dt * (np.cumsum(A, axis=0) - 0.5 * A)
    raw = np.zeros((m + 1, n, n))
    for k in range(1, m + 1):
        S = U[2 * k : k : -1] - U[:k]
        raw[k] = bw[:k].T @ S[:, :n] - dw[:k].T @ S[:, n:]
    return raw


def _diagonal_march(a: np.ndarray, c: np.ndarray, kmem: np.ndarray, m: int, dt: float) -> np.ndarray:
    """W_ij(t_k, t_k) when K != 0, from one march per j of t-spike sources.

    The march is linear, and phi(s) delta_q (q >= 1) gives the delta_1 solution
    delayed by q-1 levels on the live rows.  So, with b_i(0) = 0 and the
    responses Psi_a, Psi_c to a_j delta_1, c_j delta_1 and Psi0_c to c_j delta_0,
    W_ij(t_k,t_k) + d_i(0) Psi0_c(s_k,t_k) = sum_{q>=1} [b_i(q) Psi_a - d_i(q) Psi_c](s_k,t_{k-q+1})
    """
    n, n_s = a.shape[1], len(kmem) - 1
    k = np.arange(m + 1)
    lev = np.maximum(k[:, None] - k[None, 1:] + 1, 0)  # level k-q+1, q >= 1; W[0] = 0
    raw = np.zeros((m + 1, n, n))
    src = np.zeros((3, n_s + 1, 3))  # levels 0, 1 and every later (zero) level
    source = lambda lv: src[min(lv, 2), : n_s - lv + 1]
    for j in range(n):
        src[1, :, 0], src[1, :, 1], src[0, :, 2] = a[:, j], c[:, j], c[:, j]
        W = _march(source, kmem, m, dt)
        raw[:, :, j] = W[lev, k[:, None], 0] @ c[1 : m + 1] - W[lev, k[:, None], 1] @ a[1 : m + 1]
        raw[:, :, j] -= W[k, k, 2, None] * a[0]
    return raw


def gram_oracle(p: StringProblem, basis: ControlBasis) -> ConnectingGram:
    """Gram from forward snapshots: H^{ij}(T,T) = int_0^T w^{e_i}(x,T) w^{e_j}(x,T) dx.

    Knows the coefficient q; validation counterpart of ``gram_from_data``.
    """
    if abs(p.T - basis.grid.t_max) > 1e-9:
        raise GridMismatchError("oracle problem horizon must equal the basis window")
    res = resolvent(p.kernel)
    m = basis.grid.n
    dt = basis.grid.dt
    n = basis.n
    fields = [solve_mild(p, Sampled1D(basis.grid, e), res=res).w.values for e in basis.samples]

    raw = np.zeros((m + 1, n, n))
    idx = np.arange(m + 1)
    for i in range(n):
        for j in range(i, n):
            prod = fields[i] * fields[j]
            s = np.cumsum(prod, axis=0)
            diag_sum = s[idx, idx]
            h = dt * (diag_sum - 0.5 * prod[0, idx] - 0.5 * prod[idx, idx])
            h[0] = 0.0
            raw[:, i, j] = h
            raw[:, j, i] = h
    return ConnectingGram(
        horizons=basis.grid.nodes().copy(),
        C=raw,
        asymmetry=np.zeros(m + 1),
        source="forward-oracle",
        basis=basis,
        gamma=res.gamma,
    )
