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

Integrated over the backward characteristic triangle D(s,t) =
{(xi,tau): 0 < tau < t, |s-t+tau| < xi < s+t-tau} the equation reads

    W(s,t) = (1/2) int_{D(s,t)} [ (K *_t W) - (K *_s W) + G ].

The diagonal values H^{f,g}(T,T) = <C_T f, g> assemble the Gram matrix of the
connecting operator C_T for a control basis, the data side of the coefficient
reconstruction.  For (f, g) = (e_i, e_j) the source has rank two, G_ij(s,t) =
a_j(s) b_i(t) - c_j(s) d_i(t) with a = exp(-gamma s) y, c = exp(-gamma s) e
and b = c, d = a on [0, T_max].  When K == 0 (const and exp kernels at any
rate; a tabulated K marches below on any nonzero sample) the diagonal is one
triangle quadrature of G, and with the running trapezoids U_x(s_r) =
int_0^{s_r} x of the s-factors (``grid.cumulative_values``; any constant
offset of U would cancel in S) it is, in ``_diagonal_closed_form``,

    W_ij(t_k,t_k) = 1/2 sum_{tau<k} w_tau [b_i(tau) S_a,j(tau,k) - d_i(tau) S_c,j(tau,k)],
    S_x(tau,k) = U_x(s_{2k-tau}) - U_x(s_tau),   w_0 = dt/2,  w_tau = dt,

which writes C_T directly in terms of the response (Belishev, "Recent progress
in the boundary control method", Inverse Problems 23 (2007) R1-R67).  When
K != 0 one march of a unit point source in free space (no s = 0 boundary)
serves every pair: the scheme is invariant under whole-step shifts in s and
t, so each source term reads the same Green's function, and the boundary
W(0,t) = 0 becomes one more source on s = 0 whose density solves a small
triangular Toeplitz system (``_diagonal_march``).  That Green's function
(``_green``) is the one march: level k touches the fixed band of 2m+1 rows
inside the light cone of the source, one row lower per level, so it costs
about 5 m^3 multiply-adds at m steps.  ``gram_oracle`` computes the same
Gram from forward-solver snapshots (it knows q; validation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridMismatchError, NumericalFailure
from .grid import (
    Sampled1D,
    TimeGrid,
    centered_difference,
    _lower_toeplitz_inverse,
    _lower_toeplitz_matrix,
    cumulative_values,
    trap_weights,
)
from .kernels import MemoryKernel, resolvent
from .forward import StringProblem, _mild_march, solve_mild

__all__ = [
    "ControlBasis",
    "hat_basis",
    "ResponseTable",
    "synthesize_table",
    "ConnectingGram",
    "gram_from_data",
    "gram_oracle",
]


# ---------------------------------------------------------------------------
# Control basis and response data
# ---------------------------------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ControlBasis:
    """Piecewise-linear hat controls on [0, T_max], given by their knot nodes.

    knot_nodes holds the n+2 grid-node indices of the knots, rising strictly
    from 0 to grid.n; it is the one stored value, and the knot times, the
    node samples, the masses, the mass matrix and the dual abscissae derive
    from it.  The i-th tent rises from knots[i] to 1 at knots[i+1]
    and falls to 0 at knots[i+2], so every control vanishes at 0
    (forward-solver requirement) and at T_max, and every kink of a control
    (and of its piecewise-constant response) sits on a quadrature node.
    Supports are nested: e_1..e_k span the controls supported in
    (0, knots[k+1]).
    """

    grid: TimeGrid
    knot_nodes: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.knot_nodes)
        if not np.issubdtype(nodes.dtype, np.integer) or nodes.ndim != 1 or len(nodes) < 3:
            raise GridMismatchError("basis knots must be at least 3 integer node indices")
        nodes = nodes.astype(int)
        if nodes[0] != 0 or nodes[-1] != self.grid.n or np.any(np.diff(nodes) < 1):
            raise GridMismatchError(
                f"basis knots must rise strictly from node 0 to node {self.grid.n}"
            )
        object.__setattr__(self, "knot_nodes", _read_only(nodes))

    @property
    def n(self) -> int:
        return len(self.knot_nodes) - 2

    @cached_property
    def knots(self) -> np.ndarray:
        """Knot times knot_nodes * dt: the horizon lattice of the Gram."""
        return _read_only(self.knot_nodes * self.grid.dt)

    @cached_property
    def samples(self) -> np.ndarray:
        """(n, m+1) node values of the tents, exactly 0 at t = 0 and at
        T_max, where the end knots sit."""
        t, knots = self.grid.nodes(), self.knots
        a, c, b = knots[:-2, None], knots[1:-1, None], knots[2:, None]
        return _read_only(np.clip(np.minimum((t - a) / (c - a), (b - t) / (b - c)), 0.0, None))

    @cached_property
    def dual_abscissae(self) -> np.ndarray:
        """First-moment points of the elements: <t, e_i>/<1, e_i>, the
        centroid (knots[i] + knots[i+1] + knots[i+2])/3 of the tent.

        A mass-weighted average <f, e_i>/<1, e_i> equals f at this abscissa
        exactly for affine f, which is what the steering readout relies on.
        """
        k = self.knots
        return _read_only((k[:-2] + k[1:-1] + k[2:]) / 3.0)

    @cached_property
    def mass_matrix(self) -> np.ndarray:
        """L2(0, T_max) Gram of the basis in closed form on the knot spacings
        h = diff(knots): tridiagonal, <e_i, e_i> = (h_i + h_{i+1})/3 and
        <e_i, e_{i+1}> = h_{i+1}/6 (tridiag(h/6, 2h/3) on a uniform lattice)."""
        h = np.diff(self.knots)
        off = h[1:-1] / 6.0
        return _read_only(np.diag((h[:-1] + h[1:]) / 3.0) + np.diag(off, 1) + np.diag(off, -1))

    @cached_property
    def element_masses(self) -> np.ndarray:
        """<1, e_i> = (h_i + h_{i+1})/2, the area of the tent."""
        h = np.diff(self.knots)
        return _read_only((h[:-1] + h[1:]) / 2.0)

    def sampled_on(self, grid2: TimeGrid) -> np.ndarray:
        """Zero-extend the basis samples onto a longer grid (same step)."""
        if not self.grid.compatible_step(grid2) or grid2.n < self.grid.n:
            raise GridMismatchError("extension grid must share the step and be longer")
        out = np.zeros((self.n, grid2.n + 1))
        out[:, : self.grid.n + 1] = self.samples
        return out


def hat_basis(grid: TimeGrid, n: int) -> ControlBasis:
    """n interior tents with knots at the grid nodes nearest i*T_max/(n+1)."""
    if n < 1:
        raise GridMismatchError(f"basis size must be >= 1, got {n}")
    if n >= grid.n:  # checked before the knots are formed, whose number n sets
        raise GridMismatchError(
            f"basis size {n} needs {n + 2} distinct knots, but the grid has {grid.n + 1} nodes"
        )
    return ControlBasis(grid, np.round(np.arange(n + 2) * grid.n / (n + 1)).astype(int))


@dataclass(frozen=True)
class ResponseTable:
    """Boundary responses y^{e_i} for a control basis on the doubled window.

    This is the sole input of the data-driven inverse path; rows are sampled
    on [0, 2*T_max] (the kernel lives on the same grid).
    """

    basis: ControlBasis
    kernel: MemoryKernel
    Y: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)  # noise_sigma and seed, as a manifest records them

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
        # Zero initial state shows up as y(0) = -f'(0): identically 0 for
        # controls that start flat, the launch slope for the first hat, read
        # with the one-sided stencil the forward trace uses (2/dt for a hat
        # that rises over a single step).
        slopes = centered_difference(self.basis.samples[:, :3], self.basis.grid.dt)[:, 0]
        launch = float(np.max(np.abs(slopes)))
        scale = max(float(np.max(np.abs(y))), 1e-30)
        if np.max(np.abs(y[:, 0])) > 1.5 * launch + 1e-9 * scale:
            raise GridMismatchError(
                "responses at t=0 exceed the launch slope of the basis; "
                "the data do not start from a zero state"
            )
        object.__setattr__(self, "Y", _read_only(y))

    @property
    def grid2(self) -> TimeGrid:
        return self.kernel.grid


def _splitmix64(seed: int, count: int) -> np.ndarray:
    """The first `count` SplitMix64 words of `seed`: word j (from 0) is
    mix(seed + (j+1) * 0x9E3779B97F4A7C15 mod 2^64), the increment being
    2^64 over the golden ratio (Steele, Lea and Flood, "Fast splittable
    pseudorandom number generators", OOPSLA 2014).  The uint64 arithmetic
    runs on arrays, where numpy wraps modulo 2^64 silently."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _gaussian(seed: int, shape: tuple) -> np.ndarray:
    """Standard normal samples keyed by the seed and the C-order flat index.

    Words 2c and 2c+1 of the seed's SplitMix64 stream give the cells 2c and
    2c+1 by Box-Muller (Box and Muller, Ann. Math. Stat. 29 (1958) 610-611):
    with u1 = ((w_2c >> 11) + 1) 2^-53 in (0, 1] and u2 = (w_2c+1 >> 11)
    2^-53 in [0, 1), r = sqrt(-2 ln u1) and the pair is r cos(2 pi u2),
    r sin(2 pi u2).  A cell's value depends on nothing but the seed and its
    flat index, and needs no import of numpy.random.
    """
    size = math.prod(shape)
    w = (_splitmix64(seed, size + size % 2) >> np.uint64(11)).astype(float).reshape(-1, 2)
    r = np.sqrt(-2.0 * np.log((w[:, 0] + 1.0) * 2.0**-53))
    theta = (2.0 * np.pi * 2.0**-53) * w[:, 1]
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)]).ravel()[:size].reshape(shape)


def synthesize_table(
    basis: ControlBasis,
    kernel: MemoryKernel,
    q,
    L: float,
    noise_sigma: float = 0.0,
    seed: int = 0,
    meta: dict | None = None,
) -> ResponseTable:
    """Generate the response table with the forward solver (ground truth path).

    The simulation horizon is 2*T_max, so 2*T_max <= L is required for the
    no-reflection window to be valid; StringProblem checks it.

    One forward solve serves every control.  The solver's trace is
    y = gamma f - f' + z with z = exp(gamma t) int F, and z is a causal
    lattice convolution of f: the model is linear and autonomous, and since
    W(.,0) = 0 the l = 0 end of the memory trapezoid drops out, so a control
    at rest delayed by whole steps gives the delayed z.  The solve for the
    unit spike at t_1 yields the impulse response h = y - gamma e_1 + e_1',
    and a control f = sum_{j>=1} f_j (e_1 delayed j-1 steps) has
    z_k = sum_{j>=1} f_j h_{k-j+1}, its product with the upper-triangular
    Toeplitz matrix of h.  Each row takes that product as one convolution
    of the control's nonzero samples with h, so it costs the support's
    length times M.  h on [0, 2 T_max] reads only the cells x + t <= 2 T_max,
    so the spike's march stops there, half of its forward cone, and builds
    neither the physical field nor the traction.

    Noise.  With noise_sigma > 0 every cell after t = 0 gets noise_sigma
    times a standard normal sample, read by the cell's row-major flat index
    from the SplitMix64 counter stream keyed by seed and turned into
    normals by Box-Muller (``_gaussian``).  A seed outside [0, 2**64), a
    negative or non-finite noise_sigma, and meta keys noise_sigma or seed
    that differ from the arguments raise ValueError, so the table's meta
    records exactly the noise it drew.  The same seed gives the same table
    bit for bit.  Noisy tables made while the noise came from
    numpy.random.default_rng(seed) do not regenerate bit for bit from that
    seed; noise-free tables are unchanged.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    info, meta = {"noise_sigma": noise_sigma, "seed": seed}, meta or {}
    for key in info.keys() & meta.keys():
        if meta[key] != info[key]:
            raise ValueError(f"meta {key} = {meta[key]!r} differs from the argument {info[key]!r}")
    info.update(meta)
    grid2 = kernel.grid
    p = StringProblem(L=L, q=q, kernel=kernel, T=grid2.t_max)
    res = resolvent(kernel)
    dt, M = grid2.dt, grid2.n
    spike = np.zeros(M + 1)
    spike[1] = 1.0
    _, y1 = _mild_march(p, Sampled1D(grid2, spike), M)  # cells x + t <= 2 T_max
    h = y1 - res.gamma * spike + centered_difference(spike, dt)
    E = basis.sampled_on(grid2)
    z = np.zeros_like(E)
    for e, zr in zip(E, z):
        nz = np.flatnonzero(e[1:]) + 1
        if nz.size:  # z_k = sum_{a <= j < b} e_j h_{k-j+1}, zero before k = a - 1
            a, b = nz[0], nz[-1] + 1
            zr[a - 1 :] = np.convolve(e[a:b], h[: M + 2 - a])[: M + 2 - a]
    Y = res.gamma * E - centered_difference(E, dt) + z
    if noise_sigma > 0.0:
        with np.errstate(over="ignore"):  # an overflow ends in NumericalFailure below
            noise = noise_sigma * _gaussian(seed, Y.shape)
            noise[:, 0] = 0.0
            Y = Y + noise
        if not np.all(np.isfinite(Y)):
            raise NumericalFailure(f"noise_sigma = {noise_sigma} overflows the response table")
    return ResponseTable(basis=basis, kernel=kernel, Y=Y, meta=info)


# ---------------------------------------------------------------------------
# The lozenge march of the two-variable wave identity
# ---------------------------------------------------------------------------


_MARCH_BLOCK = 16  # levels whose t-history before the block is one matrix product


def _green(kmem: np.ndarray, m: int, dt: float) -> np.ndarray:
    """Free-space Green's function of the lozenge scheme: G[l, m+1+d] is the
    field at level l and row offset d of a unit source at offset 0, level 1.

    The one march of the two-variable wave identity.  Per level

        W[k+1, i] = W[k, i+1] + W[k, i-1] - W[k-1, i] + dt^2 Q(s_i, t_k),
        Q = delta + sum_{0<l<k} dt K(t_k - t_l) W[l, i] - sum_{j<i} dt K(s_i - s_j) W[k, j],

    with delta the unit source at (s_{m+1}, t_1) and the memory trapezoids
    in t and s with their K(0)/2 end terms cancelled (those at l = 0 vanish
    with W(s, 0) = 0).  The march runs on rows d = -(m+1)..2m for m+2 levels.
    Band.  The field spreads down by one row per level and the s-memory only
    reaches up, so the support at level l starts at d = -(l-2) (the light
    cone) and the bottom row is a zero ghost.  The live window shrinks by a
    row per level from the top, leaving G exact on d <= 2m - l, which covers
    every read of ``_diagonal_march``.  So level k reads the 2m+1 rows
    a = m+1-k .. 3m+1-k and writes W[k+1] strictly between them, and lags
    past 2m, where kmem (K on the doubled window) ends, are never read.  The
    s-memory is one product with a strictly lower-triangular Toeplitz matrix
    of dt^3 K on the band (built by one strided copy).
    t-history.  Split near/far as in ``forward.solve_mild`` (Hairer, Lubich
    and Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532-541, without
    FFTs): per block of ``_MARCH_BLOCK`` levels one product of a Toeplitz
    slice of dt^3 K with all earlier levels sums the history before the
    block, and one small product per level adds the levels inside it; the
    source enters as dt^2 in the first block's history.
    Cost.  About 5 m^3 multiply-adds: one band matrix-vector product per
    level for the s-memory (4 m^3) and the blocked t-history (m^3).  The
    stencil sum is formed before the small dt^2 Q term is added.  Folding
    the two shifts into the band matrix would save one vector operation, but
    the product would then round the O(1) stencil terms together with the
    memory terms in an order that depends on the band, and the march would
    lose its invariance under whole-step shifts at round-off.
    """
    n_t, w, dt2 = m + 1, 2 * m + 1, dt * dt
    W = np.zeros((m + 2, 3 * m + 2))
    hk = dt2 * dt * kmem
    col = np.zeros(w)
    col[1:] = -hk[1:w]
    T = _lower_toeplitz_matrix(col)[1:-1]  # the s-memory: T[i-1, j] = -dt^3 K(s_i - s_j), j < i
    B = min(_MARCH_BLOCK, n_t)
    near = _lower_toeplitz_matrix(np.r_[0.0, hk[1:B]])  # level k0+j reads levels k0..k0+j-1
    far = sliding_window_view(np.concatenate([hk[: n_t + 1], np.zeros(B)]), B)  # row r: hk[r : r+B]
    for k0 in range(1, n_t, B):
        k1 = min(k0 + B, n_t)
        lo, hi = m + 3 - k1, 3 * m + 1 - k0  # rows the block updates
        F = far[k0 - 1 : 0 : -1, : k1 - k0].T @ W[1:k0, lo:hi]
        if k0 == 1:
            F[0, m + 1 - lo] += dt2  # the unit source
        for k in range(k0, k1):
            a = m + 1 - k
            Wk, out = W[k, a : a + w], W[k + 1, a + 1 : a + w - 1]
            np.add(Wk[2:], Wk[:-2], out=out)
            out -= W[k - 1, a + 1 : a + w - 1]
            q = T @ Wk
            q += near[k - k0, : k - k0] @ W[k0:k, a + 1 : a + w - 1]
            q += F[k - k0, a + 1 - lo : a + w - 1 - lo]
            out += q
    return W


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectingGram:
    """Per-horizon Gram matrices <C_T e_i, e_j> of the connecting operator.

    C[j] is the symmetrized n x n matrix at the knot basis.knots[j]; asymmetry[j]
    records the pre-symmetrization relative Frobenius gap (a discretization
    diagnostic of the data chain; identically 0 for the forward oracle).
    gamma = R(0)/2 travels along because the steering trace needs it:
    the wavefront value of the physical field is exp(gamma T) f(0+).
    """

    C: np.ndarray
    asymmetry: np.ndarray
    basis: ControlBasis
    gamma: float

    def at(self, T: float) -> np.ndarray:
        """The matrix at the knot horizon T; a grid node between knots raises."""
        j = np.flatnonzero(self.basis.knot_nodes == self.basis.grid.index_of(T))
        if len(j) == 0:
            raise GridMismatchError(f"T={T} is not a knot of the basis")
        return self.C[j[0]]


def gram_from_data(tab: ResponseTable) -> ConnectingGram:
    """Gram of the connecting operator at every knot, from boundary data.

    Entry (i,j) at t_k is H(t_k, t_k) for the source G_ij, built from its
    rank-two factors (module docstring): in closed form when K vanishes on
    the window, else from the free-space Green's function of one march,
    read against the factors of every pair.  (i,j) and (j,i) are computed
    independently so the symmetry defect measures the discretization error
    of the data side; the returned matrices are the symmetrized averages.

    Every entry is linear in the responses, so they enter scaled by the
    power of two 2^-e that brings max|Y| into [1/2, 1) and the entries are
    scaled back by 2^e: bit for bit the unscaled sums wherever those are
    normal floats, while responses near the float limit no longer overflow
    the factors or their running sums.  A Gram that is still not finite
    raises NumericalFailure.
    """
    basis = tab.basis
    nodes, dt = basis.knot_nodes, basis.grid.dt
    res = resolvent(tab.kernel)
    es = np.exp(-res.gamma * tab.grid2.nodes())
    e = math.frexp(float(np.max(np.abs(tab.Y))))[1]
    a, c = (es * np.ldexp(tab.Y, -e)).T, (es * basis.sampled_on(tab.grid2)).T
    if np.any(res.K.values):
        raw = _diagonal_march(a, c, res.K.values, nodes, dt)
    else:
        raw = _diagonal_closed_form(a, c, nodes, dt)
    with np.errstate(over="ignore"):  # an overflow ends in NumericalFailure below
        np.ldexp(raw, e, out=raw)
        raw *= np.exp(2.0 * res.gamma * basis.grid.nodes()[nodes])[:, None, None]
    if not np.all(np.isfinite(raw)):
        raise NumericalFailure("the Gram of these responses overflows")

    rawT = np.transpose(raw, (0, 2, 1))
    sym = raw + rawT
    sym *= 0.5
    # a ratio of norms, taken on each matrix over its largest |entry| (no overflow)
    peak = np.maximum(raw.max(axis=(1, 2)), -raw.min(axis=(1, 2)))[:, None, None]
    raw /= np.where(peak > 0, peak, 1.0)
    gap = raw - rawT
    norms = np.sqrt(np.einsum("kij,kij->k", raw, raw))
    gaps = np.sqrt(np.einsum("kij,kij->k", gap, gap))
    asym = np.where(norms > 0, gaps / np.where(norms > 0, norms, 1.0), 0.0)
    return ConnectingGram(C=sym, asymmetry=asym, basis=basis, gamma=res.gamma)


def _diagonal_closed_form(a: np.ndarray, c: np.ndarray, nodes: np.ndarray, dt: float) -> np.ndarray:
    """W_ij(t_k, t_k) at the nodes k when K == 0: two small products each (module docstring)."""
    n, m = a.shape[1], nodes[-1]
    w = 0.5 * trap_weights(m + 1, dt)[:, None]  # w_tau / 2; tau = m is never summed
    bw, dw = w * c[: m + 1], w * a[: m + 1]
    U = cumulative_values(np.hstack([a, c]), dt)
    raw = np.zeros((len(nodes), n, n))
    for j, k in enumerate(nodes):
        S = U[2 * k : k : -1] - U[:k]
        raw[j] = bw[:k].T @ S[:, :n] - dw[:k].T @ S[:, n:]
    return raw


def _row0_density(G: np.ndarray, m: int, phi: np.ndarray, seed: np.ndarray) -> tuple:
    """Row-0 source densities rho(1..m-1) that hold W(0, t_l) = 0 for l = 2..m.

    phi and seed hold sources on rows 1..m (row 0 is ignored), one column
    each: phi at level 1, which reads G[l], and level-1 seeds, which read
    G[l+1].  A density at level l' reaches (0, t_l) through G[l-l'+1, 0], so
    the system is lower-triangular Toeplitz,
    sum_{l'<l} G[l-l'+1, 0] rho(l') = -(free-space field at (0, t_l)), with
    first column G[2..m, 0] and diagonal G[2, 0] = dt^2.  The first column
    of its inverse comes from the causal doubling of the Volterra solve;
    its lower-triangular Toeplitz matrix (one strided copy) is built once and
    applied to the columns of phi and of seed by one product each.
    """
    o = m + 1
    inv = _lower_toeplitz_matrix(_lower_toeplitz_inverse(G[2 : m + 1, o]))
    return tuple(
        -(inv @ (G[2 + lift : m + 1 + lift, o - 1 : 0 : -1] @ src[1 : m + 1]))
        for lift, src in enumerate((phi, seed))
    )


def _diagonal_march(a: np.ndarray, c: np.ndarray, kmem: np.ndarray, nodes: np.ndarray, dt: float) -> np.ndarray:
    """W_ij(t_k, t_k) at the nodes k when K != 0, from the free-space Green's function G.

    The lozenge scheme is linear, and phi(s) delta_q (q >= 1) gives the
    delta_1 solution delayed by q-1 levels.  So, with b_i(0) = 0 and the
    responses Psi_a, Psi_c to a_j delta_1, c_j delta_1 and Psi0_c to
    c_j delta_0 (a level-0 source enters as a level-1 seed, the tau = 0 row
    of the triangle quadrature, nonzero whenever a control launches with a
    slope, y(0+) = -f'(0+)),
    W_ij(t_k,t_k) + d_i(0) Psi0_c(s_k,t_k) = sum_{q>=1} [b_i(q) Psi_a - d_i(q) Psi_c](s_k,t_{k-q+1}).

    Each Psi is a half-space field (W(0,t) = 0).  Extended by zero below
    s = 0 it satisfies the free-space scheme: rows below 0 see no field and
    no source, and row 0 stays 0 once a source rho(l) = -W(s_1,t_l)/dt^2
    on it cancels the lozenge update W(s_1,t_l) + dt^2 rho(l).  The
    free-space scheme is shift invariant, so

        Psi(s_k,t_l) = sum_{r>=1} G[l, k-r] phi(r) + sum_{l'>=1} G[l-l'+1, k] rho(l'),

    with G[l+1] for the seed sigma/dt^2 = (c[r-1]/2 + c[r] + c[r+1]/2)/4, and
    rho from W(0,t_l) = 0 (``_row0_density``).  At horizon k the readout
    needs levels <= k+1 and source rows < 2k: a few BLAS-3 products on a
    slice of G.  The cost is the one march, ``_green`` (a band of 2m+1
    rows per level, about 5 m^3 multiply-adds), one inverse and two products
    for rho, and the readout products.
    """
    n, m, o = a.shape[1], nodes[-1], nodes[-1] + 1
    G = _green(kmem, m, dt)
    phi = np.hstack([a, c])
    seed = np.zeros_like(c)
    seed[1:-1] = 0.25 * (0.5 * c[:-2] + c[1:-1] + 0.5 * c[2:])
    rho, rho0 = _row0_density(G, m, phi, seed)
    raw = np.zeros((len(nodes), n, n))
    for j, k in enumerate(nodes):
        if k == 0:  # W(s, 0) = 0
            continue
        rows = slice(o - k + 1, o + k)  # offsets k-r for the source rows r = 2k-1..1
        H = _lower_toeplitz_matrix(G[1 : k + 1, o + k])[:, : k - 1]  # H[l-1, l'-1] = G[l-l'+1]
        psi = G[1 : k + 1, rows] @ phi[2 * k - 1 : 0 : -1] + H @ rho[: k - 1]
        psi0 = G[k + 1, rows] @ seed[2 * k - 1 : 0 : -1] + H[-1] @ rho0[: k - 1]
        raw[j] = c[k:0:-1].T @ psi[:, :n] - a[k:0:-1].T @ psi[:, n:] - np.outer(a[0], psi0)
    return raw


def gram_oracle(p: StringProblem, basis: ControlBasis) -> ConnectingGram:
    """Gram from forward snapshots: H^{ij}(T,T) = int_0^T w^{e_i}(x,T) w^{e_j}(x,T) dx.

    Knows the coefficient q; validation counterpart of ``gram_from_data``.
    """
    if not p.tgrid.same_as(basis.grid):
        raise GridMismatchError("oracle problem horizon must equal the basis window")
    nodes = basis.knot_nodes
    fields = (solve_mild(p, Sampled1D(basis.grid, e)).w.values for e in basis.samples)
    cols = np.stack([w[:, nodes] for w in fields])  # each field is read at the knots only
    raw = np.zeros((len(nodes), basis.n, basis.n))
    for j, k in enumerate(nodes):
        F = cols[:, : k + 1, j]
        S = (F * trap_weights(k + 1, basis.grid.dt)) @ F.T
        raw[j] = 0.5 * (S + S.T)  # exactly symmetric, as H^{ij} = H^{ji}
    return ConnectingGram(
        C=raw, asymmetry=np.zeros(len(nodes)), basis=basis, gamma=resolvent(p.kernel).gamma
    )
