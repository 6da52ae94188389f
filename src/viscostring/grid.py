"""Uniform grids, sampled functions and causal quadrature primitives.

Everything downstream (kernel algebra, wave marching, the connecting-operator
chain) is built from three quadratures implemented here:

  * causal_convolve     -- trapezoidal  int_0^t k(t-s) h(s) ds
  * cumulative_integral -- trapezoidal  int_0^t h(r) dr
  * triangle_quadrature -- (1/2) * integral of F over the backward
                           characteristic triangle
                           D(s,t) = {(xi,tau): 0<tau<t, |s-t+tau|<xi<s+t-tau},
                           at one apex; triangle_field gives the same sums at
                           every apex from prefix sums of the running
                           trapezoids of F, in O(n_s n_t)

and one solver, lower_toeplitz_solve, for the causal convolution systems
(Volterra equations of the second kind) that the trapezoid rule turns into
lower-triangular Toeplitz matrices.

All quadrature is composite trapezoid (order 2).  Space and time grids share
one step so that characteristics pass through nodes and the triangle limits
never need interpolation.  Reductions run in ascending index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridMismatchError

__all__ = [
    "TimeGrid",
    "Sampled1D",
    "Sampled2D",
    "causal_convolve",
    "cumulative_integral",
    "centered_difference",
    "lower_toeplitz_solve",
    "triangle_quadrature",
    "triangle_field",
]

#: relative slack used when matching grid steps / node times
_REL_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with nodes t_k = k*dt, k = 0..n.  t_max is derived."""

    dt: float
    n: int

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise GridMismatchError(f"grid step must be positive, got {self.dt}")
        if self.n < 1:
            raise GridMismatchError(f"grid needs at least one step, got n={self.n}")

    @property
    def t_max(self) -> float:
        return self.n * self.dt

    def nodes(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.dt

    def index_of(self, t: float) -> int:
        """Node index of an on-grid time; rejects off-lattice values."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.n or abs(k * self.dt - t) > _REL_TOL * max(1.0, abs(t)) + 1e-14:
            raise GridMismatchError(f"t={t} is not a node of grid(dt={self.dt}, n={self.n})")
        return k

    def compatible_step(self, other: "TimeGrid") -> bool:
        return abs(self.dt - other.dt) <= _REL_TOL * self.dt

    def same_as(self, other: "TimeGrid") -> bool:
        return self.n == other.n and self.compatible_step(other)


def _as_values(grid: TimeGrid, values) -> np.ndarray:
    v = np.array(values, dtype=float)  # copy: instances own (and freeze) their data
    if v.shape != (grid.n + 1,):
        raise GridMismatchError(
            f"expected {grid.n + 1} samples for grid(n={grid.n}), got shape {v.shape}"
        )
    return v


@dataclass(frozen=True)
class Sampled1D:
    """Function of one variable sampled on every node of a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = _as_values(self.grid, self.values)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn) -> "Sampled1D":
        return cls(grid, fn(grid.nodes()))

    def require_same_grid(self, other: "Sampled1D", what: str = "operands"):
        if not self.grid.same_as(other.grid):
            raise GridMismatchError(f"{what} live on different grids")


@dataclass(frozen=True)
class Sampled2D:
    """Function of (s,t) sampled on a tensor grid; values[i, k] = F(s_i, t_k).

    Both grids must share the same step: the characteristic-aligned triangle
    quadrature relies on it.
    """

    sgrid: TimeGrid
    tgrid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.sgrid.n + 1, self.tgrid.n + 1):
            raise GridMismatchError(
                f"expected shape {(self.sgrid.n + 1, self.tgrid.n + 1)}, got {v.shape}"
            )
        if not self.sgrid.compatible_step(self.tgrid):
            raise GridMismatchError("s and t grids must share one step")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# 1D quadratures
# ---------------------------------------------------------------------------

def trap_weights(n_nodes: int, dt: float) -> np.ndarray:
    """Composite trapezoid weights over n_nodes nodes."""
    w = np.full(n_nodes, dt)
    w[0] = 0.5 * dt
    w[-1] = 0.5 * dt
    if n_nodes == 1:
        w[0] = 0.0
    return w


def convolve_values(k: np.ndarray, h: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoidal causal convolution of two equal-length sample arrays.

    (k * h)[j] = dt * ( sum_{i=0..j} k[j-i] h[i] - k[j]h[0]/2 - k[0]h[j]/2 )
    which is the composite trapezoid for int_0^{t_j} k(t_j - s) h(s) ds.
    Node 0 is exactly 0.
    """
    n = len(k)
    full = np.convolve(k, h)[:n]
    out = dt * (full - 0.5 * k * h[0] - 0.5 * k[0] * h)
    out[0] = 0.0
    return out


def causal_convolve(k: Sampled1D, h: Sampled1D) -> Sampled1D:
    """int_0^t k(t-s) h(s) ds by composite trapezoid, on the shared grid."""
    k.require_same_grid(h, "convolution operands")
    return Sampled1D(k.grid, convolve_values(k.values, h.values, k.grid.dt))


def cumulative_values(h: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty_like(h, dtype=float)
    out[0] = 0.0
    np.cumsum(0.5 * dt * (h[1:] + h[:-1]), out=out[1:])
    return out


def cumulative_integral(h: Sampled1D) -> Sampled1D:
    """Running integral int_0^t h(r) dr by composite trapezoid; 0 at node 0."""
    return Sampled1D(h.grid, cumulative_values(h.values, h.grid.dt))


def centered_difference(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order first derivative along the last axis: centered inside,
    one-sided at the ends."""
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.shape[-1] < 3:
        raise GridMismatchError("need at least 3 samples to differentiate")
    out = np.empty_like(v)
    out[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * dt)
    out[..., 0] = (-3.0 * v[..., 0] + 4.0 * v[..., 1] - v[..., 2]) / (2.0 * dt)
    out[..., -1] = (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * dt)
    return out


def _lower_toeplitz_inverse(a: np.ndarray) -> np.ndarray:
    """First column b of L^-1, L lower-triangular Toeplitz with first column a.

    Causal doubling: with b known on [0, B), the column of L^-1 on [B, 2B) is
    -b[:B] * e, where e = (a * b[:B]) on [B, 2B) is the part of L b[:B] that
    spills past B.  Each output is one dot product whose operands and length
    do not depend on len(a), so a prefix of a gives a prefix of b bit for bit.
    """
    n = len(a)
    b = np.empty(n)
    b[0] = 1.0 / a[0]
    B = 1
    while B < n:
        hi = min(2 * B, n)
        e = np.convolve(a[1:hi], b[:B], "valid")  # (a * b[:B])[B:hi]
        b[B:hi] = -np.convolve(b[: hi - B], e)[: hi - B]
        B = hi
    return b


def _lower_toeplitz_matrix(first_col: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix L[i, j] = first_col[i-j] (j <= i),
    built by one strided copy: row i is a window of the reversed, zero-padded column."""
    n = len(first_col)
    padded = np.concatenate([first_col[::-1], np.zeros(n - 1)])
    return sliding_window_view(padded, n)[::-1].copy()


def lower_toeplitz_solve(first_col, rhs) -> np.ndarray:
    """Solve L x = rhs, L lower-triangular Toeplitz with the given first column.

    rhs is 1-D or holds one right-hand side per column.  L^-1 is built once
    by causal doubling (about 2 log2 n numpy calls), then applied by one
    causal convolution per column: O(n^2) flops with no Python loop over the
    n rows.  Column j of a 2-D solve equals the 1-D solve of rhs[:, j] bit for
    bit, and a prefix of first_col and rhs gives a prefix of x bit for bit.
    first_col[0] must be nonzero; callers guard it.
    """
    a = np.asarray(first_col, dtype=float)
    f = np.asarray(rhs, dtype=float)
    n = len(a)
    if f.shape[0] != n or f.ndim not in (1, 2):
        raise GridMismatchError(f"right-hand side of shape {f.shape} does not fit a {n}-row system")
    b = _lower_toeplitz_inverse(a)
    if f.ndim == 1:
        return np.convolve(b, f)[:n]
    out = np.empty(f.shape)
    for j in range(f.shape[1]):
        out[:, j] = np.convolve(b, f[:, j])[:n]
    return out


# ---------------------------------------------------------------------------
# Triangle quadrature
# ---------------------------------------------------------------------------
#
# For one apex (s_i, t_k) the half triangle integral
#
#   (1/2) int_0^{t_k} int_{|s_i-t_k+tau|}^{s_i+t_k-tau} F(xi,tau) dxi dtau
#
# is an iterated composite trapezoid.  The row at tau = t_k has zero width and
# contributes nothing, so the value depends on rows 0..k-1 only -- this is what
# makes the explicit time marching of the wave solvers possible.


def _row_term(prefix: np.ndarray, row: np.ndarray, a: int, b: int, dt: float) -> float:
    """Trapezoid of one row between node indices a <= b using its prefix sum."""
    if b <= a:
        return 0.0
    base = prefix[b] - (prefix[a - 1] if a > 0 else 0.0)
    return dt * (base - 0.5 * row[a] - 0.5 * row[b])


def triangle_quadrature(F: Sampled2D, s_idx: int, t_idx: int) -> float:
    """Direct evaluation of the half triangle integral at apex (s_idx, t_idx)."""
    vals = F.values
    n_s = F.sgrid.n
    n_t = F.tgrid.n
    if not (0 <= s_idx <= n_s and 0 <= t_idx <= n_t):
        raise IndexError(f"apex ({s_idx},{t_idx}) outside grid")
    if s_idx + t_idx > n_s:
        raise IndexError(
            f"apex ({s_idx},{t_idx}) needs samples up to s-index {s_idx + t_idx}, "
            f"grid has {n_s}"
        )
    dt = F.tgrid.dt
    total = 0.0
    for j in range(t_idx):
        a = abs(s_idx - t_idx + j)
        b = s_idx + t_idx - j
        row = vals[:, j]
        prefix = np.cumsum(row[: b + 1])
        w = 0.5 * dt if j == 0 else dt
        total += w * _row_term(prefix, row, a, b, dt)
    return 0.5 * total


def _running_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """U[r] = dt (sum_{p<=r} v[p] - v[r]/2) down axis 0, so that U[b] - U[a]
    is the composite trapezoid of v between the nodes a <= b."""
    return dt * (np.cumsum(values, axis=0) - 0.5 * values)


def triangle_field(values: np.ndarray, dt: float) -> np.ndarray:
    """``triangle_quadrature`` at every apex (s_i, t_k) with i + k <= n_s, 0 elsewhere.

    values[i, tau] samples F on the shared step dt.  With the running
    trapezoids of the columns and V[r, tau] = w_tau U_tau[r] (w_0 = dt/2,
    w_tau = dt), the direct sum is

        2 W[i, k] = sum_{tau<k} V[i+k-tau, tau] - V[|i-k+tau|, tau].

    The first term runs along the anti-diagonal u = i + k.  The second runs
    along the diagonal d = i - k for tau >= k - i and, below that, along the
    reflected anti-diagonal k - i.  So two prefix sums in tau, A on the
    anti-diagonals and B on the diagonals, give every apex at O(n_s n_t) cost:

        2 W[i, k] = A[k, i+k] - B[k, i-k] - A[k-i, k-i]   (the last for i < k).

    Row 0 is exactly 0, its two A terms being one number; so is column 0.
    The sums agree with the direct ones up to reassociation, within 1e-12 of
    the largest value.
    """
    v = np.asarray(values, dtype=float)
    n_s, n_t = v.shape[0] - 1, v.shape[1] - 1
    w = np.full(n_t + 1, dt)
    w[0] = 0.5 * dt
    V = np.vstack([w * _running_trapezoid(v, dt), np.zeros(n_t + 1)])  # rows off 0..n_s read row -1
    tau = np.arange(n_t + 1)[:, None]

    def prefix(rows):  # P[k, c] = sum_{tau<k} V[rows[tau, c], tau]
        P = np.zeros(rows.shape)
        np.cumsum(V[np.where((rows >= 0) & (rows <= n_s), rows, -1), tau][:-1], axis=0, out=P[1:])
        return P

    A = prefix(np.arange(n_s + 1) - tau)  # column u: anti-diagonal i + k = u
    B = prefix(np.arange(-n_t, n_s + 1) + tau)  # column n_t + d: diagonal i - k = d
    i, k = np.arange(n_s + 1)[:, None], tau.ravel()
    reflected = np.where(i < k, A[k, k][np.maximum(k - i, 0)], 0.0)
    W = A[k, np.minimum(i + k, n_s)] - B[k, n_t + i - k] - reflected
    return np.where(i + k <= n_s, 0.5 * W, 0.0)
