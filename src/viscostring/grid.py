"""Uniform grids, sampled functions and causal quadrature primitives.

The layers downstream (kernel algebra, wave marching, the connecting-operator
chain, the steering solve) call these primitives on sample arrays:

  * trap_weights and the trapezoid sums convolve_values (int_0^t k(t-s) h(s) ds)
    and the one running trapezoid cumulative_values (int_0^t h(r) dr down
    axis 0, whose differences integrate between two nodes);
  * centered_difference, a second-order first derivative;
  * _lower_toeplitz_inverse (by causal doubling) and _lower_toeplitz_matrix,
    for the lower-triangular Toeplitz systems into which the trapezoid rule
    turns causal convolution equations (Volterra equations of the second kind).

All quadrature is composite trapezoid (order 2).  Space and time grids share
one step so that characteristics pass through nodes and the characteristic
triangles of the wave solvers never need interpolation.  Reductions run in
ascending index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import GridMismatchError

__all__ = [
    "TimeGrid",
    "Sampled1D",
    "Sampled2D",
    "centered_difference",
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


def _frozen(v) -> bool:
    """True for a read-only float64 array whose owning base is read-only."""
    if not isinstance(v, np.ndarray) or v.dtype != np.float64 or v.flags.writeable:
        return False
    while isinstance(v.base, np.ndarray):
        v = v.base
    return v.base is None and not v.flags.writeable


@dataclass(frozen=True)
class Sampled2D:
    """Function of (s,t) sampled on a tensor grid; values[i, k] = F(s_i, t_k).

    Both grids must share the same step: the forward march steps along the
    characteristics x +- t = const from node to node.  values is read-only.
    A read-only float64 array whose owning base is read-only too is kept as
    it is (the forward solver hands its private field over so); any other
    input is copied, so later writes to it do not reach values.
    """

    sgrid: TimeGrid
    tgrid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = self.values if _frozen(self.values) else np.array(self.values, dtype=float)
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


def cumulative_values(h: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid int_0^{t_r} h down axis 0, 0 at node 0: out[b] - out[a]
    integrates h between the nodes a <= b, and column j of a 2-D input gives
    the 1-D result of h[:, j] bit for bit."""
    out = np.empty_like(h, dtype=float)
    out[0] = 0.0
    np.cumsum(0.5 * dt * (h[1:] + h[:-1]), axis=0, out=out[1:])
    return out


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
    """The lower-triangular Toeplitz matrix L[i, j] = first_col[i-j] (j <= i), one
    copy of the view L[i, j] = padded[n-1+i-j] of the column after n-1 zeros."""
    n = len(first_col)
    padded = np.concatenate([np.zeros(n - 1), first_col])
    return as_strided(padded[n - 1 :], (n, n), (padded.itemsize, -padded.itemsize)).copy()
