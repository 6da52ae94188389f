"""Uniform grids, sampled functions and causal quadrature primitives.

Everything downstream (kernel algebra, wave marching, the connecting-operator
chain) is built from three quadratures implemented here:

  * causal_convolve     -- trapezoidal  int_0^t k(t-s) h(s) ds
  * cumulative_integral -- trapezoidal  int_0^t h(r) dr
  * triangle_quadrature -- (1/2) * integral of F over the backward
                           characteristic triangle
                           D(s,t) = {(xi,tau): 0<tau<t, |s-t+tau|<xi<s+t-tau}

All quadrature is composite trapezoid (order 2).  Space and time grids share
one step so that characteristics pass through nodes and the triangle limits
never need interpolation.  Reductions run in ascending index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "TimeGrid",
    "Sampled1D",
    "Sampled2D",
    "causal_convolve",
    "cumulative_integral",
    "centered_difference",
    "triangle_quadrature",
    "TriangleAccumulator",
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


# ---------------------------------------------------------------------------
# Triangle quadrature
# ---------------------------------------------------------------------------
#
# Direct mode evaluates, for one apex (s_i, t_k),
#
#   (1/2) int_0^{t_k} int_{|s_i-t_k+tau|}^{s_i+t_k-tau} F(xi,tau) dxi dtau
#
# as an iterated composite trapezoid.  The row at tau = t_k has zero width and
# contributes nothing, so the value depends on rows 0..k-1 only -- this is what
# makes the explicit time marching of the wave solvers possible.
#
# The incremental mode (TriangleAccumulator) returns all apex values of one
# time level from running sums that are updated once per level: amortized O(1)
# per node after O(n_s) setup per level.  It reproduces the direct sums up to
# floating-point reassociation (<= 1e-12 relative).


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


class TriangleAccumulator:
    """Incremental triangle quadrature over successive time levels.

    Feed the integrand row-by-row (or construct from a full array) and call
    ``level(k)`` for k = 1, 2, ... in order; each call returns the half
    triangle integrals for every apex (i, k), i = 0..n_s-k, of that level.

    Internally four running families are maintained, one addend per finalized
    row, so a level costs O(n_s) updates regardless of k:

      upper[u]   = sum_j c_j (P_j[u-j] - F[u-j,j]/2)          (u = i+k)
      lower[d]   = sum_j c_j (P_j[d+j-1] + F[d+j,j]/2)        (d = i-k >= 0)
      lower_f[e] = same as lower on the reflected diagonal     (e = k-i, rows j >= e)
      fold[v]    = sum_{j<v} c_j (P_j[v-j-1] + F[v-j,j]/2)    (v = k-i, reflected rows)

    with P_j the prefix sum of row j and c_j = dt^2/2 * (1/2 if j==0 else 1).
    """

    def __init__(self, values: np.ndarray, dt: float):
        values = np.asarray(values, dtype=float)
        self.n_s = values.shape[0] - 1
        self.n_t = values.shape[1] - 1
        self.dt = dt
        self._values = values
        self._k = 0
        n_s = self.n_s
        self._upper = np.zeros(n_s + self.n_t + 1)
        self._lower = np.zeros(n_s + 1)
        self._lower_f = np.zeros(self.n_t + 1)
        self._fold = np.zeros(self.n_t + 1)

    def _absorb_row(self, j: int):
        """Fold row j of the integrand into the running families."""
        row = self._values[:, j]
        prefix = np.cumsum(row)
        c = 0.5 * self.dt * self.dt * (0.5 if j == 0 else 1.0)
        n_s = self.n_s

        q_plus = c * (prefix - 0.5 * row)
        q_minus = np.empty(n_s + 1)
        q_minus[0] = c * 0.5 * row[0]
        q_minus[1:] = c * (prefix[:-1] + 0.5 * row[1:])

        # upper[u] += q_plus[u - j]
        self._upper[j : j + n_s + 1] += q_plus
        # lower[d] += q_minus[d + j]
        self._lower[: n_s + 1 - j] += q_minus[j:]
        # lower_f[e] += q_minus[j - e] for e = 1..j   (rows j >= e, reflected apex)
        if j >= 1:
            e_hi = min(j, self.n_t)
            self._lower_f[1 : e_hi + 1] += q_minus[j - 1 :: -1][:e_hi]
        # fold[v] += q_minus[v - j] for v = j+1..   (rows j < v)
        v_hi = min(self.n_t, j + n_s)
        self._fold[j + 1 : v_hi + 1] += q_minus[1 : v_hi - j + 1]

    def level(self, k: int) -> np.ndarray:
        """Half triangle integrals for apexes (i, k), i = 0..n_s-k.

        Levels must be requested consecutively starting at 1.
        """
        if k != self._k + 1:
            raise IndexError(f"levels must be consumed in order; expected {self._k + 1}, got {k}")
        if k > self.n_t:
            raise IndexError(f"level {k} beyond grid (n_t={self.n_t})")
        self._absorb_row(k - 1)
        self._k = k

        n_i = self.n_s - k + 1
        i = np.arange(n_i)
        out = self._upper[i + k].copy()
        unfolded = i >= k
        ge = i[unfolded]
        out[unfolded] -= self._lower[ge - k]
        lt = i[~unfolded]
        out[~unfolded] -= self._lower_f[k - lt] + self._fold[k - lt]
        out[0] = 0.0  # D(0,t) is empty
        return out
