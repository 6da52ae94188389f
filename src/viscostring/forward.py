"""Forward simulation of the string with persistent memory.

Model:  w_t(x,t) = int_0^t N(t-s) [w_xx + q(x) w](x,s) ds  on (0,L),
        w(x,0) = 0,  w(0,t) = f(t),  w(L,t) = 0,
observed through the boundary derivative y(t) = w_x(0,t).

``solve_mild`` integrates the transformed field W = exp(-gamma t) w, which for
T <= L (no reflection from x = L) satisfies the characteristic integral
equation

    W(x,t) = exp(-gamma(t-x)) f(t-x) + (1/2) int_{D(x,t)} F,
    F(x,t) = (q(x) + alpha) W(x,t) + int_0^t K(t-s) W(x,s) ds,

with D(x,t) the backward characteristic triangle.  Marching in time, the
triangle integral telescopes into the lozenge update

    W[i,k+1] = W[i+1,k] + W[i-1,k] - W[i,k-1] + dt^2 F[i,k]

(midpoint rule on the lozenge between levels, fourth-order locally), so each
level costs O(n_x) plus the memory convolution.  Waves travel at speed one and
the update preserves W[i,k] = 0 for x_i > t_k exactly.

``fd_oracle`` is an independent check: a leapfrog discretization of the
differentiated model w_tt = Lw + int_0^t N'(t-s) Lw(s) ds on the full domain
[0,L] with Dirichlet ends.  It never sees gamma/alpha/K, so agreement with
``solve_mild`` validates the whole transform chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, KernelValidationError, NumericalFailure
from .grid import Sampled1D, Sampled2D, TimeGrid, centered_difference, convolve_values
from .kernels import MemoryKernel, ResolventData, resolvent

__all__ = [
    "StringProblem",
    "WaveField",
    "solve_mild",
    "final_snapshot",
    "fd_oracle",
    "boundary_derivative",
]


@dataclass(frozen=True)
class StringProblem:
    """Geometry, coefficient and kernel of one simulation instance.

    q may be a callable of x or an array sampled at the x-nodes of [0,L]
    (spacing = kernel grid step, shared so characteristics hit nodes).
    """

    L: float
    q: object
    kernel: MemoryKernel
    T: float

    def __post_init__(self):
        dt = self.kernel.grid.dt
        n_x = round(self.L / dt)
        if abs(n_x * dt - self.L) > 1e-9 * max(1.0, self.L) or n_x < 1:
            raise GridMismatchError(f"L={self.L} is not on the x-lattice of step {dt}")
        if self.T > self.L + 1e-12:
            raise KernelValidationError(
                f"horizon T={self.T} exceeds L={self.L}: the representation is only "
                "valid before a reflection from the far end"
            )
        x = np.arange(n_x + 1) * dt
        qv = np.asarray(self.q(x), dtype=float) if callable(self.q) else np.array(self.q, dtype=float)
        if qv.shape != x.shape:
            raise GridMismatchError(f"q needs {x.shape[0]} samples on [0,L], got {qv.shape}")
        object.__setattr__(self, "q", qv)

    @property
    def dt(self) -> float:
        return self.kernel.grid.dt

    @property
    def n_x(self) -> int:
        return round(self.L / self.dt)


@dataclass(frozen=True)
class WaveField:
    """Solved field with its boundary data.

    w is the physical field, sampled on the space grid of the solver (x in
    [0,T] for the mild solver, [0,L] for the finite-difference oracle); gamma
    is the exponent of the transform w = exp(gamma t) W.
    """

    w: Sampled2D
    f: Sampled1D
    y: Sampled1D
    sigma: Sampled1D
    gamma: float

    @property
    def xgrid(self) -> TimeGrid:
        return self.w.sgrid

    @property
    def tgrid(self) -> TimeGrid:
        return self.w.tgrid


def _check_control(f: Sampled1D):
    scale = max(np.max(np.abs(f.values)), 1e-30)
    if abs(f.values[0]) > 1e-10 * scale:
        raise KernelValidationError(
            f"boundary control must start at rest, got f(0) = {f.values[0]}"
        )


def _memory_row(K: np.ndarray, W: np.ndarray, k: int, dt: float) -> np.ndarray:
    """Trapezoid of int_0^{t_k} K(t_k - s) W(x, s) ds for every x at once."""
    if k == 0:
        return np.zeros(W.shape[0])
    acc = 0.5 * K[k] * W[:, 0] + 0.5 * K[0] * W[:, k]
    if k > 1:
        acc += W[:, 1:k] @ K[k - 1:0:-1]
    return dt * acc


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in NumericalFailure below
def solve_mild(p: StringProblem, f: Sampled1D, res: ResolventData | None = None) -> WaveField:
    """March the characteristic integral equation of the transformed field.

    Returns the complete WaveField (field, boundary response and traction),
    or raises NumericalFailure when any of them is not finite.
    The control must satisfy f(0) = 0 and live on the time grid of [0,T].
    """
    dt = p.dt
    m = round(p.T / dt)
    if abs(m * dt - p.T) > 1e-9:
        raise GridMismatchError(f"T={p.T} is not on the time lattice of step {dt}")
    if not (abs(f.grid.dt - dt) <= 1e-12 * dt and f.grid.n == m):
        raise GridMismatchError(f"control must be sampled on [0,T] with step {dt}")
    if p.kernel.grid.n < m:
        raise GridMismatchError("kernel grid does not cover the horizon")
    _check_control(f)

    if res is None:
        res = resolvent(p.kernel)
    gamma, alpha = res.gamma, res.alpha
    K = res.K.values
    has_memory = bool(np.any(K[: m + 1]))

    tgrid = TimeGrid(dt, m)
    xgrid = TimeGrid(dt, m)  # field vanishes for x > t, so [0,T] suffices
    t = tgrid.nodes()
    qa = p.q[: m + 1] + alpha
    g = np.exp(-gamma * t) * f.values

    W = np.zeros((m + 1, m + 1))
    F = np.zeros((m + 1, m + 1))
    W[0, :] = g
    # F(.,0) = (q+alpha) W(.,0) = 0 since f(0) = 0
    for k in range(1, m):
        F[:, k] = qa * W[:, k]
        if has_memory:
            F[:, k] += _memory_row(K, W, k, dt)
        W[1:m, k + 1] = W[2 : m + 1, k] + W[0 : m - 1, k] - W[1:m, k - 1] + dt * dt * F[1:m, k]
    if m >= 1:
        F[:, m] = qa * W[:, m]
        if has_memory:
            F[:, m] += _memory_row(K, W, m, dt)

    w = np.exp(gamma * t)[None, :] * W
    y = _response_from_source(f.values, F, gamma, dt)
    sigma = _traction(p.kernel, y, dt)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(y)) and np.all(np.isfinite(sigma))):
        raise NumericalFailure("forward solution is not finite (the control or q overflows the solver)")
    return WaveField(
        w=Sampled2D(xgrid, tgrid, w),
        f=f,
        y=Sampled1D(tgrid, y),
        sigma=Sampled1D(tgrid, sigma),
        gamma=gamma,
    )


def _traction(kernel: MemoryKernel, y: np.ndarray, dt: float) -> np.ndarray:
    """sigma = -int_0^t N(t-s) y(s) ds on the window of y (the kernel grid
    may be longer)."""
    return -convolve_values(kernel.N.values[: len(y)], y, dt)


def _trace_x0(w: np.ndarray, dx: float) -> np.ndarray:
    """One-sided second-order difference of the rows w[0..2] at x = 0."""
    return (-3.0 * w[0, :] + 4.0 * w[1, :] - w[2, :]) / (2.0 * dx)


def _response_from_source(f: np.ndarray, F: np.ndarray, gamma: float, dt: float) -> np.ndarray:
    """Boundary derivative trace assembled from the closed-form x-derivative
    of the characteristic representation:

        y(t) = gamma f(t) - f'(t) + exp(gamma t) int_0^t F(xi, t-xi) dxi.

    Differentiating the triangle integral u(x,t) in x and letting x -> 0+
    gives u_x(0,t) = 2 int_0^t F(xi,t-xi) dxi (the interior and reflected
    characteristic families contribute one copy each); with W = g + u/2 the
    factor two and the half cancel.
    """
    m = F.shape[1] - 1
    t = np.arange(m + 1) * dt
    fp = centered_difference(f, dt)
    integral = np.zeros(m + 1)
    for k in range(1, m + 1):
        idx = np.arange(k + 1)
        diag = F[idx, k - idx]
        integral[k] = dt * (diag.sum() - 0.5 * diag[0] - 0.5 * diag[-1])
    return gamma * f - fp + np.exp(gamma * t) * integral


def boundary_derivative(field: WaveField) -> Sampled1D:
    """One-sided second-order difference of w at x = 0 (oracle-style trace)."""
    return Sampled1D(field.tgrid, _trace_x0(field.w.values, field.xgrid.dt))


def final_snapshot(field: WaveField, T: float | None = None) -> Sampled1D:
    """Space slice w(., T) on [0, T_X] (T_X = T; zero beyond by finite speed)."""
    tgrid = field.tgrid
    k = tgrid.n if T is None else tgrid.index_of(T)
    n_keep = min(k, field.xgrid.n)
    xg = TimeGrid(tgrid.dt, max(n_keep, 1))
    vals = field.w.values[: xg.n + 1, k]
    return Sampled1D(xg, vals)


def fd_oracle(p: StringProblem, f: Sampled1D, res: ResolventData | None = None) -> WaveField:
    """Independent leapfrog solution of w_tt = Lw + int_0^t N'(t-s) Lw(s) ds
    on the full interval [0,L], Dirichlet at both ends, zero initial data.

    Runs at the characteristic step dx = dt (CFL number one, admissible since
    the propagation speed is N(0) = 1).
    """
    dt = p.dt
    m = round(p.T / dt)
    if not (abs(f.grid.dt - dt) <= 1e-12 * dt and f.grid.n == m):
        raise GridMismatchError(f"control must be sampled on [0,T] with step {dt}")
    _check_control(f)
    dx = dt  # equality is the validity edge of the CFL condition
    if dt > dx + 1e-15:
        raise NumericalFailure(f"CFL violation: dt={dt} > dx={dx}")

    n_x = p.n_x
    q = p.q
    n1 = p.kernel.N1.values
    has_memory = bool(np.any(n1[: m + 1]))

    w = np.zeros((n_x + 1, m + 1))
    Lw = np.zeros((n_x + 1, m + 1))
    w[0, :] = f.values
    inv_dx2 = 1.0 / (dx * dx)
    for k in range(1, m):
        Lw[1:n_x, k] = (
            (w[2:, k] - 2.0 * w[1:n_x, k] + w[: n_x - 1, k]) * inv_dx2 + q[1:n_x] * w[1:n_x, k]
        )
        rhs = Lw[1:n_x, k].copy()
        if has_memory:
            rhs += _memory_row(n1, Lw[1:n_x, :], k, dt)
        w[1:n_x, k + 1] = 2.0 * w[1:n_x, k] - w[1:n_x, k - 1] + dt * dt * rhs
        w[0, k + 1] = f.values[k + 1]
        w[n_x, k + 1] = 0.0

    if res is None:
        res = resolvent(p.kernel)
    tgrid = TimeGrid(dt, m)
    xg = TimeGrid(dt, n_x)
    y = _trace_x0(w, dx)
    return WaveField(
        w=Sampled2D(xg, tgrid, w),
        f=f,
        y=Sampled1D(tgrid, y),
        sigma=Sampled1D(tgrid, _traction(p.kernel, y, dt)),
        gamma=res.gamma,
    )
