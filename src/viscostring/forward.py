"""Forward simulation of the string with persistent memory.

Model:  w_t(x,t) = int_0^t N(t-s) [w_xx + q(x) w](x,s) ds  on (0,L),
        w(x,0) = 0,  w(0,t) = f(t),  w(L,t) = 0,
observed through the boundary derivative y(t) = w_x(0,t).

``solve_mild`` integrates the transformed field W = exp(-gamma t) w, which for
T <= L (no reflection from x = L, as ``StringProblem`` checks) satisfies the
characteristic integral equation

    W(x,t) = exp(-gamma(t-x)) f(t-x) + (1/2) int_{D(x,t)} F,
    F(x,t) = (q(x) + alpha) W(x,t) + int_0^t K(t-s) W(x,s) ds,

with D(x,t) the backward characteristic triangle.  gamma, alpha and K come
from ``kernels.resolvent``, solved once per kernel on its whole grid; the
march reads K on [0,T] only, where the causal Volterra solves give the
values of the kernel cut to [0,T] bit for bit.  Marching in time, the
triangle integral telescopes into the lozenge update

    W[i,k+1] = W[i+1,k] + W[i-1,k] - W[i,k-1] + dt^2 F[i,k]

(midpoint rule on the lozenge between levels, fourth-order locally).  Waves
travel at speed one and the update keeps W[i,k] = 0 for x_i > t_k exactly, so
the march stores W time-major and level k touches only its light cone, the
rows i <= k+1.  The memory trapezoid of F is split by levels: per block of
``_BLOCK`` levels one product of a Toeplitz slice of dt*K with the field of
all earlier levels sums the history before the block, and one small product
per level adds the levels k0..k inside it, with the weights dt*[K_{k-k0}, ...,
K_1, K_0/2] whose last entry is the l = k end of the trapezoid (the near/far
split of Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985)
532-541, without FFTs).

The boundary response needs no difference quotient.  Differentiating the
triangle integral in x at x = 0+ (the interior and reflected characteristic
families give one copy each, and with W = g + u/2 the factor two and the
half cancel) gives

    y(t) = gamma f(t) - f'(t) + exp(gamma t) int_0^t F(xi, t-xi) dxi,

and the march adds each level's F row into that anti-diagonal integral as it
goes, so F is never stored: one buffer holds the row of the current level.
y(t_n) reads the cells x_i + t_k <= t_n only, so the march (``_mild_march``)
takes the last anti-diagonal its caller needs: ``solve_mild`` asks for the
whole cone, while the response table
(``connecting.synthesize_table``) reads only the trace on [0,T] and asks for
x_i + t_k <= T, where level k touches the rows i <= min(k+1, m-k), half of
the cone, and builds neither the physical field nor the traction.

``fd_oracle`` is an independent check: a leapfrog discretization of the
differentiated model w_tt = Lw + int_0^t N'(t-s) Lw(s) ds on the full domain
[0,L] with Dirichlet ends.  It never sees gamma/alpha/K, so agreement with
``solve_mild`` validates the whole transform chain.  Both return a
``WaveField`` of physical quantities only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridMismatchError, KernelValidationError, NumericalFailure
from .grid import Sampled1D, Sampled2D, TimeGrid, centered_difference
from .kernels import MemoryKernel, resolvent, response_to_traction

__all__ = [
    "StringProblem",
    "WaveField",
    "solve_mild",
    "final_snapshot",
    "fd_oracle",
]


@dataclass(frozen=True)
class StringProblem:
    """Geometry, coefficient and kernel of one simulation instance, checked once.

    q may be a callable of x or an array sampled at the x-nodes of [0,L]
    (spacing = kernel grid step, shared so characteristics hit nodes).  L and
    T lie on that lattice, T <= L (no reflection from x = L) and the kernel
    grid reaches T; the solvers trust these checks and read p.tgrid.
    """

    L: float
    q: object
    kernel: MemoryKernel
    T: float

    def __post_init__(self):
        dt = self.kernel.grid.dt
        for name, value in (("L", self.L), ("T", self.T)):
            steps = round(value / dt)
            if steps < 1 or abs(steps * dt - value) > 1e-9 * max(1.0, value):
                raise GridMismatchError(f"{name}={value} is not on the lattice of step {dt}")
        if self.tgrid.n > self.n_x:
            raise GridMismatchError(
                f"horizon T={self.T} exceeds L={self.L}: the representation is only "
                "valid before a reflection from the far end"
            )
        if self.kernel.grid.n < self.tgrid.n:
            raise GridMismatchError("kernel grid does not cover the horizon")
        x = np.arange(self.n_x + 1) * dt
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

    @property
    def tgrid(self) -> TimeGrid:
        return TimeGrid(self.dt, round(self.T / self.dt))


@dataclass(frozen=True)
class WaveField:
    """Solved field with its boundary response.

    w is the physical field, sampled on the space grid of the solver (x in
    [0,T] for the mild solver, [0,L] for the finite-difference oracle); y is
    the boundary derivative w_x(0,.) and sigma the traction.  The control
    stays with the caller, the transform constants with the kernel's
    resolvent, which the oracle never forms.
    """

    w: Sampled2D
    y: Sampled1D
    sigma: Sampled1D

    @property
    def xgrid(self) -> TimeGrid:
        return self.w.sgrid

    @property
    def tgrid(self) -> TimeGrid:
        return self.w.tgrid


def _check_control(p: StringProblem, f: Sampled1D):
    """The one check of a control: it lives on p.tgrid and starts at rest."""
    if not f.grid.same_as(p.tgrid):
        raise GridMismatchError(f"control must be sampled on [0,T] with step {p.dt}")
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


_BLOCK = 32  # levels whose memory history before the block is one matrix product


_OVERFLOW = "forward solution is not finite (the control or q overflows the solver)"


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in NumericalFailure
def _mild_march(p: StringProblem, f: Sampled1D, last: int) -> tuple[np.ndarray, np.ndarray]:
    """March the transformed field on the cells x_i + t_k <= t_last of the cone.

    Returns W, time-major (W[k, i] = W(x_i, t_k), zero off those cells) on
    the rows some level touches (all m+1 for the whole cone, about m/2 + 2
    for last = m), and the boundary trace y on [0, T]; y(t_n) reads the
    anti-diagonal x_i + t_k = t_n only, so any last >= m gives all of it.
    Raises NumericalFailure when y is not finite.  f must already be checked
    against p, as ``solve_mild`` checks it.

    Per level, F is formed in one reused buffer: (q+alpha) W, the block's
    far-history row, and one near product of the levels k0..k whose last
    weight is dK[0]/2.  Its first entry, the trapezoid end of anti-diagonal
    t_k, is halved in place and the row goes into the integral in one slice
    add; the W update, written in place into W[k+1], reads F[1:-1] only.
    """
    dt, m = p.dt, p.tgrid.n
    res = resolvent(p.kernel)
    gamma, alpha = res.gamma, res.alpha
    dK = np.concatenate([dt * res.K.values[: m + 1], np.zeros(_BLOCK)])  # zero past lag m
    has_memory = bool(np.any(dK))
    # row j of the window view is dK[j : j + _BLOCK]
    windows = sliding_window_view(dK, _BLOCK)
    # near weights by reversed lag, [dK[_BLOCK-1], ..., dK[1], dK[0]/2]: level k
    # of a block at k0 reads the last k-k0+1 of them against levels k0..k
    near = dK[_BLOCK - 1 :: -1].copy()
    near[-1] *= 0.5  # the l = k end of the trapezoid

    t = p.tgrid.nodes()
    qa = p.q[: m + 1] + alpha

    # level k touches the rows i <= k+1 (its light cone and one beyond) with
    # x_i + t_k <= t_last; the first ends[k] of them add to anti-diagonals <= T
    level = np.arange(m + 1)
    rows = np.minimum(np.minimum(level + 2, m + 1), last + 1 - level)
    ends = np.minimum(rows, m + 1 - level).tolist()
    rows = rows.tolist()

    W = np.zeros((m + 1, max(rows)))
    W[:, 0] = np.exp(-gamma * t) * f.values
    buf = np.empty(max(rows))  # F of the current level
    dt2 = dt * dt
    integral = np.zeros(m + 1)  # trapezoid sums of F along x_i + t_k = t_n, level by level
    # F(.,0) = (q+alpha) W(.,0) = 0 since f(0) = 0, so level 0 adds nothing
    for k0 in range(1, m + 1, _BLOCK):
        k1 = min(k0 + _BLOCK, m + 1)
        if has_memory:
            # memory of levels l = 1..k0-1 for the whole block, Toeplitz(dK)[k0:k1, 1:k0];
            # level l lives on rows i < l, and the block reads rows i <= last - k0
            c = min(k0, last - k0 + 1)
            history = windows[k0 - 1 : 0 : -1, : k1 - k0].T @ W[1:k0, :c]
            history[:, 0] += 0.5 * dK[k0:k1] * W[0, 0]  # the l = 0 end
        for k in range(k0, k1):
            r = rows[k]
            Wk = W[k, :r]
            F = np.multiply(qa[:r], Wk, out=buf[:r])
            if has_memory:
                F[:c] += history[k - k0, :r]
                F += near[_BLOCK - 1 - (k - k0) :] @ W[k0 : k + 1, :r]
            F[0] *= 0.5  # the trapezoid end of anti-diagonal t_k; the W update reads F[1:-1]
            integral[k : k + ends[k]] += F[: ends[k]]
            if k < m:
                nxt = W[k + 1, 1 : r - 1]
                np.add(Wk[2:], Wk[:-2], out=nxt)
                nxt -= W[k - 1, 1 : r - 1]
                F *= dt2
                nxt += F[1:-1]

    fp = centered_difference(f.values, dt)
    y = gamma * f.values - fp + np.exp(gamma * t) * (dt * integral)
    if not np.all(np.isfinite(y)):
        raise NumericalFailure(_OVERFLOW)
    return W, y


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in NumericalFailure below
def solve_mild(p: StringProblem, f: Sampled1D) -> WaveField:
    """March the characteristic integral equation of the transformed field.

    Returns the complete WaveField (field, boundary response and traction),
    or raises NumericalFailure when any of them is not finite.  StringProblem
    has checked the horizon; the control must start at rest on p.tgrid.  The
    march's field is scaled in place, frozen and handed to the WaveField as
    its transposed view, uncopied.
    """
    _check_control(p, f)
    tgrid = p.tgrid
    W, y = _mild_march(p, f, 2 * tgrid.n)  # the whole cone: x_i <= t_k <= T
    W *= np.exp(resolvent(p.kernel).gamma * tgrid.nodes())[:, None]
    y = Sampled1D(tgrid, y)
    sigma = response_to_traction(y, p.kernel)
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(sigma.values))):
        raise NumericalFailure(_OVERFLOW)
    W.flags.writeable = False  # W is private, so the field takes it uncopied
    # the field vanishes for x > t, so x in [0,T] suffices
    return WaveField(w=Sampled2D(tgrid, tgrid, W.T), y=y, sigma=sigma)


def _trace_x0(w: np.ndarray, dx: float) -> np.ndarray:
    """One-sided second-order difference of the rows w[0..2] at x = 0."""
    return (-3.0 * w[0, :] + 4.0 * w[1, :] - w[2, :]) / (2.0 * dx)


def final_snapshot(field: WaveField, T: float | None = None) -> Sampled1D:
    """Space slice w(., T) on [0, T_X] (T_X = T; zero beyond by finite speed)."""
    tgrid = field.tgrid
    k = tgrid.n if T is None else tgrid.index_of(T)
    n_keep = min(k, field.xgrid.n)
    xg = TimeGrid(tgrid.dt, max(n_keep, 1))
    vals = field.w.values[: xg.n + 1, k]
    return Sampled1D(xg, vals)


def fd_oracle(p: StringProblem, f: Sampled1D) -> WaveField:
    """Independent leapfrog solution of w_tt = Lw + int_0^t N'(t-s) Lw(s) ds
    on the full interval [0,L], Dirichlet at both ends, zero initial data.

    Runs at the characteristic step dx = dt (CFL number one, admissible since
    the propagation speed is N(0) = 1).  Trusts the horizon and the control
    as ``solve_mild`` does.
    """
    _check_control(p, f)
    dt, tgrid = p.dt, p.tgrid
    m = tgrid.n
    dx = dt  # equality is the validity edge of the CFL condition

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

    xg = TimeGrid(dt, n_x)
    y = Sampled1D(tgrid, _trace_x0(w, dx))
    return WaveField(w=Sampled2D(xg, tgrid, w), y=y, sigma=response_to_traction(y, p.kernel))
