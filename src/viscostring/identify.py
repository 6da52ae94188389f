"""Coefficient reconstruction from the connecting Gram.

For each horizon T the control steering the string to the target profile
xi(x) -- the solution of xi'' + q(x) xi = 0, xi(0) = 0, xi'(0) = 1 -- is
characterized by

    <C_T f, g> = int_0^T M(T-r) g(r) dr   for every test control g,
    M(t) = int_0^t N(r) dr,

so its basis coefficients solve the Gram system C c = b with the moment
vector b on the right.  The sign in the target equation pairs with the
operator w_xx + q w of the model: integrating H(T,T) by parts leaves a
volume term (xi'' + q xi) w^g that must vanish for every test control, and
boundary terms that reduce to the moment integral exactly when xi(0) = 0
and xi'(0) = 1.  Tikhonov regularization (C + lambda I) c = b absorbs the
discretization noise; "auto" sweeps lambda geometrically and keeps the
smallest value whose relative residual reaches 1e-6 with a solution norm
stable to 1% over one sweep step.

Reading the control's boundary value needs care: every basis element vanishes
at t = 0 while the steering control does not (its value there IS the target
trace xi(T)).  Raw coefficients near the boundary carry an alternating
Galerkin edge ripple, but the dual averages

    v_j = <f_h, e_j> / <1, e_j> = (M_mass c)_j / m_j

are ripple-free samples of the control at the element abscissae; a quadratic
extrapolation of the first few duals to t = 0 recovers xi(T) (exactly so for
affine controls, which is the memoryless case).  Finally q(T) = -xi''(T)/xi(T)
with xi'' from local quadratic fits over the horizon lattice and a zero guard
on the denominator (continuity extension across guarded points; for positive
q the target genuinely oscillates and crosses zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalFailure
from .grid import Sampled1D, TimeGrid, trap_weights
from .kernels import MemoryKernel
from .connecting import ConnectingGram, ControlBasis, ResponseTable, gram_from_data

__all__ = [
    "IdentifyConfig",
    "SteeringControl",
    "ReconstructionResult",
    "steering_rhs",
    "steering_control",
    "reconstruct_q",
    "default_horizons",
    "pipeline",
]


@dataclass(frozen=True)
class IdentifyConfig:
    """Regularization and readout knobs of the reconstruction.

    horizons: explicit horizon times, or None for the basis knot lattice.
    tikhonov_lambda: absolute ridge weight, or "auto" for the residual sweep.
    smoothing_halfwidth: half window (in horizon samples) of the local
        quadratic fits that produce xi''.
    xi_zero_guard: |xi| threshold below which q = xi''/xi is not evaluated
        but interpolated from neighbors; None = 5*dt.
    readout_points: number of leading dual samples extrapolated to t = 0.
    """

    horizons: np.ndarray | None = None
    tikhonov_lambda: float | str = "auto"
    smoothing_halfwidth: int = 3
    xi_zero_guard: float | None = None
    readout_points: int = 3

    def __post_init__(self):
        if self.smoothing_halfwidth < 1:
            raise ConfigError("smoothing halfwidth must be >= 1")
        if not (self.tikhonov_lambda == "auto" or float(self.tikhonov_lambda) >= 0):
            raise ConfigError("tikhonov_lambda must be 'auto' or a nonnegative number")
        if self.xi_zero_guard is not None and not (self.xi_zero_guard > 0):
            raise ConfigError("xi_zero_guard must be positive")
        if self.readout_points not in (2, 3):
            raise ConfigError("readout_points must be 2 or 3")
        if self.horizons is not None:
            h = np.array(self.horizons, dtype=float)
            if h.ndim != 1 or len(h) == 0 or np.any(np.diff(h) <= 0) or h[0] <= 0:
                raise ConfigError("horizons must be strictly increasing positive times")
            object.__setattr__(self, "horizons", h)


def steering_rhs(k: MemoryKernel, basis: ControlBasis, T: float) -> np.ndarray:
    """Moment vector b_j = int_0^T M(T-r) e_j(r) dr (trapezoid)."""
    dt = basis.grid.dt
    idx = basis.grid.index_of(T)
    if k.grid.n < idx:
        raise ConfigError("kernel grid does not cover the horizon")
    m_rev = k.M.values[idx::-1]
    w = trap_weights(idx + 1, dt)
    return basis.samples[:, : idx + 1] @ (w * m_rev)


@dataclass(frozen=True)
class SteeringControl:
    """Steering solve output at one horizon."""

    T: float
    coefficients: np.ndarray        # full-length, zero outside the active set
    active: np.ndarray
    duals: np.ndarray               # <f_h, e_j>/<1, e_j> on the active set
    dual_times: np.ndarray
    control: Sampled1D              # stabilized readout on [0, T]
    xi: float
    lambda_used: float
    residual: float
    diagnostics: dict = field(default_factory=dict)


def _tikhonov_sweep(C: np.ndarray, b: np.ndarray, cfg: IdentifyConfig):
    """Solve (C + lambda I) c = b; lambda per config ("auto" = smallest sweep
    value reaching relative residual 1e-6 with 1%-stable solution norm)."""
    nb = np.linalg.norm(b)
    if nb == 0.0:
        lam = 0.0 if cfg.tikhonov_lambda == "auto" else float(cfg.tikhonov_lambda)
        return np.zeros_like(b), lam, 0.0, {}
    scale = float(np.trace(C)) / len(b)
    if cfg.tikhonov_lambda != "auto":
        lam = float(cfg.tikhonov_lambda)
        c = np.linalg.solve(C + lam * np.eye(len(b)), b)
        return c, lam, float(np.linalg.norm(C @ c - b) / nb), {}
    lams = scale * np.geomspace(1e-15, 1e-3, 25)
    sols, residuals, norms = [], [], []
    for lam in lams:
        c = np.linalg.solve(C + lam * np.eye(len(b)), b)
        sols.append(c)
        residuals.append(float(np.linalg.norm(C @ c - b) / nb))
        norms.append(float(np.linalg.norm(c)))
    chosen = None
    for i in range(len(lams) - 1):
        stable = abs(norms[i] - norms[i + 1]) <= 0.01 * max(norms[i + 1], 1e-300)
        if residuals[i] <= 1e-6 and stable:
            chosen = i
            break
    info = {}
    if chosen is None:
        chosen = int(np.argmin(residuals))
        info["lambda_warning"] = (
            f"residual floor 1e-6 unreachable; best relative residual "
            f"{residuals[chosen]:.3e} at lambda {lams[chosen]:.3e}"
        )
    return sols[chosen], float(lams[chosen]), residuals[chosen], info


def _extrapolate(times: np.ndarray, values: np.ndarray, t0: float) -> float:
    """Evaluate the interpolating polynomial through up to 3 points at t0."""
    k = len(times)
    if k == 1:
        return float(values[0])
    coeffs = np.polyfit(times, values, k - 1)
    return float(np.polyval(coeffs, t0))


def steering_control(
    gram: ConnectingGram,
    T: float,
    b: np.ndarray,
    cfg: IdentifyConfig | None = None,
) -> SteeringControl:
    """Solve the steering system at horizon T and assemble the control.

    The returned Sampled1D is the stabilized readout: the piecewise-linear
    interpolant of the dual averages with both endpoint values filled by
    quadratic extrapolation (the zero-at-ends basis cannot represent them).
    Raw coefficients remain available for diagnostics.
    """
    cfg = cfg or IdentifyConfig()
    basis = gram.basis
    active = basis.active(T)
    if len(active) == 0:
        raise ConfigError(f"horizon T={T} is below the first basis support")
    C_full = gram.at(T)
    C = C_full[np.ix_(active, active)]
    b_a = np.asarray(b, dtype=float)[active]

    ev_min = float(np.linalg.eigvalsh(C)[0])
    c_norm = float(np.linalg.norm(C))
    if ev_min < -1e-8 * max(c_norm, 1e-300):
        raise NumericalFailure(
            f"Gram at T={T} is not positive semidefinite beyond tolerance "
            f"(min eigenvalue {ev_min:.3e}, norm {c_norm:.3e})"
        )

    c_a, lam, residual, info = _tikhonov_sweep(C, b_a, cfg)

    mass = basis.mass_matrix()[np.ix_(active, active)]
    masses = basis.element_masses()[active]
    duals = (mass @ c_a) / masses
    tbars = basis.dual_abscissae()[active]

    pts = min(cfg.readout_points, len(active))
    # target trace: the wavefront of the transformed field carries f(0+),
    # the physical one exp(gamma T) f(0+)
    xi = float(np.exp(gram.gamma * T)) * _extrapolate(tbars[:pts], duals[:pts], 0.0)

    # stabilized control: pw-linear through (0, xi), (tbar_j, v_j), (T, tail)
    tail = _extrapolate(tbars[-pts:], duals[-pts:], T)
    dt = basis.grid.dt
    idx = basis.grid.index_of(T)
    tgrid = TimeGrid(dt, idx)
    knots_t = np.concatenate(([0.0], tbars, [T]))
    knots_v = np.concatenate(([xi], duals, [tail]))
    samples = np.interp(tgrid.nodes(), knots_t, knots_v)

    coeffs = np.zeros(basis.n)
    coeffs[active] = c_a
    diag = {
        "active_count": len(active),
        "readout_points": pts,
        "condition": float(np.linalg.cond(C + lam * np.eye(len(b_a)))),
        **info,
    }
    return SteeringControl(
        T=T,
        coefficients=coeffs,
        active=active,
        duals=duals,
        dual_times=tbars,
        control=Sampled1D(tgrid, samples),
        xi=xi,
        lambda_used=lam,
        residual=residual,
        diagnostics=diag,
    )


def reconstruct_q(
    horizons: np.ndarray,
    xi: np.ndarray,
    cfg: IdentifyConfig,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """q(T) = -xi''(T)/xi(T) with xi'' from local least-squares fits
    (the target trace solves xi'' + q xi = 0).

    Windows are 2*halfwidth+1 samples; interior windows are centered and
    fitted with a quadratic (the cubic error term cancels by symmetry).  At
    the ends the window shifts one-sided, where a quadratic would estimate
    xi'' at the window center instead of the evaluation point, so shifted
    windows use a cubic.  Where |xi| falls under the zero guard, q is
    linearly interpolated across from the nearest guarded-clear neighbors
    (continuity extension).  Returns (q, guard_flags).
    """
    h = np.asarray(horizons, dtype=float)
    v = np.asarray(xi, dtype=float)
    w = cfg.smoothing_halfwidth
    n = len(h)
    if n < 2 * w + 1:
        raise ConfigError(
            f"need at least {2 * w + 1} horizon samples for halfwidth {w}, got {n}"
        )
    eps = cfg.xi_zero_guard if cfg.xi_zero_guard is not None else 5.0 * dt
    q = np.empty(n)
    guarded = np.zeros(n, dtype=bool)
    for i in range(n):
        lo = min(max(0, i - w), n - (2 * w + 1))
        window = slice(lo, lo + 2 * w + 1)
        degree = 2 if lo == i - w else 3
        coef = np.polyfit(h[window] - h[i], v[window], degree)
        xi_dd = 2.0 * coef[degree - 2]
        xi_c = coef[-1]
        if abs(xi_c) > eps:
            q[i] = -xi_dd / xi_c
        else:
            q[i] = np.nan
            guarded[i] = True
    if np.all(guarded):
        raise NumericalFailure("target identically degenerate: |xi| under guard everywhere")
    if np.any(guarded):
        ok = ~guarded
        q[guarded] = np.interp(h[guarded], h[ok], q[ok])
    return q, guarded


def default_horizons(basis: ControlBasis, min_active: int = 3) -> np.ndarray:
    """Horizon lattice synchronized with basis activation: the knot times at
    which at least min_active elements are fully supported.  Keeping horizons
    on this lattice makes the active set change exactly at (not between)
    sample points, and min_active matching the readout depth keeps the
    extrapolation mode identical across horizons -- both matter because
    xi(T) is differentiated twice afterwards."""
    return basis.knots[min_active + 1 :].copy()


@dataclass(frozen=True)
class ReconstructionResult:
    """Per-horizon target trace, reconstructed coefficient and diagnostics."""

    horizons: np.ndarray
    xi: np.ndarray
    q_hat: np.ndarray
    guarded: np.ndarray
    diagnostics: list
    meta: dict = field(default_factory=dict)

    def rows(self):
        """(T, xi, q_hat, residual, lambda, guard_flag) per horizon."""
        for i, T in enumerate(self.horizons):
            d = self.diagnostics[i]
            yield (
                float(T),
                float(self.xi[i]),
                float(self.q_hat[i]),
                d["residual"],
                d["lambda"],
                int(self.guarded[i]),
            )


def pipeline(
    tab: ResponseTable,
    cfg: IdentifyConfig | None = None,
    gram: ConnectingGram | None = None,
) -> ReconstructionResult:
    """Full data-driven reconstruction: one Gram build serves every horizon."""
    cfg = cfg or IdentifyConfig()
    if gram is None:
        gram = gram_from_data(tab)
    basis = tab.basis
    horizons = (
        cfg.horizons
        if cfg.horizons is not None
        else default_horizons(basis, min_active=cfg.readout_points)
    )
    if len(horizons) == 0:
        raise ConfigError("empty horizon list")

    xi = np.empty(len(horizons))
    diags = []
    for i, T in enumerate(horizons):
        b = steering_rhs(tab.kernel, basis, float(T))
        sc = steering_control(gram, float(T), b, cfg)
        xi[i] = sc.xi
        diags.append(
            {
                "residual": sc.residual,
                "lambda": sc.lambda_used,
                "active": len(sc.active),
                **sc.diagnostics,
            }
        )
    q, guarded = reconstruct_q(np.asarray(horizons, float), xi, cfg, basis.grid.dt)
    return ReconstructionResult(
        horizons=np.asarray(horizons, float),
        xi=xi,
        q_hat=q,
        guarded=guarded,
        diagnostics=diags,
        meta={"n_basis": basis.n, "dt": basis.grid.dt, "source": gram.source},
    )
