"""Acceptance battery: every shipping criterion as a callable check.

Each criterion function builds its own inputs, measures the quantity the
criterion bounds, and returns a CriterionResult; ``run_all`` produces the
machine-readable report (one line per criterion: id, status, measured,
threshold, runtime in seconds).  The pytest acceptance module calls the same
functions, so the CLI ``verify`` subcommand and the test suite cannot drift
apart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .grid import Sampled1D, TimeGrid, convolve_values, cumulative_values
from . import kernels
from .kernels import build_kernel, solve_volterra
from .forward import StringProblem, fd_oracle, solve_mild
from .connecting import (
    ControlBasis,
    ResponseTable,
    _gaussian,
    gram_from_data,
    gram_oracle,
    hat_basis,
    synthesize_table,
)
from .identify import (
    IdentifyConfig,
    pipeline,
    reconstruct_q,
    steering_control,
    steering_rhs,
)

__all__ = ["CriterionResult", "CRITERIA", "run_all", "format_report"]


@dataclass
class CriterionResult:
    cid: str
    passed: bool
    measured: float
    threshold: float
    seconds: float
    detail: str = ""
    sub: list = field(default_factory=list)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.cid} {status} {self.measured:.6e} {self.threshold:.6e} {self.seconds:.3f}s"


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def a1_resolvent_analytic() -> CriterionResult:
    """Exponential kernel: the resolvent is the constant -rate."""

    def work():
        grid = TimeGrid(1e-3, 2000)
        ker = build_kernel(grid, "exp", rate=0.5)
        res = kernels.resolvent(ker)
        return float(np.max(np.abs(res.R.values + 0.5)))

    measured, secs = _timed(work)
    passed = measured <= 1e-6 and secs < 1.0
    return CriterionResult(
        "A1", passed, measured, 1e-6, secs,
        detail=f"runtime {secs:.2f}s (limit 1s)",
    )


def a2_forward_exact() -> CriterionResult:
    """Memoryless, q = 0: the solver must transport the control exactly."""

    def work():
        T, L, m = 0.5, 1.0, 128
        dt = T / m
        ker = build_kernel(TimeGrid(dt, m), "const")
        p = StringProblem(L, lambda x: np.zeros_like(x), ker, T)
        f = Sampled1D.from_callable(TimeGrid(dt, m), lambda t: np.sin(np.pi * t / T) ** 2)
        fld = solve_mild(p, f)
        t = fld.tgrid.nodes()
        x = fld.xgrid.nodes()
        lag = t[None, :] - x[:, None]
        exact = np.where(lag >= 0, np.interp(np.clip(lag, 0.0, None), t, f.values), 0.0)
        return float(np.max(np.abs(fld.w.values - exact)))

    measured, secs = _timed(work)
    passed = measured <= 1e-10 and secs < 5.0
    return CriterionResult(
        "A2", passed, measured, 1e-10, secs,
        detail=f"runtime {secs:.2f}s (limit 5s)",
    )


def _a3_gap(m: int) -> float:
    T, L = 0.5, 1.0
    dt = T / m
    ker = build_kernel(TimeGrid(dt, m), "exp", rate=1.0)
    qf = lambda x: 1.0 + 0.5 * np.sin(np.pi * x / L)
    p = StringProblem(L, qf, ker, T)
    f = Sampled1D.from_callable(TimeGrid(dt, m), lambda t: np.sin(np.pi * t / T) ** 2)
    a = solve_mild(p, f)
    b = fd_oracle(p, f)
    keep = a.xgrid.n + 1
    wa, wb = a.w.values, b.w.values[:keep, :]
    return float(np.linalg.norm(wa - wb) / np.linalg.norm(wb))


def a3_forward_oracle() -> CriterionResult:
    """Transformed characteristic solver against the leapfrog oracle; also
    pins the alpha-sign decision of the kernel transform."""

    def work():
        gaps = {m: _a3_gap(m) for m in (100, 200, 400)}
        orders = [np.log2(gaps[100] / gaps[200]), np.log2(gaps[200] / gaps[400])]
        return gaps, min(orders)

    (gaps, order), secs = _timed(work)
    measured = gaps[400]
    passed = measured <= 1e-2 and order >= 1.0
    return CriterionResult(
        "A3", passed, measured, 1e-2, secs,
        detail=f"gaps {gaps}, empirical order {order:.2f} (need >= 1)",
    )


def a4_connecting_identity() -> CriterionResult:
    """Memoryless q = 0: the data-side Gram is the hat mass matrix."""

    def work():
        T_max, L, n, m = 0.5, 1.0, 32, 256
        dt = T_max / m
        grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
        basis = hat_basis(grid, n)
        tab = synthesize_table(basis, build_kernel(grid2, "const"), lambda x: np.zeros_like(x), L)
        gram = gram_from_data(tab)
        C = gram.at(T_max)
        M = basis.mass_matrix
        return float(np.linalg.norm(C - M) / np.linalg.norm(M))

    measured, secs = _timed(work)
    passed = measured <= 1e-2 and secs < 120.0
    return CriterionResult(
        "A4", passed, measured, 1e-2, secs,
        detail=f"runtime {secs:.1f}s (limit 120s)",
    )


def _general_kernel(grid2: TimeGrid):
    """C^3 kernel with a genuinely nonzero R'' (not in the exponential family):
    N(t) = (1 + exp(-2t))/2."""
    t2 = grid2.nodes()
    return build_kernel(
        grid2,
        "tabulated",
        samples={
            "N": 0.5 * (1.0 + np.exp(-2.0 * t2)),
            "N1": -np.exp(-2.0 * t2),
            "N2": 2.0 * np.exp(-2.0 * t2),
            "N3": -4.0 * np.exp(-2.0 * t2),
        },
    )


def _a5_gap(m: int, kernel) -> float:
    """Relative gap at T_max between the data Gram and the forward-snapshot
    Gram; kernel(grid) builds the relaxation kernel on a grid."""
    T_max, L, n = 0.5, 1.0, 8
    dt = T_max / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    qf = lambda x: 1.0 + 0.5 * np.sin(np.pi * x / L)
    basis = hat_basis(grid, n)
    tab = synthesize_table(basis, kernel(grid2), qf, L)
    gram = gram_from_data(tab)
    p = StringProblem(L, qf, kernel(grid), T_max)
    orc = gram_oracle(p, basis)
    return float(np.linalg.norm(gram.at(T_max) - orc.at(T_max)) / np.linalg.norm(orc.at(T_max)))


def a5_connecting_oracle() -> CriterionResult:
    """Data-side Gram against the forward-solver Gram, with refinement order,
    for an R'' == 0 kernel (closed-form diagonal) and a genuine-memory one
    (the Green's-function march).  The march and the oracle share the
    trapezoid error in x, so the second gap checks two independent solvers
    against each other; it is not an accuracy bound."""
    kinds = {"exp": lambda g: build_kernel(g, "exp", rate=1.0), "general": _general_kernel}
    sizes = (64, 128, 256)

    def work():
        runs = {}
        for name, kernel in kinds.items():
            gaps = [_a5_gap(m, kernel) for m in sizes]
            runs[name] = gaps, min(np.log2(gaps[0] / gaps[1]), np.log2(gaps[1] / gaps[2]))
        return runs

    runs, secs = _timed(work)
    measured = max(gaps[-1] for gaps, _ in runs.values())
    passed = all(gaps[-1] <= 5e-2 and order >= 1.0 for gaps, order in runs.values())
    detail = "; ".join(
        f"{name}: gaps {'/'.join(f'{g:.3e}' for g in gaps)}, order {order:.2f}"
        for name, (gaps, order) in runs.items()
    )
    return CriterionResult(
        "A5", passed, measured, 5e-2, secs,
        detail=f"m = {'/'.join(map(str, sizes))}; {detail} (need order >= 1)",
    )


def a6_steering_closed_form() -> CriterionResult:
    """Memoryless q = 0: the steering control is T - t and xi(T) = T."""

    def work():
        T_max, L, n, m = 0.5, 1.0, 32, 256
        dt = T_max / m
        grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
        basis = hat_basis(grid, n)
        ker2 = build_kernel(grid2, "const")
        tab = synthesize_table(basis, ker2, lambda x: np.zeros_like(x), L)
        gram = gram_from_data(tab)
        b = steering_rhs(ker2, basis, T_max)
        sc = steering_control(gram, T_max, b)
        t = sc.control.grid.nodes()
        target = T_max - t
        rel = float(np.linalg.norm(sc.control.values - target) / np.linalg.norm(target))
        xi_err = float(abs(sc.xi - T_max) / T_max)
        return rel, xi_err

    (rel, xi_err), secs = _timed(work)
    passed = rel <= 1e-2 and xi_err <= 1e-2
    return CriterionResult(
        "A6", passed, max(rel, xi_err), 1e-2, secs,
        detail=f"control relL2 {rel:.3e}, |xi-T|/T {xi_err:.3e}",
    )


def a7_end_to_end() -> CriterionResult:
    """Full reconstruction on the two synthetic ground-truth instances."""

    def work():
        T_max, L, n, m = 1.0, 2.0, 32, 256
        dt = T_max / m
        grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
        basis = hat_basis(grid, n)

        tab = synthesize_table(basis, build_kernel(grid2, "const"), lambda x: np.zeros_like(x), L)
        res_a = pipeline(tab)
        wa = res_a.horizons >= 0.1 * T_max
        max_q0 = float(np.max(np.abs(res_a.q_hat[wa])))

        tab = synthesize_table(
            basis, build_kernel(grid2, "exp", rate=1.0), lambda x: np.ones_like(x), L
        )
        res_b = pipeline(tab)
        wb = (res_b.horizons >= 0.1 * T_max) & (res_b.horizons <= 0.9 * T_max)
        err = res_b.q_hat[wb] - 1.0
        rel_q1 = float(np.linalg.norm(err) / np.sqrt(np.sum(wb)))
        return max_q0, rel_q1

    (max_q0, rel_q1), secs = _timed(work)
    passed = max_q0 <= 0.05 and rel_q1 <= 0.10 and secs <= 600.0
    return CriterionResult(
        "A7", passed, max(max_q0 / 0.05, rel_q1 / 0.10), 1.0, secs,
        detail=(
            f"(a) max|q| {max_q0:.3e} (limit 0.05); "
            f"(b) relL2(q-1) {rel_q1:.3e} (limit 0.10); runtime {secs:.0f}s (limit 600s)"
        ),
    )


# ---------------------------------------------------------------------------
# A8: the invariant battery (module-level properties at fixed instances)
# ---------------------------------------------------------------------------


def _sub(name: str, violation: float, threshold: float) -> dict:
    return {
        "name": name,
        "violation": float(violation),
        "threshold": float(threshold),
        "ratio": float(violation / threshold) if threshold > 0 else float("inf"),
    }


def a8_invariants() -> CriterionResult:
    """Every module-level invariant at a fixed, fast instance."""

    def work():
        subs = []

        # grid: bilinearity / commutativity / monotone cumulative
        g = TimeGrid(1e-2, 200)
        k, h1, h2 = _gaussian(7, (3, g.n + 1))
        kh1 = convolve_values(k, h1, g.dt)
        lin = convolve_values(k, 2.0 * h1 - 3.0 * h2, g.dt) - (
            2.0 * kh1 - 3.0 * convolve_values(k, h2, g.dt)
        )
        scale = np.max(np.abs(kh1)) + 1e-30
        subs.append(_sub("convolve bilinear", np.max(np.abs(lin)) / scale, 1e-12))
        comm = kh1 - convolve_values(h1, k, g.dt)
        subs.append(_sub("convolve commutes", np.max(np.abs(comm)) / scale, 1e-12))
        mono = np.min(np.diff(cumulative_values(np.abs(h1), g.dt)))
        subs.append(_sub("cumulative monotone", max(0.0, -mono), 1e-15))

        # kernel: resolvent residual + involution, on a kernel whose resolvent
        # is genuinely time dependent
        gk = TimeGrid(1e-4, 5000)
        ker = _general_kernel(gk)
        res = kernels.resolvent(ker)
        subs.append(_sub("resolvent residual", res.residual(ker), 1e-10))
        invo = solve_volterra(Sampled1D(gk, -res.R.values), res.R)
        subs.append(_sub("resolvent involution", np.max(np.abs(invo.values - ker.N1.values)), 1e-8))

        # forward: finite speed + linearity on a memory kernel
        T, L, m = 0.45, 1.0, 90
        dt = T / m
        kerg = _general_kernel(TimeGrid(dt, m))
        p = StringProblem(L, lambda x: 0.5 + 0.3 * x, kerg, T)
        tgrid = TimeGrid(dt, m)
        f1 = Sampled1D.from_callable(tgrid, lambda t: np.sin(np.pi * t / T) ** 2)
        f2 = Sampled1D.from_callable(tgrid, lambda t: (t / T) ** 2 * (1 - t / T))
        fl1, fl2 = solve_mild(p, f1), solve_mild(p, f2)
        fl12 = solve_mild(p, Sampled1D(tgrid, 1.5 * f1.values - 0.5 * f2.values))
        combo = 1.5 * fl1.w.values - 0.5 * fl2.w.values
        wscale = np.max(np.abs(combo))
        subs.append(_sub("forward linearity", np.max(np.abs(fl12.w.values - combo)) / wscale, 1e-10))
        x = fl1.xgrid.nodes()
        t = fl1.tgrid.nodes()
        ahead = x[:, None] > t[None, :] + dt
        speed = np.max(np.abs(fl1.w.values[ahead])) / np.max(np.abs(f1.values))
        subs.append(_sub("finite speed", speed, 1e-10))

        # connecting: Gram symmetry/PSD on the genuine-memory march
        mq, nq = 64, 6
        Tq = 0.4
        dtq = Tq / mq
        gridq, gridq2 = TimeGrid(dtq, mq), TimeGrid(dtq, 2 * mq)
        kerq = _general_kernel(gridq2)
        basisq = hat_basis(gridq, nq)
        tabq = synthesize_table(basisq, kerq, lambda x: 0.4 + 0.5 * x, 1.0)
        gramq = gram_from_data(tabq)
        subs.append(_sub("gram asymmetry diagnostic", float(np.max(gramq.asymmetry[1:])), 0.02))
        Cq = gramq.at(Tq)
        evmin = float(np.linalg.eigvalsh(Cq)[0])
        subs.append(_sub("gram PSD", max(0.0, -evmin) / np.linalg.norm(Cq), 1e-8))

        # identify: guard correctness on an oscillating target
        hT = np.linspace(0.3, np.pi + 0.2, 40)
        # dt = 0.01 puts the zero guard 5*dt at 0.05
        qv, guarded = reconstruct_q(hT, np.sin(hT), IdentifyConfig(), 0.01)
        near_zero = np.abs(np.sin(hT)) <= 0.05
        bad = np.any(near_zero & ~guarded) or not np.all(np.isfinite(qv))
        subs.append(_sub("zero guard engages", 1.0 if bad else 0.0, 0.5))
        clear = ~guarded & (np.abs(np.sin(hT)) > 0.2)
        subs.append(_sub("guarded reconstruction accuracy", float(np.max(np.abs(qv[clear] - 1.0))), 0.05))

        return subs

    subs, secs = _timed(work)
    worst = max(s["ratio"] for s in subs)
    passed = worst <= 1.0 and secs <= 300.0
    detail = "; ".join(f"{s['name']}: {s['violation']:.2e}/{s['threshold']:.0e}" for s in subs)
    return CriterionResult(
        "A8", passed, worst, 1.0, secs, detail=detail, sub=subs
    )


def _q_smooth(x):
    """The coefficient of A9-A11 on L = 2."""
    return 1.0 + 0.25 * np.sin(np.pi * x / 2.0)


def _q_error(tab: ResponseTable) -> float:
    """relL2(q) on [0.1, 0.9] of the reconstruction from tab (T_max = 1)."""
    res = pipeline(tab)
    w = (res.horizons >= 0.1) & (res.horizons <= 0.9)
    q_ref = _q_smooth(res.horizons[w])
    return float(np.linalg.norm(res.q_hat[w] - q_ref) / np.linalg.norm(q_ref))


def _memory_relative_error(n: int, m: int) -> float:
    """relL2(q) for the general kernel (R'' != 0), whose Gram takes the
    marching branch that A4-A7 (R'' == 0 kernels) never reach."""
    dt = 1.0 / m
    grid, grid2 = TimeGrid(dt, m), TimeGrid(dt, 2 * m)
    return _q_error(synthesize_table(hat_basis(grid, n), _general_kernel(grid2), _q_smooth, 2.0))


def a9_memory_end_to_end() -> CriterionResult:
    """Genuine memory end to end at n = 16, dt = 1/128."""
    measured, secs = _timed(lambda: _memory_relative_error(16, 128))
    passed = measured <= 0.15
    return CriterionResult(
        "A9", passed, measured, 0.15, secs,
        detail=f"general kernel relL2(q) {measured:.3e} (limit 0.15); runtime {secs:.1f}s",
    )


def a10_memory_end_to_end_a7_size() -> CriterionResult:
    """Genuine memory end to end at the A7 size, n = 32, dt = 1/256."""
    measured, secs = _timed(lambda: _memory_relative_error(32, 256))
    passed = measured <= 0.10
    return CriterionResult(
        "A10", passed, measured, 0.10, secs,
        detail=f"general kernel relL2(q) {measured:.3e} (limit 0.10); runtime {secs:.1f}s",
    )


def _refined_data_error(m: int, kernel) -> float:
    """relL2(q) at n = m/8 from data synthesized on a grid twice as fine, with
    the same hats, and read at every other node.  The data then do not share
    the discretization of the inverse chain (the inverse crime of Kaipio and
    Somersalo, J. Comput. Appl. Math. 198 (2007) 493-504); kernel(grid)
    builds the relaxation kernel on a grid."""
    dt = 1.0 / m
    basis = hat_basis(TimeGrid(dt, m), m // 8)
    fine = ControlBasis(TimeGrid(dt / 2, 2 * m), 2 * basis.knot_nodes)
    Y = synthesize_table(fine, kernel(TimeGrid(dt / 2, 4 * m)), _q_smooth, 2.0).Y
    return _q_error(ResponseTable(basis, kernel(TimeGrid(dt, 2 * m)), Y[:, ::2]))


def a11_convergence() -> CriterionResult:
    """q converges under grid refinement, for an R'' == 0 kernel and a
    genuine-memory one, on the A9/A10 instance."""
    # each kernel with its limit on relL2(q) at the finest grid
    kinds = {
        "exp": (lambda g: build_kernel(g, "exp", rate=1.0), 0.03),
        "general": (_general_kernel, 0.05),
    }
    sizes = (128, 256, 512)

    def work():
        runs = {}
        for name, (kernel, limit) in kinds.items():
            errors = [_refined_data_error(m, kernel) for m in sizes]
            # least-squares order in dt = 1/m
            runs[name] = errors, -float(np.polyfit(np.log(sizes), np.log(errors), 1)[0]), limit
        return runs

    runs, secs = _timed(work)
    measured = max(errors[-1] / limit for errors, _, limit in runs.values())
    passed = measured <= 1.0 and all(slope >= 0.6 for _, slope, _ in runs.values())
    detail = "; ".join(
        f"{name}: relL2(q) {'/'.join(f'{e:.3e}' for e in errors)} "
        f"(limit {limit} at m = {sizes[-1]}), slope {slope:.2f}"
        for name, (errors, slope, limit) in runs.items()
    )
    return CriterionResult(
        "A11", passed, measured, 1.0, secs,
        detail=f"m = {'/'.join(map(str, sizes))}, n = m/8; {detail} (need slope >= 0.6)",
    )


CRITERIA = {
    "A1": a1_resolvent_analytic,
    "A2": a2_forward_exact,
    "A3": a3_forward_oracle,
    "A4": a4_connecting_identity,
    "A5": a5_connecting_oracle,
    "A6": a6_steering_closed_form,
    "A7": a7_end_to_end,
    "A8": a8_invariants,
    "A9": a9_memory_end_to_end,
    "A10": a10_memory_end_to_end_a7_size,
    "A11": a11_convergence,
}

_NAMES = {
    "A1": "resolvent",
    "A2": "forward-exact",
    "A3": "forward-oracle",
    "A4": "connecting-identity",
    "A5": "connecting-oracle",
    "A6": "steering",
    "A7": "reconstruction",
    "A8": "invariants",
    "A9": "memory",
    "A10": "memory-a7",
    "A11": "convergence",
}


def run_all(name_filter: str | None = None) -> list:
    """Run the (optionally filtered) battery; filter matches id or name."""
    results = []
    for cid, fn in CRITERIA.items():
        if name_filter is not None:
            key = name_filter.lower()
            if key != cid.lower() and key not in _NAMES[cid]:
                continue
        results.append(fn())
    return results


def format_report(results: list) -> str:
    lines = [r.line() for r in results]
    lines.append(
        f"# {sum(r.passed for r in results)}/{len(results)} criteria passed"
    )
    return "\n".join(lines)
