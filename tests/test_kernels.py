import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscostring.errors import GridMismatchError, KernelValidationError, NumericalFailure
from viscostring.grid import Sampled1D, TimeGrid, convolve_values, cumulative_values
from viscostring.kernels import (
    MemoryKernel,
    ResolventData,
    _volterra_values,
    build_kernel,
    resolvent,
    response_to_traction,
    solve_volterra,
)

from conftest import general_kernel


def test_build_const_kernel():
    g = TimeGrid(0.01, 100)
    ker = build_kernel(g, "const")
    assert np.all(ker.N.values == 1.0)
    assert np.all(ker.N1.values == 0.0)
    assert np.allclose(ker.M.values, g.nodes(), atol=1e-12)


def test_kernel_and_resolvent_store_no_derived_field():
    # grid = N.grid, M = int N and gamma = R(0)/2 are reads of N and R, not
    # stored beside them
    names = [f.name for f in dataclasses.fields(MemoryKernel)]
    assert names == ["N", "N1", "N2", "N3", "kind", "rate"]
    assert [f.name for f in dataclasses.fields(ResolventData)] == ["R", "alpha", "K"]


@pytest.mark.parametrize("spec", ["const", "exp:0.3", "exp:7.30728627489739", "general"])
def test_M_and_gamma_are_reads_of_N_and_R(spec):
    g = TimeGrid(1.0 / 128, 64)
    if spec == "general":
        k = general_kernel(g)
    elif spec == "const":
        k = build_kernel(g, "const")
    else:
        k = build_kernel(g, "exp", rate=float(spec.split(":")[1]))
    assert k.M.values.tobytes() == cumulative_values(k.N.values, g.dt).tobytes()
    assert k.M is k.M
    # every Volterra solve returns v(0) = rhs(0), so R(0) = N1(0)
    assert resolvent(k).gamma == 0.5 * k.N1.values[0]


def test_build_exp_kernel_closed_forms():
    g = TimeGrid(1e-3, 1000)
    ker = build_kernel(g, "exp", rate=1.0)
    t = g.nodes()
    assert np.allclose(ker.N.values, np.exp(-t), atol=1e-15)
    assert np.allclose(ker.N1.values, -np.exp(-t), atol=1e-15)
    err_m = np.max(np.abs(ker.M.values - (1 - np.exp(-t))))
    assert err_m <= 1e-7


def test_build_tabulated_requires_derivatives_and_normalization():
    g = TimeGrid(0.01, 50)
    t = g.nodes()
    with pytest.raises(KernelValidationError):
        build_kernel(g, "tabulated", samples={"N": np.ones_like(t)})
    half = {
        "N": 0.5 * np.ones_like(t),
        "N1": np.zeros_like(t),
        "N2": np.zeros_like(t),
        "N3": np.zeros_like(t),
    }
    with pytest.raises(KernelValidationError):
        build_kernel(g, "tabulated", samples=half)
    bad0 = {k: -v if k == "N" else v for k, v in half.items()}
    with pytest.raises(KernelValidationError):
        build_kernel(g, "tabulated", samples=bad0)


def test_build_rejects_inconsistent_derivatives():
    g = TimeGrid(0.01, 100)
    t = g.nodes()
    samples = {
        "N": np.exp(-t),
        "N1": np.exp(-t),  # wrong sign: inconsistent with the values
        "N2": np.exp(-t),
        "N3": -np.exp(-t),
    }
    with pytest.raises(KernelValidationError):
        build_kernel(g, "tabulated", samples=samples)


def reference_volterra(k: np.ndarray, f: np.ndarray, dt: float) -> np.ndarray:
    """Forward substitution of the trapezoidal system, one node at a time."""
    diag = 1.0 + 0.5 * dt * k[0]
    v = np.empty(len(f))
    v[0] = f[0]
    for j in range(1, len(f)):
        acc = 0.5 * k[j] * v[0] + np.dot(k[j - 1 : 0 : -1], v[1:j])
        v[j] = (f[j] - dt * acc) / diag
    return v


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 7, 64, 100, 513]),
    T=st.floats(0.01, 2.0),
    amp=st.floats(-4.0, 4.0),
    rate=st.floats(0.0, 5.0),
    freq=st.floats(0.0, 8.0),
    phase=st.floats(0.0, 6.3),
)
def test_solve_volterra_matches_forward_substitution(n, T, amp, rate, freq, phase):
    g = TimeGrid(T / n, n)
    t = g.nodes()
    k = amp * np.exp(-rate * t) * np.cos(freq * t + phase)
    f = np.sin(freq * t + 1.0) + 0.5 * t - np.cos(phase * t)
    v = solve_volterra(Sampled1D(g, k), Sampled1D(g, f)).values
    ref = reference_volterra(k, f, g.dt)
    assert np.max(np.abs(v - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_solve_volterra_is_causal_bit_for_bit(rng):
    # a prefix of kernel and right-hand side gives a prefix of the solution
    g = TimeGrid(1.0 / 200, 700)
    k = Sampled1D(g, np.exp(-g.nodes()) * rng.standard_normal(g.n + 1))
    f = Sampled1D(g, rng.standard_normal(g.n + 1))
    v = solve_volterra(k, f).values
    for n in (1, 2, 3, 63, 64, 65, 127, 128, 200, 511, 512, 699):
        p = TimeGrid(g.dt, n)
        vp = solve_volterra(Sampled1D(p, k.values[: n + 1]), Sampled1D(p, f.values[: n + 1]))
        assert np.array_equal(vp.values, v[: n + 1]), n


def test_solve_volterra_rejects_a_singular_diagonal():
    g = TimeGrid(0.5, 8)
    k = Sampled1D(g, np.full(g.n + 1, -4.0))  # 1 + dt*k(0)/2 = 0
    with pytest.raises(NumericalFailure):
        solve_volterra(k, Sampled1D(g, np.ones(g.n + 1)))


def test_solve_volterra_zero_kernel_identity():
    g = TimeGrid(0.01, 100)
    rhs = Sampled1D.from_callable(g, lambda t: np.cos(3 * t))
    v = solve_volterra(Sampled1D(g, np.zeros(g.n + 1)), rhs)
    assert np.allclose(v.values, rhs.values, atol=1e-15)


def test_solve_volterra_constant_kernel_ode_reduction():
    # v + 0.5 int v = 1 differentiates to v' = -0.5 v, v(0)=1: v = exp(-t/2)
    g = TimeGrid(1e-3, 2000)
    v = solve_volterra(Sampled1D(g, np.full(g.n + 1, 0.5)), Sampled1D(g, np.ones(g.n + 1)))
    assert np.max(np.abs(v.values - np.exp(-0.5 * g.nodes()))) <= 1e-6


def test_solve_volterra_residual_is_discrete_exact(rng):
    g = TimeGrid(0.01, 150)
    k = Sampled1D(g, rng.standard_normal(g.n + 1))
    rhs = Sampled1D(g, rng.standard_normal(g.n + 1))
    v = solve_volterra(k, rhs)
    residual = v.values + convolve_values(k.values, v.values, g.dt) - rhs.values
    assert np.max(np.abs(residual)) <= 1e-10 * max(np.max(np.abs(rhs.values)), 1.0)


def test_solve_volterra_resolvent_formula_cross_check():
    # v = F - R*F with R the resolvent of the kernel reproduces the direct solve
    g = TimeGrid(1e-4, 5000)
    ker = general_kernel(g)
    rhs = Sampled1D.from_callable(g, lambda t: np.sin(2 * t) + 0.3 * t)
    v_direct = solve_volterra(ker.N1, rhs)
    res = resolvent(ker)
    v_formula = rhs.values - convolve_values(res.R.values, rhs.values, g.dt)
    assert np.max(np.abs(v_direct.values - v_formula)) <= 1e-8


def test_resolvent_wave_kernel_all_zero():
    g = TimeGrid(0.01, 200)
    res = resolvent(build_kernel(g, "const"))
    assert np.all(res.R.values == 0.0)
    assert res.gamma == 0.0 and res.alpha == 0.0
    assert np.all(res.K.values == 0.0)


def test_resolvent_exponential_constant():
    # N = exp(-a t): substituting R = -a into the resolvent identity closes it
    g = TimeGrid(1e-3, 2000)
    res = resolvent(build_kernel(g, "exp", rate=0.5))
    assert np.max(np.abs(res.R.values + 0.5)) <= 1e-6
    assert res.gamma == -0.25
    assert res.alpha == 0.0625
    assert np.all(res.K.values == 0.0)


@pytest.mark.parametrize("rate", [0.3, 1.7, 3.0, 7.5])
def test_resolvent_exponential_is_memoryless_at_any_rate(rate):
    # the R'' equation has an exactly vanishing right-hand side; a non-dyadic
    # rate must not leave round-off in K that selects the memory path
    g = TimeGrid(1e-3, 2000)
    res = resolvent(build_kernel(g, "exp", rate=rate))
    assert not np.any(res.K.values)
    assert res.gamma == -rate / 2
    assert res.alpha == rate**2 / 4


def test_resolvent_exponential_alpha_is_r0_squared_over_4():
    # at this rate the sampled N1'(0) = rate**2 and R(0) N1(0) = rate*rate
    # differ by an ulp; R'(0) is exactly zero, so alpha is R(0)^2/4 regardless
    rate = 7.30728627489739
    assert rate**2 != rate * rate
    res = resolvent(build_kernel(TimeGrid(1e-3, 20), "exp", rate=rate))
    r0 = res.R.values[0]
    assert res.alpha == 0.25 * r0 * r0 == 13.349108175825942


def test_resolvent_two_columns_match_the_three_column_solve():
    # R' is never solved for: the resolvent's one call takes the R and R''
    # columns only.  With the R' column put back, the solve reproduces R, K
    # and alpha bit for bit (each column is solved on its own).
    g = TimeGrid(1.0 / 64, 128)
    ker = general_kernel(g)
    n1, n2, n3 = ker.N1.values, ker.N2.values, ker.N3.values
    r0 = n1[0]
    rhs1 = n2 - r0 * n1
    rhs2 = n3 - r0 * n2 - rhs1[0] * n1
    r, r1, r2d = _volterra_values(n1, np.column_stack([n1, rhs1, rhs2]), g.dt).T
    res = resolvent(ker)
    assert np.array_equal(res.R.values, r)
    assert np.array_equal(res.K.values, np.exp(-res.gamma * g.nodes()) * r2d)
    assert res.alpha == r1[0] + 0.25 * r0 * r0 == rhs1[0] + 0.25 * r0 * r0
    assert np.any(res.K.values)


def test_resolvent_constant_n1_closed_form():
    # N1 = c constant: R(t) = c exp(-c t)
    c = 0.7
    g = TimeGrid(1e-3, 1500)
    t = g.nodes()
    ker = build_kernel(
        g,
        "tabulated",
        samples={
            "N": 1 + c * t,
            "N1": np.full_like(t, c),
            "N2": np.zeros_like(t),
            "N3": np.zeros_like(t),
        },
    )
    res = resolvent(ker)
    assert np.max(np.abs(res.R.values - c * np.exp(-c * t))) <= 1e-6


@pytest.mark.parametrize("kind", ["const", "exp", "general"])
def test_resolvent_residual_small(kind):
    g = TimeGrid(5e-3, 300)
    if kind == "general":
        ker = general_kernel(g)
    else:
        ker = build_kernel(g, kind, rate=1.3)
    res = resolvent(ker)
    assert res.residual(ker) <= 1e-10


def test_resolvent_involution_returns_n1():
    # N1 = R + N1*R, so N1 solves v - R*v = R
    g = TimeGrid(2e-4, 5000)
    ker = build_kernel(g, "exp", rate=0.7)
    res = resolvent(ker)
    back = solve_volterra(Sampled1D(g, -res.R.values), res.R)
    assert np.max(np.abs(back.values - ker.N1.values)) <= 1e-8


def test_resolvent_convergence_order():
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        g = TimeGrid(dt, round(2.0 / dt))
        res = resolvent(build_kernel(g, "exp", rate=1.0))
        errs.append(np.max(np.abs(res.R.values + 1.0)))
    orders = [np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])]
    assert min(orders) >= 1.8


def test_traction_conversions_roundtrip():
    g = TimeGrid(1e-3, 1200)
    ker = build_kernel(g, "exp", rate=1.0)
    zero = Sampled1D(g, np.zeros(g.n + 1))
    assert np.all(response_to_traction(zero, ker).values == 0.0)

    # N == 1, y == 1: sigma = -t
    kerw = build_kernel(g, "const")
    one = Sampled1D(g, np.ones(g.n + 1))
    assert np.allclose(response_to_traction(one, kerw).values, -g.nodes(), atol=1e-12)

    # a memory kernel, N = exp(-t), y == 1: sigma = exp(-t) - 1, up to the
    # trapezoid error dt^2/12 (1 - exp(-t))
    sigma_one = response_to_traction(one, ker).values
    assert np.max(np.abs(sigma_one - np.expm1(-g.nodes()))) <= g.dt**2 / 12

    # a response on a prefix window of the kernel grid: sigma on that window
    y0 = Sampled1D.from_callable(g, lambda t: np.sin(2 * t) * t)
    sigma = response_to_traction(y0, ker)
    short = TimeGrid(1e-3, 700)
    y_short = Sampled1D(short, y0.values[: short.n + 1])
    sigma_short = response_to_traction(y_short, ker)
    assert sigma_short.grid.same_as(short)
    assert np.array_equal(sigma_short.values, sigma.values[: short.n + 1])
    for wrong in (TimeGrid(1e-3, 1300), TimeGrid(2e-3, 300)):
        with pytest.raises(GridMismatchError):
            response_to_traction(Sampled1D(wrong, np.zeros(wrong.n + 1)), ker)

    # a finite response whose traction overflows
    with pytest.raises(NumericalFailure):
        response_to_traction(Sampled1D(g, np.full(g.n + 1, 1e308)), kerw)


def test_kernel_consistency_residual_scales():
    g = TimeGrid(5e-3, 200)
    ker = general_kernel(g)
    assert ker.consistency_residual() <= 100.0 * g.dt**2 * 10.0
