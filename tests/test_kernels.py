import numpy as np
import pytest

from viscostring.errors import KernelValidationError
from viscostring.grid import Sampled1D, TimeGrid, convolve_values
from viscostring.kernels import (
    build_kernel,
    resolvent,
    response_to_traction,
    solve_volterra,
    traction_to_response,
)

from conftest import general_kernel


def test_build_const_kernel():
    g = TimeGrid(0.01, 100)
    ker = build_kernel(g, "const")
    assert np.all(ker.N.values == 1.0)
    assert np.all(ker.N1.values == 0.0)
    assert np.allclose(ker.M.values, g.nodes(), atol=1e-12)


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

    # roundtrip: y0 -> sigma -> y recovers y0
    y0 = Sampled1D.from_callable(g, lambda t: np.sin(2 * t) * t)
    sigma = response_to_traction(y0, ker)
    y_back = traction_to_response(sigma, ker)
    assert np.max(np.abs(y_back.values - y0.values)) <= 1e-5

    zero_back = traction_to_response(zero, ker)
    assert np.all(zero_back.values == 0.0)


def test_traction_wave_kernel_reduces_to_derivative():
    # N == 1 (N' = 0): y = -sigma'
    g = TimeGrid(1e-3, 1000)
    ker = build_kernel(g, "const")
    sigma = Sampled1D.from_callable(g, lambda t: np.cos(t) - 1.0)
    y = traction_to_response(sigma, ker)
    assert np.max(np.abs(y.values - np.sin(g.nodes()))) <= 1e-6


def test_traction_requires_zero_start():
    g = TimeGrid(0.01, 50)
    ker = build_kernel(g, "const")
    sigma = Sampled1D(g, np.ones(g.n + 1))
    with pytest.raises(KernelValidationError):
        traction_to_response(sigma, ker)


def test_kernel_consistency_residual_scales():
    g = TimeGrid(5e-3, 200)
    ker = general_kernel(g)
    assert ker.consistency_residual() <= 100.0 * g.dt**2 * 10.0
