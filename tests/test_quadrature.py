"""Quadrature engine, Matsubara summation, and the special-function helpers."""

import math

import numpy as np
import pytest

from casimir_impedance import (
    IntegrandError,
    QuadratureConfig,
    dilog,
    integrate_xi_y,
    integrate_y_from,
    log1mexp,
    riemann_zeta,
    sum_matsubara_primed,
)
from casimir_impedance.quadrature import DEFAULT_CONFIG


def test_integrate_y_from_zero():
    res = integrate_y_from(lambda y: y * np.exp(-y), 0.0)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)
    assert abs(res.value - 1.0) <= res.abs_error_estimate


def test_integrate_y_from_offset_lower_bound():
    # int_a^inf y e^-y dy = (1 + a) e^-a
    res = integrate_y_from(lambda y: y * np.exp(-y), 2.0)
    assert res.value == pytest.approx(3.0 * math.exp(-2.0), rel=1e-12)


def test_integrate_y_from_cubic_moment():
    res = integrate_y_from(lambda y: y**3 * np.exp(-y), 0.0)
    assert res.value == pytest.approx(6.0, rel=1e-11)


def test_integrate_y_from_rejects_negative_lower():
    with pytest.raises(ValueError, match=">= 0"):
        integrate_y_from(lambda y: np.exp(-y), -1.0)


def test_integrate_y_from_nonfinite_integrand():
    def bad(y):
        out = np.exp(-y)
        out[y > 1.0] = np.nan
        return out

    with pytest.raises(IntegrandError, match="non-finite"):
        integrate_y_from(bad, 0.0)


def test_integrate_xi_y_nonfinite_integrand_names_both_coordinates():
    def bad(xi, y):
        out = np.exp(-y) * np.ones_like(xi)
        out[y > 1.0] = np.nan
        return out

    with pytest.raises(IntegrandError, match=r"xi=.*y=") as info:
        integrate_xi_y(bad)
    assert info.value.x > 1.0


def test_integrate_y_from_deterministic():
    f = lambda y: y**2 / np.expm1(y + 1e-9)
    a = integrate_y_from(f, 0.0)
    b = integrate_y_from(f, 0.0)
    assert a.value == b.value and a.evaluations == b.evaluations


def test_wedge_integral_ideal_mode_density():
    # int_0^inf dxi int_xi^inf 2 y ln(1 - e^-y) dy = -4 zeta(4)
    res = integrate_xi_y(lambda xi, y: 2.0 * y * log1mexp(y))
    assert res.converged
    assert res.value == pytest.approx(-4.0 * riemann_zeta(4.0), rel=1e-9)


def test_wedge_integral_exponential():
    # inner integral e^-xi, outer gives exactly 1
    res = integrate_xi_y(lambda xi, y: np.exp(-y) * np.ones_like(xi))
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_error_estimate_bounds_tolerance_refinement():
    # halving the tolerance moves a converged value by less than the
    # previously reported estimate
    f = lambda xi, y: 2.0 * y * log1mexp(y)
    coarse = integrate_xi_y(f, QuadratureConfig(rel_tol=1e-6))
    fine = integrate_xi_y(f, QuadratureConfig(rel_tol=1e-9))
    assert abs(coarse.value - fine.value) <= coarse.abs_error_estimate


def test_matsubara_prime_weight():
    # term(l) = x^l: 0.5 + x / (1 - x)
    res = sum_matsubara_primed(lambda l: 0.5**l)
    assert res.converged
    assert res.value == pytest.approx(1.5, rel=1e-12)


def test_matsubara_exponential_terms():
    q = math.exp(-3.0)
    res = sum_matsubara_primed(lambda l: math.exp(-3.0 * l))
    assert res.value == pytest.approx(0.5 + q / (1.0 - q), rel=1e-12)


def test_matsubara_stops_on_exact_zeros():
    res = sum_matsubara_primed(lambda l: 1.0 if l == 1 else 0.0)
    assert res.converged
    assert res.value == 1.0
    assert res.evaluations <= 5


def test_matsubara_budget_exhaustion():
    res = sum_matsubara_primed(
        lambda l: 1.0 / (l + 1.0), QuadratureConfig(max_matsubara_terms=10)
    )
    assert not res.converged


def test_config_validation():
    with pytest.raises(ValueError, match="rel_tol"):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError, match="rel_tol"):
        QuadratureConfig(rel_tol=1.5)
    with pytest.raises(ValueError, match="y_cutoff_margin"):
        QuadratureConfig(y_cutoff_margin=5.0)
    with pytest.raises(ValueError, match="max_subdivisions"):
        QuadratureConfig(max_subdivisions=4)
    with pytest.raises(ValueError, match="max_matsubara_terms"):
        QuadratureConfig(max_matsubara_terms=1)
    with pytest.raises(ValueError, match="series_tail_tol"):
        QuadratureConfig(series_tail_tol=0.0)


def test_default_config_values():
    assert DEFAULT_CONFIG.rel_tol == 1e-9
    assert DEFAULT_CONFIG.y_cutoff_margin == 45.0


def test_log1mexp_branches():
    # continuity across the ln 2 crossover
    eps = 1e-12
    lo = log1mexp(math.log(2.0) - eps)
    hi = log1mexp(math.log(2.0) + eps)
    assert abs(lo - hi) < 1e-11
    # both branches round-trip through exp
    for y in (1e-12, 1e-6, 0.1, 0.693, 0.694, 5.0, 30.0):
        assert math.exp(log1mexp(y)) == pytest.approx(-math.expm1(-y), rel=1e-13)
    # large argument: naive log(1 - exp(-y)) would round to 0
    assert log1mexp(40.0) == pytest.approx(-math.exp(-40.0), rel=1e-10)


def test_log1mexp_vectorized():
    y = np.array([0.01, 1.0, 10.0])
    out = log1mexp(y)
    assert out.shape == y.shape
    np.testing.assert_allclose(out, [log1mexp(v) for v in y], rtol=1e-15)


def test_riemann_zeta_values():
    assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-14)
    with pytest.raises(ValueError, match="s > 1"):
        riemann_zeta(1.0)


def test_dilog_values():
    assert dilog(0.0) == 0.0
    assert dilog(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert dilog(0.5) == pytest.approx(
        math.pi**2 / 12.0 - 0.5 * math.log(2.0) ** 2, rel=1e-14
    )
    with pytest.raises(ValueError, match="0 <= x <= 1"):
        dilog(1.5)
