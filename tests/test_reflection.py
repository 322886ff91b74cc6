"""Impedance functions and the per-polarization reflection factors."""

import math

import numpy as np
import pytest

from casimir_impedance import (
    ALUMINUM,
    CODATA,
    Formalism,
    ImpedanceKind,
    ImpedanceModel,
    impedance,
    reflection_factors,
    static_reflection_factors,
)

A = 1e-6
W_P = 2 * A * ALUMINUM.omega_p / CODATA.c
SIGMA_R = 2 * A * ALUMINUM.sigma / CODATA.c


def test_impedance_closed_forms():
    xi = np.array([0.0, 0.3, 2.0, 40.0])
    np.testing.assert_allclose(
        impedance(ImpedanceKind.PLASMA_EXACT, xi, A, ALUMINUM),
        xi / np.sqrt(W_P**2 + xi**2),
        rtol=1e-14,
    )
    np.testing.assert_allclose(
        impedance(ImpedanceKind.PLASMA_APPROX, xi, A, ALUMINUM), xi / W_P, rtol=1e-14
    )
    np.testing.assert_allclose(
        impedance(ImpedanceKind.NORMAL_SKIN, xi, A, ALUMINUM),
        np.sqrt(xi / (4 * math.pi * SIGMA_R)),
        rtol=1e-14,
    )
    assert impedance(ImpedanceKind.IDEAL_METAL, 5.0, A) == 0.0


def test_impedance_requires_material():
    with pytest.raises(ValueError, match="material"):
        impedance(ImpedanceKind.PLASMA_EXACT, 1.0, A)


@pytest.mark.parametrize("kind", list(ImpedanceKind))
@pytest.mark.parametrize("a", [-1e-6, 0.0, math.nan, math.inf])
def test_impedance_rejects_a_bad_separation(kind, a):
    material = None if kind is ImpedanceKind.IDEAL_METAL else ALUMINUM
    with pytest.raises(ValueError, match=f"separation must be positive and finite, got {a!r}"):
        impedance(kind, np.array([0.0, 0.3, 2.0]), a, material)


def test_plasma_forms_agree_at_low_frequency():
    xi = np.array([1e-4, 1e-3])
    exact = impedance(ImpedanceKind.PLASMA_EXACT, xi, A, ALUMINUM)
    approx = impedance(ImpedanceKind.PLASMA_APPROX, xi, A, ALUMINUM)
    np.testing.assert_allclose(exact, approx, rtol=1e-7)


def test_factors_bounded_on_random_points():
    rng = np.random.default_rng(7)
    xi = rng.uniform(0.0, 30.0, 2000)
    y = xi + rng.uniform(0.0, 30.0, 2000)
    for kind in (ImpedanceKind.PLASMA_EXACT, ImpedanceKind.NORMAL_SKIN):
        Z = impedance(kind, xi, A, ALUMINUM)
        for formalism in Formalism:
            x_par, x_perp = reflection_factors(Z, y, xi, formalism)
            assert np.all((x_par >= 0) & (x_par <= 1))
            assert np.all((x_perp >= 0) & (x_perp <= 1))


def test_formalisms_coincide_on_diagonal():
    # at y = xi the propagation is purely along the normal and both
    # descriptions reduce to the same single-angle reflection
    xi = np.linspace(0.01, 25.0, 40)
    Z = impedance(ImpedanceKind.PLASMA_EXACT, xi, A, ALUMINUM)
    imp = reflection_factors(Z, xi, xi, Formalism.IMPEDANCE)
    lif = reflection_factors(Z, xi, xi, Formalism.LIFSHITZ)
    np.testing.assert_allclose(imp[0], lif[0], rtol=1e-12)
    np.testing.assert_allclose(imp[1], lif[1], rtol=1e-12)


def test_zero_impedance_recovers_ideal():
    x_par, x_perp = reflection_factors(0.0, 3.0, 1.0, Formalism.IMPEDANCE)
    assert x_par == 0.0 and x_perp == 0.0


def test_domain_validation():
    with pytest.raises(ValueError, match="y >= xi"):
        reflection_factors(0.5, 1.0, 2.0)
    with pytest.raises(ValueError, match=">= 0"):
        reflection_factors(-0.1, 2.0, 1.0)


def test_lifshitz_matches_permittivity_route():
    # independent reimplementation: Fresnel coefficients with the plasma
    # permittivity eps = 1 + (w_p/xi)^2; the mode-sum factors are 1 - r^2
    rng = np.random.default_rng(11)
    xi = rng.uniform(0.05, 20.0, 500)
    y = xi + rng.uniform(0.001, 20.0, 500)
    eps = 1.0 + (W_P / xi) ** 2
    K = np.sqrt(y**2 + (eps - 1.0) * xi**2)
    r_tm = (eps * y - K) / (eps * y + K)
    r_te = (y - K) / (y + K)
    Z = impedance(ImpedanceKind.PLASMA_EXACT, xi, A, ALUMINUM)
    x_par, x_perp = reflection_factors(Z, y, xi, Formalism.LIFSHITZ)
    np.testing.assert_allclose(x_par, 1.0 - r_tm**2, rtol=1e-10)
    np.testing.assert_allclose(x_perp, 1.0 - r_te**2, rtol=1e-10)


def test_static_factors_impedance_formalism():
    # Both plasma forms have Z = xi / w_p near xi = 0, so x_perp keeps a
    # finite limit; the ideal metal and normal skin (x_perp ~ sqrt(xi)) vanish.
    y = np.linspace(0.0, 40.0, 17)
    for kind in (ImpedanceKind.PLASMA_EXACT, ImpedanceKind.PLASMA_APPROX):
        model = ImpedanceModel(kind, Formalism.IMPEDANCE)
        x_par, x_perp = static_reflection_factors(model, y, A, ALUMINUM)
        np.testing.assert_allclose(x_perp, 4 * y * W_P / (y + W_P) ** 2, rtol=1e-13)
        assert np.all(x_par == 0.0)
    for kind in (ImpedanceKind.IDEAL_METAL, ImpedanceKind.NORMAL_SKIN):
        model = ImpedanceModel(kind, Formalism.IMPEDANCE)
        x_par, x_perp = static_reflection_factors(model, y, A, ALUMINUM)
        assert np.all(x_par == 0.0) and np.all(x_perp == 0.0)
    xi = np.array([1e-12, 1e-14])
    Z = impedance(ImpedanceKind.NORMAL_SKIN, xi, A, ALUMINUM)
    x_perp = reflection_factors(Z, 2.0, xi)[1]
    assert x_perp[0] / x_perp[1] == pytest.approx(10.0, rel=1e-3, abs=0)


def test_static_factors_lifshitz_plasma():
    y = np.linspace(0.1, 30.0, 9)
    model = ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.LIFSHITZ)
    x_par, x_perp = static_reflection_factors(model, y, A, ALUMINUM)
    q = np.hypot(y, W_P)
    np.testing.assert_allclose(x_perp, 4 * y * q / (y + q) ** 2, rtol=1e-13)
    assert np.all(x_par == 0.0)


@pytest.mark.parametrize("a", [-1e-6, 0.0, math.nan, math.inf])
def test_static_factors_reject_a_bad_separation(a):
    # Checked as by impedance(): a = -1e-6 used to give x_perp = -0.032,
    # outside [0, 1], a = 0 gave 0 and NaN gave NaN.
    model = ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.IMPEDANCE)
    with pytest.raises(ValueError, match=f"separation must be positive and finite, got {a!r}"):
        static_reflection_factors(model, np.array([0.5, 2.0]), a, ALUMINUM)


@pytest.mark.parametrize("y", [-1.0, [2.0, -1e-300], 0.0, 2.5], ids=["-1", "array", "0", "2.5"])
def test_static_factors_check_y_and_keep_a_scalar_scalar(y):
    # A negative y is refused; a scalar y gets Python floats, the values
    # of a one-point array.
    model = ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.IMPEDANCE)
    if np.min(y) < 0.0:
        with pytest.raises(ValueError, match="^reduced variable y must be >= 0$"):
            static_reflection_factors(model, y, A, ALUMINUM)
        return
    factors = static_reflection_factors(model, y, A, ALUMINUM)
    assert [type(x) for x in factors] == [float, float]
    assert factors == tuple(x[0] for x in static_reflection_factors(model, [y], A, ALUMINUM))


def test_static_factors_normal_skin_lifshitz_rejected():
    model = ImpedanceModel(ImpedanceKind.NORMAL_SKIN, Formalism.LIFSHITZ)
    with pytest.raises(ValueError, match="normal-skin"):
        static_reflection_factors(model, 1.0, A, ALUMINUM)


def test_factors_continuous_at_small_xi():
    # The xi -> 0 limit of the running factors matches the static values for
    # every pair whose factors approach it linearly in xi; normal skin's
    # sqrt(xi) approach is checked in test_static_factors_impedance_formalism.
    y = np.linspace(0.5, 10.0, 5)
    linear = (ImpedanceKind.IDEAL_METAL, ImpedanceKind.PLASMA_EXACT, ImpedanceKind.PLASMA_APPROX)
    for kind in linear:
        for formalism in Formalism:
            model = ImpedanceModel(kind, formalism)
            static = static_reflection_factors(model, y, A, ALUMINUM)
            Z = impedance(kind, 1e-9, A, ALUMINUM)
            running = reflection_factors(Z, y, 1e-9, formalism)
            np.testing.assert_allclose(running, static, rtol=1e-8, atol=1e-15)
