"""Skin-depth series coefficients, evaluation, and recovery from samples."""

import math
import warnings

import numpy as np
import pytest

from casimir_impedance import (
    ALUMINUM,
    CoefficientVariant,
    Formalism,
    ImpedanceKind,
    ImpedanceModel,
    coefficients,
    force_pp0,
    series_force,
)
from casimir_impedance.series import _series_factor
from series_fit import recover_coefficients

Z3 = 1.2020569031595943
Z5 = 1.0369277551433699

CONSTANT_Z_C3 = -(640.0 / 7.0) * (1.0 + math.pi**2 / 84.0)


def test_shared_low_orders():
    for variant in CoefficientVariant:
        c = coefficients(variant).c
        assert len(c) == 5
        assert c[0] == 1.0
        assert c[1] == pytest.approx(-16.0 / 3.0, rel=1e-15, abs=0)
        assert c[2] == pytest.approx(24.0, rel=1e-15, abs=0)


def test_closed_form_values():
    lp = coefficients(CoefficientVariant.LIFSHITZ_PLASMA).c
    assert lp[3] == pytest.approx(-(640.0 / 7.0) * (1.0 - math.pi**2 / 210.0), rel=1e-14, abs=0)
    assert lp[4] == pytest.approx(
        (2800.0 / 9.0) * (1.0 - 163.0 * math.pi**2 / 7350.0), rel=1e-14, abs=0
    )
    assert lp[3] == pytest.approx(-87.131601, rel=1e-6, abs=0)
    assert lp[4] == pytest.approx(243.016063, rel=1e-6, abs=0)

    ie = coefficients(CoefficientVariant.IMPEDANCE_EXACT).c
    assert ie[3] == pytest.approx(-(640.0 / 7.0) * (1.0 + math.pi**2 / 280.0), rel=1e-14, abs=0)
    assert ie[4] == pytest.approx(
        (2800.0 / 9.0) * (1.0 + 5.0 * math.pi**2 / 294.0), rel=1e-14, abs=0
    )
    assert ie[3] == pytest.approx(-94.651299, rel=1e-6, abs=0)
    assert ie[4] == pytest.approx(363.331240, rel=1e-6, abs=0)

    ia = coefficients(CoefficientVariant.IMPEDANCE_APPROX).c
    assert ia[3] == pytest.approx(
        -11520.0 / (7.0 * math.pi**4) * (Z3 + Z5 / 8.0), rel=1e-14, abs=0
    )
    assert ia[4] == pytest.approx(
        14000.0 / (3.0 * math.pi**4) * (Z3 + Z5 / 2.0), rel=1e-14, abs=0
    )
    assert ia[3] == pytest.approx(-22.498445, rel=1e-6, abs=0)
    assert ia[4] == pytest.approx(82.426567, rel=1e-6, abs=0)


def test_third_order_ordering():
    c3 = {v: coefficients(v).c[3] for v in CoefficientVariant}
    assert (
        c3[CoefficientVariant.IMPEDANCE_EXACT]
        < c3[CoefficientVariant.LIFSHITZ_PLASMA]
        < c3[CoefficientVariant.IMPEDANCE_APPROX]
        < 0.0
    )


def test_series_factor_polynomial():
    d = 0.015
    for variant in CoefficientVariant:
        c = coefficients(variant).c
        expected = sum(c[k] * d**k for k in range(5))
        assert _series_factor(d, variant) == pytest.approx(expected, rel=1e-14, abs=0)


def test_series_factor_domain():
    assert _series_factor(0.0, CoefficientVariant.LIFSHITZ_PLASMA) == 1.0
    with pytest.raises(ValueError, match="series domain"):
        _series_factor(-0.01, CoefficientVariant.LIFSHITZ_PLASMA)
    with pytest.raises(ValueError, match="series domain"):
        _series_factor(0.3, CoefficientVariant.LIFSHITZ_PLASMA)
    with pytest.warns(UserWarning, match="exceeds"):
        _series_factor(0.15, CoefficientVariant.LIFSHITZ_PLASMA)


@pytest.mark.parametrize("a", [-1e-6, 0.0, math.nan, math.inf])
def test_series_force_names_a_bad_separation_before_its_domain(a):
    with pytest.raises(ValueError, match=f"separation must be positive and finite, got {a!r}"):
        series_force(a, ALUMINUM, CoefficientVariant.IMPEDANCE_APPROX)


def test_series_warning_names_the_caller_of_series_force():
    # delta_0/a = 0.105 at 150 nm, just past the warning edge
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        series_force(1.5e-7, ALUMINUM, CoefficientVariant.IMPEDANCE_APPROX)
    assert len(record) == 1
    assert str(record[0].message).startswith("delta_0/a = 0.105 exceeds 0.1")
    assert record[0].filename == __file__


def test_series_tracks_quadrature(aluminum, fast_config):
    # each self-consistent variant reproduces its own numerical force
    a = 1e-6
    f_lif = force_pp0(
        a, ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.LIFSHITZ),
        aluminum, fast_config,
    ).value
    s_lif = series_force(a, aluminum, CoefficientVariant.LIFSHITZ_PLASMA)
    assert s_lif == pytest.approx(f_lif, rel=1e-5, abs=0)

    f_imp = force_pp0(
        a, ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.IMPEDANCE),
        aluminum, fast_config,
    ).value
    s_imp = series_force(a, aluminum, CoefficientVariant.IMPEDANCE_EXACT)
    assert s_imp == pytest.approx(f_imp, rel=5e-5, abs=0)


def _series_deviation(a, material, config):
    """(F_L - F_series) / F_L of the published constant-impedance series
    against the permittivity-route force of the exact plasma model."""
    reference = force_pp0(
        a, ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.LIFSHITZ), material, config
    ).value
    approx = series_force(a, material, CoefficientVariant.IMPEDANCE_APPROX)
    return (reference - approx) / reference


def test_deviation_pins(aluminum, fast_config):
    # frozen curve values for Al against the permittivity reference; at
    # 150 nm the ratio delta_0/a = 0.105 sits just past the warning edge
    with pytest.warns(UserWarning, match="exceeds"):
        dev = _series_deviation(1.5e-7, aluminum, fast_config)
    assert dev == pytest.approx(-9.7017e-2, rel=1e-3, abs=0)
    dev = _series_deviation(1.2e-6, aluminum, fast_config)
    assert dev == pytest.approx(-1.52e-4, rel=1e-2, abs=0)


def test_deviation_fades_at_large_separation(aluminum, fast_config):
    dev = _series_deviation(5e-6, aluminum, fast_config)
    assert abs(dev) < 1e-4


def test_recover_coefficients_from_synthetic_samples(aluminum):
    x = np.geomspace(0.002, 0.02, 12)
    samples = [
        (aluminum.delta_0 / xi, _series_factor(xi, CoefficientVariant.LIFSHITZ_PLASMA))
        for xi in x
    ]
    fit = recover_coefficients(samples, aluminum)
    assert fit.order == 4
    c = coefficients(CoefficientVariant.LIFSHITZ_PLASMA).c
    for est, ref in zip(fit.estimates, c):
        assert est == pytest.approx(ref, rel=1e-6, abs=0)
    assert fit.condition_number < 1e4
    assert fit.residual_norm < 1e-12
    assert len(fit.sensitivity) == 5


def test_recover_coefficients_validation(aluminum):
    good = [(aluminum.delta_0 / xi, 1.0) for xi in np.geomspace(0.002, 0.02, 12)]
    with pytest.raises(ValueError, match="at least order"):
        recover_coefficients(good[:4], aluminum)
    with pytest.raises(ValueError, match="positive"):
        recover_coefficients(good[:-1] + [(-1.0, 1.0)], aluminum)
    big = [(aluminum.delta_0 / xi, 1.0) for xi in np.geomspace(0.01, 0.1, 12)]
    with pytest.raises(ValueError, match="below delta_0/a"):
        recover_coefficients(big, aluminum)
    narrow = [(aluminum.delta_0 / xi, 1.0) for xi in np.linspace(0.01, 0.02, 12)]
    with pytest.raises(ValueError, match="decade"):
        recover_coefficients(narrow, aluminum)


def test_recover_coefficients_conditioning_warning(aluminum):
    # clustered abscissae make the Vandermonde numerically singular
    x = np.concatenate([np.full(6, 0.002) * (1 + 1e-9 * np.arange(6)), [0.02]])
    samples = [
        (aluminum.delta_0 / xi, _series_factor(xi, CoefficientVariant.LIFSHITZ_PLASMA))
        for xi in x
    ]
    with pytest.warns(UserWarning, match="condition number"):
        recover_coefficients(samples, aluminum)


def _termwise_c3(sp, model):
    """c3 of F/F0 for ``model``, from the force bracket expanded in d = delta_0/a.

    With w_p = 2/d the impedances and reflection factors are those of
    ``impedance`` and ``reflection_factors``.  Each factor is expanded in d,
    the bracket through (1 - x)/(E + x) = 1/E + (E + 1) sum_n (-x)^n/E^(n+1)
    with E = e^y - 1, the xi integral over [0, y] is done exactly and the y
    integral numerically; F0 corresponds to II_F = 2 pi^4 / 15.
    """
    import mpmath

    xi, y, d, E = sp.symbols("xi y d E", positive=True)
    w_p = 2 / d
    if model.kind is ImpedanceKind.PLASMA_APPROX:
        Z = xi / w_p
    else:
        Z = xi / sp.sqrt(w_p**2 + xi**2)
    if model.formalism is Formalism.IMPEDANCE:
        num = 4 * xi * y * Z
        factors = (num / (y + xi * Z) ** 2, num / (xi + y * Z) ** 2)
    else:
        s = sp.sqrt(xi**2 + (y**2 - xi**2) * Z**2)
        num = 4 * y * Z * s
        factors = (num / (y + Z * s) ** 2, num / (y * Z + s) ** 2)

    order = 3
    bracket = 0
    for x in factors:
        x_d = sp.series(x, d, 0, order + 1).removeO()
        terms = sum((E + 1) * (-x_d) ** n / E ** (n + 1) for n in range(1, order + 1))
        bracket += sp.expand(terms).coeff(d, order)
    inner = sp.integrate(sp.expand(y**2 * bracket), (xi, 0, y))
    f = sp.lambdify((y, E), sp.expand(inner), "mpmath")
    with mpmath.workdps(25):
        outer = mpmath.quad(
            lambda t: f(t, mpmath.expm1(t)), [0, 1, 5, 20, 60, mpmath.inf]
        )
        return float(outer / (2 * mpmath.pi**4 / 15))


@pytest.mark.parametrize(
    "model, reference",
    [
        (
            ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.LIFSHITZ),
            coefficients(CoefficientVariant.LIFSHITZ_PLASMA).c[3],
        ),
        (
            ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.IMPEDANCE),
            coefficients(CoefficientVariant.IMPEDANCE_EXACT).c[3],
        ),
        # the published IMPEDANCE_APPROX c3 (-22.498) is not this model's
        (ImpedanceModel(ImpedanceKind.PLASMA_APPROX, Formalism.IMPEDANCE), CONSTANT_Z_C3),
    ],
    ids=["lifshitz-plasma", "impedance-exact", "constant-impedance"],
)
def test_termwise_third_order_coefficient(model, reference):
    sp = pytest.importorskip("sympy")
    assert _termwise_c3(sp, model) == pytest.approx(reference, rel=1e-12, abs=0)
