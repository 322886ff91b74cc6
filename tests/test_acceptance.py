"""End-to-end acceptance checks for the published behavior of the package.

Each test exercises one headline claim, computes the measured numbers, and
records a one-line PASS/FAIL verdict that is echoed in the terminal summary.
Tolerances are stated inline; tests assert the claims as written, so a
failing test documents a real, reproducible disagreement rather than a
loose tolerance.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from casimir_impedance import (
    ALUMINUM,
    DEFAULT_CONFIG,
    CoefficientVariant,
    Formalism,
    ImpedanceKind,
    ImpedanceModel,
    Material,
    QuadratureConfig,
    delta_T_energy_pert,
    delta_T_force_pert,
    effective_temperature,
    energy_pp0,
    energy_ppT,
    force_pp0,
    force_ppT,
    ideal_closed_forms,
    ideal_energy_T,
    impedance,
    integrate_xi_y,
    normal_skin_pert0,
    reflection_factors,
    series_force,
)
from casimir_impedance import cli
from casimir_impedance.finite_temperature import _thermal_ratios
from casimir_impedance.zero_temperature import (
    ObservableKind,
    _deviation,
    energy_bracket,
    force_bracket,
)
from series_fit import recover_coefficients

AL = ALUMINUM
IDEAL = ImpedanceModel(ImpedanceKind.IDEAL_METAL)
EXACT_IMP = ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.IMPEDANCE)
EXACT_LIF = ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.LIFSHITZ)
APPROX_IMP = ImpedanceModel(ImpedanceKind.PLASMA_APPROX, Formalism.IMPEDANCE)
NORMAL_IMP = ImpedanceModel(ImpedanceKind.NORMAL_SKIN, Formalism.IMPEDANCE)


def test_c1_ideal_metal_closed_forms(record_acceptance):
    # zero impedance through the full quadrature must land on the closed
    # forms -pi^2 hbar c / (720 a^3) and -pi^2 hbar c / (240 a^4)
    t0 = time.perf_counter()
    worst = 0.0
    for a in (1e-7, 1e-6, 1e-5):
        e_ref, f_ref = ideal_closed_forms(a)
        worst = max(
            worst,
            abs(energy_pp0(a, IDEAL).value / e_ref - 1.0),
            abs(force_pp0(a, IDEAL).value / f_ref - 1.0),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and elapsed < 5.0
    record_acceptance(
        1, "ideal-metal closed forms", ok, f"worst rel {worst:.2e}, {elapsed:.2f}s"
    )
    assert worst < 1e-7
    assert elapsed < 5.0


def _plate_deviation(observable, kind, a):
    """(Q_L - Q_imp) / Q_L of one impedance kind, as figure1 and figure2 print it."""
    force = observable is force_pp0
    kind_of = ObservableKind.FORCE_PER_AREA if force else ObservableKind.ENERGY_PER_AREA
    return _deviation(kind_of, (kind,), a, AL, DEFAULT_CONFIG)[0][1]


def _series_deviation(a):
    """(F_L - F_series) / F_L of the published constant-impedance series."""
    reference = force_pp0(a, EXACT_LIF, AL).value
    return (reference - series_force(a, AL, CoefficientVariant.IMPEDANCE_APPROX)) / reference


def test_c2_force_deviation_curves(record_acceptance):
    # exact impedance stays below 0.5% at 100 nm; the historical constant-
    # impedance series misses by more than 5% at 150 nm and recovers to
    # below 1% from 1.2 um on; the 60-point curve scan stays under 2 min
    d_exact = _plate_deviation(force_pp0, ImpedanceKind.PLASMA_EXACT, 1e-7)
    with pytest.warns(UserWarning):
        d_150 = _series_deviation(1.5e-7)
    d_far = {a: _series_deviation(a) for a in (1.2e-6, 2e-6, 5e-6, 1e-5)}
    t0 = time.perf_counter()
    spec = cli.RunSpec(command="figure1", material="Al", grid=(1e-7, 1e-5, 60, True))
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        status = cli.run(spec)
    scan_s = time.perf_counter() - t0
    rows = [
        [float(v) for v in line.split(",")]
        for line in stream.getvalue().splitlines()
        if not line.startswith("#")
    ]
    ok = (
        abs(d_exact) < 0.5e-2
        and abs(d_150) > 5e-2
        and all(abs(d) < 1e-2 for d in d_far.values())
        and status == 0
        and len(rows) == 60
        and scan_s < 120.0
    )
    record_acceptance(
        2,
        "force deviation bounds",
        ok,
        f"exact 100nm {abs(d_exact) * 100:.4f}% < 0.5%, series 150nm "
        f"{abs(d_150) * 100:.2f}% > 5%, series >=1.2um max "
        f"{max(abs(d) for d in d_far.values()) * 100:.4f}% < 1%, "
        f"60-pt scan {scan_s:.1f}s",
    )
    assert abs(d_exact) < 0.5e-2
    assert abs(d_150) > 5e-2
    for a, d in d_far.items():
        assert abs(d) < 1e-2, f"series deviation at {a} is {d}"
    assert status == 0 and len(rows) == 60
    assert rows[0][1] == pytest.approx(d_exact, abs=1e-6)
    assert scan_s < 120.0


def test_c3_energy_deviation_curves(record_acceptance):
    # claimed: exact impedance below 0.3% at 100 nm; constant impedance
    # below 5% on 0.1-0.7 um and below 1% from 0.7 um on
    d_exact = _plate_deviation(energy_pp0, ImpedanceKind.PLASMA_EXACT, 1e-7)
    near = {
        a: _plate_deviation(energy_pp0, ImpedanceKind.PLASMA_APPROX, a)
        for a in (1e-7, 2e-7, 4e-7, 6.9e-7)
    }
    far = {
        a: _plate_deviation(energy_pp0, ImpedanceKind.PLASMA_APPROX, a)
        for a in (7e-7, 1.2e-6, 5e-6, 1e-5)
    }
    exact_ok = abs(d_exact) < 0.3e-2
    near_ok = all(abs(d) < 5e-2 for d in near.values())
    far_ok = all(abs(d) < 1e-2 for d in far.values())
    record_acceptance(
        3,
        "energy deviation bounds",
        exact_ok and near_ok and far_ok,
        f"exact 100nm {abs(d_exact) * 100:.5f}% vs < 0.3%, approx 0.1-0.7um max "
        f"{max(abs(d) for d in near.values()) * 100:.4f}% < 5%, approx >=0.7um max "
        f"{max(abs(d) for d in far.values()) * 100:.4f}% < 1%",
    )
    assert near_ok
    assert far_ok
    # measured 0.30933% at 100 nm: reproducibly above the claimed 0.3%
    assert exact_ok, f"exact-impedance energy deviation at 100 nm is {d_exact:.6%}"


def _force_ratio_samples(model, rel_tol=1e-11):
    x = np.geomspace(0.002, 0.02, 10)
    config = QuadratureConfig(rel_tol=rel_tol)
    samples = []
    for xi in x:
        a = AL.delta_0 / xi
        ratio = force_pp0(a, model, AL, config).value / ideal_closed_forms(a)[1]
        samples.append((a, ratio))
    return samples


def test_c4_coefficient_recovery(record_acceptance):
    fit_l = recover_coefficients(_force_ratio_samples(EXACT_LIF), AL)
    c1_err = abs(fit_l.estimates[1] / (-16.0 / 3.0) - 1.0)
    c2_err = abs(fit_l.estimates[2] / 24.0 - 1.0)
    c3_err = abs(fit_l.estimates[3] / (-87.13) - 1.0)

    # the constant impedance Z = xi/w_p has, expanded termwise in delta_0/a,
    # c3 = -(640/7)(1 + pi^2/84) (test_series derives it); the published
    # -22.50 is not the series of that model and is only reported here
    fit_a = recover_coefficients(_force_ratio_samples(APPROX_IMP), AL)
    c3_approx = fit_a.estimates[3]
    c3_model = -(640.0 / 7.0) * (1.0 + math.pi**2 / 84.0)
    c3_approx_err = abs(c3_approx / c3_model - 1.0)
    c3_published_err = abs(c3_approx / (-22.50) - 1.0)

    ok = c1_err < 1e-2 and c2_err < 5e-2 and c3_err < 0.1 and c3_approx_err < 0.1
    record_acceptance(
        4,
        "series coefficient recovery",
        ok,
        f"permittivity route c1 {c1_err * 100:.3f}% c2 {c2_err * 100:.3f}% "
        f"c3 {c3_err * 100:.2f}%; constant-impedance route c3 fits to "
        f"{c3_approx:.1f} vs the model's {c3_model:.2f} "
        f"({c3_approx_err * 100:.2f}% off) and the published -22.50 "
        f"({c3_published_err * 100:.0f}% off)",
    )
    assert c1_err < 1e-2
    assert c2_err < 5e-2
    assert c3_err < 0.1
    assert c3_approx_err < 0.1, (
        f"recovered c3 = {c3_approx:.2f}, model closed form {c3_model:.2f}"
    )


def test_c5_thermal_expansion_matches_quadrature(record_acceptance):
    # closed-form thermal corrections against the Matsubara quadrature
    # difference E(a,T) - E(a,0), permittivity formalism, at T = 300 K
    worst = 0.0
    for a in (0.5e-6, 1e-6, 5e-6):
        num_e = energy_ppT(a, 300.0, EXACT_LIF, AL, decompose=True).decomposition[1]
        num_f = force_ppT(a, 300.0, EXACT_LIF, AL, decompose=True).decomposition[1]
        worst = max(
            worst,
            abs(delta_T_energy_pert(a, 300.0, AL) / num_e - 1.0),
            abs(delta_T_force_pert(a, 300.0, AL) / num_f - 1.0),
        )
    ok = worst < 5e-4
    record_acceptance(
        5, "thermal corrections to 4 digits", ok, f"worst rel {worst:.2e} < 5e-4"
    )
    assert worst < 5e-4


def test_c6_normal_skin_zero_T(record_acceptance):
    a = 1e-3
    e0, f0 = ideal_closed_forms(a)
    corr_e = 1.0 - energy_pp0(a, NORMAL_IMP, AL).value / e0
    corr_f = 1.0 - force_pp0(a, NORMAL_IMP, AL).value / f0
    root = math.sqrt(299792458.0 / (AL.sigma * a))
    e_pert, f_pert = normal_skin_pert0(a, AL)
    coeff_e = (1.0 - e_pert / e0) / root
    coeff_f = (1.0 - f_pert / f0) / root
    ok = (
        abs(corr_e / 1.6e-3 - 1.0) < 0.05
        and abs(corr_f / 1.9e-3 - 1.0) < 0.05
        and abs(coeff_e / 1.656 - 1.0) < 1e-3
        and abs(coeff_f / 1.932 - 1.0) < 1e-3
    )
    record_acceptance(
        6,
        "normal-skin corrections at 1 mm",
        ok,
        f"numeric {corr_e:.4e}/{corr_f:.4e} vs 1.6e-3/1.9e-3, "
        f"coefficients {coeff_e:.4f}/{coeff_f:.4f}",
    )
    assert corr_e == pytest.approx(1.6e-3, rel=0.05, abs=0)
    assert corr_f == pytest.approx(1.9e-3, rel=0.05, abs=0)
    assert coeff_e == pytest.approx(1.656, rel=1e-3, abs=0)
    assert coeff_f == pytest.approx(1.932, rel=1e-3, abs=0)


def test_c7_normal_skin_finite_T(record_acceptance):
    e1, f1, _, _ = _thermal_ratios(1e-3, 1.0, NORMAL_IMP, AL, DEFAULT_CONFIG)
    e2, f2, _, _ = _thermal_ratios(1e-3, 2.0, NORMAL_IMP, AL, DEFAULT_CONFIG)
    t_eff = effective_temperature(1e-3)
    ok = (
        abs(e1 - 0.99992) < 2e-5
        and abs(f1 - 0.999745) < 5e-5
        and abs(e2 - 1.0) < 1e-4
        and abs(f2 - 1.0) < 1e-4
        and abs(t_eff / 1.145 - 1.0) < 5e-3
    )
    record_acceptance(
        7,
        "normal-skin thermal ratios",
        ok,
        f"1K ratios {e1:.7f}/{f1:.7f}, 2K {e2:.7f}/{f2:.7f}, T_eff {t_eff:.4f}K",
    )
    assert e1 == pytest.approx(0.99992, abs=2e-5)
    assert f1 == pytest.approx(0.999745, abs=5e-5)
    assert e2 == pytest.approx(1.0, abs=1e-4)
    assert f2 == pytest.approx(1.0, abs=1e-4)
    assert t_eff == pytest.approx(1.145, rel=5e-3, abs=0)


def test_c8_structural_properties(record_acceptance, ideal_energy_T_integral):
    t0 = time.perf_counter()
    a = 1e-6
    rng = np.random.default_rng(5)
    xi = rng.uniform(0.0, 40.0, 10_000)
    y = xi + rng.uniform(1e-12, 40.0, 10_000)
    bounded = True
    for kind in (ImpedanceKind.PLASMA_EXACT, ImpedanceKind.NORMAL_SKIN):
        Z = impedance(kind, xi, a, AL)
        for formalism in Formalism:
            x_par, x_perp = reflection_factors(Z, y, xi, formalism)
            bounded &= bool(np.all((x_par >= 0) & (x_par <= 1)))
            bounded &= bool(np.all((x_perp >= 0) & (x_perp <= 1)))

    xd = np.linspace(0.01, 30.0, 50)
    Zd = impedance(ImpedanceKind.PLASMA_EXACT, xd, a, AL)
    imp_d = reflection_factors(Zd, xd, xd, Formalism.IMPEDANCE)
    lif_d = reflection_factors(Zd, xd, xd, Formalism.LIFSHITZ)
    diagonal_err = max(
        float(np.max(np.abs(imp_d[0] - lif_d[0]))),
        float(np.max(np.abs(imp_d[1] - lif_d[1]))),
    )

    # static limit of the normal-skin factors
    x0_par, x0_perp = reflection_factors(
        impedance(ImpedanceKind.NORMAL_SKIN, 0.0, a, AL), 5.0, 0.0
    )
    static_ok = x0_par == 0.0 and x0_perp == 0.0

    h = 0.005 * a
    e_hi = energy_pp0(a + h, EXACT_IMP, AL).value
    e_lo = energy_pp0(a - h, EXACT_IMP, AL).value
    f_mid = force_pp0(a, EXACT_IMP, AL).value
    grad_err = abs(-(e_hi - e_lo) / (2.0 * h) / f_mid - 1.0)

    series_err = max(
        abs(ideal_energy_T(1e-6, 300.0) / ideal_energy_T_integral(1e-6, 300.0) - 1.0),
        abs(ideal_energy_T(1e-3, 1.0) / ideal_energy_T_integral(1e-3, 1.0) - 1.0),
    )

    weaker = True
    for sep in (1e-7, 5e-7, 1e-6, 5e-6):
        e_ideal = abs(ideal_closed_forms(sep)[0])
        for model in (EXACT_IMP, EXACT_LIF, APPROX_IMP, NORMAL_IMP):
            weaker &= abs(energy_pp0(sep, model, AL).value) <= e_ideal

    elapsed = time.perf_counter() - t0
    ok = (
        bounded
        and diagonal_err < 1e-12
        and static_ok
        and grad_err < 1e-4
        and series_err < 1e-8
        and weaker
        and elapsed < 180.0
    )
    record_acceptance(
        8,
        "structural property suite",
        ok,
        f"factors bounded {bounded}, diagonal {diagonal_err:.1e}, static zero "
        f"{static_ok}, grad rel {grad_err:.1e}, series rel {series_err:.1e}, "
        f"|E|<=ideal {weaker}, {elapsed:.1f}s",
    )
    assert bounded
    assert diagonal_err < 1e-12
    assert static_ok
    assert grad_err < 1e-4
    assert series_err < 1e-8
    assert weaker
    assert elapsed < 180.0


def _dense_wedge(integrand, n):
    """Composite midpoint rule for the wedge integral on a fixed n x n grid.

    The wedge 0 <= xi <= y < inf is mapped to the rectangle (s, w) in
    [0, 1] x [0, sqrt(60)] via xi = s y, y = w^2, weight 2 w^3.  Cell-center
    nodes keep the evaluation away from the xi = 0 and xi = y edges, where
    several reflection factors have removable limits, so the rule converges
    at its clean second order and Richardson extrapolation applies.
    """
    w_max = math.sqrt(60.0)
    hs = 1.0 / n
    hw = w_max / n
    s = (np.arange(n) + 0.5) * hs
    w = (np.arange(n) + 0.5) * hw
    y = w * w
    weight = 2.0 * w**3
    total = 0.0
    for i in range(0, n, 256):
        s_blk = s[i : i + 256]
        xi = s_blk[:, None] * y[None, :]
        yy = np.broadcast_to(y, xi.shape)
        vals = np.asarray(integrand(xi.ravel(), yy.ravel())).reshape(xi.shape)
        total += float(np.sum(vals @ weight))
    return total * hs * hw


def test_c9_adaptive_engine_vs_dense_oracle(record_acceptance):
    # the wedge rule of integrate_xi_y against a 10^7-node fixed-grid rule with
    # Richardson extrapolation, on randomized materials and separations
    rng = np.random.default_rng(20250819)
    cases = [
        (EXACT_IMP, True),
        (EXACT_LIF, False),
        (APPROX_IMP, True),
        (EXACT_LIF, True),
        (APPROX_IMP, False),
    ]
    worst = 0.0
    for model, is_energy in cases:
        omega_p = 10.0 ** rng.uniform(math.log10(5e15), math.log10(5e16))
        gamma = omega_p / rng.uniform(100.0, 300.0)
        a = 10.0 ** rng.uniform(math.log10(3e-7), math.log10(3e-6))
        material = Material(omega_p=omega_p, gamma=gamma, name="random")

        def integrand(xi, y, model=model, material=material, a=a, energy=is_energy):
            Z = impedance(model.kind, xi, a, material)
            x_par, x_perp = reflection_factors(Z, y, xi, model.formalism)
            if energy:
                return y * energy_bracket(x_par, x_perp, y)
            return y * y * force_bracket(x_par, x_perp, y)

        wedge = integrate_xi_y(integrand)
        assert wedge.converged
        fine = _dense_wedge(integrand, 3162)
        coarse = _dense_wedge(integrand, 1581)
        dense = fine + (fine - coarse) / 3.0
        worst = max(worst, abs(dense / wedge.value - 1.0))
    ok = worst < 1e-6
    record_acceptance(
        9, "dense-grid oracle equivalence", ok, f"worst rel {worst:.2e} < 1e-6"
    )
    assert worst < 1e-6


def test_c10_impedance_thermal_correction_matches_lifshitz(record_acceptance):
    # The paper: the impedance approach's thermal correction coincides with
    # the Lifshitz one to four significant figures.  Delta_T = Q(T) - Q(0)
    # at 300 K for both plasma kinds, energy and force.
    worst = 0.0
    for kind in (ImpedanceKind.PLASMA_EXACT, ImpedanceKind.PLASMA_APPROX):
        for a in (0.5e-6, 1e-6, 2e-6, 3e-6, 5e-6):
            for observable in (energy_ppT, force_ppT):
                d_imp, d_lif = (
                    observable(a, 300.0, ImpedanceModel(kind, f), AL, decompose=True)
                    .decomposition[1]
                    for f in (Formalism.IMPEDANCE, Formalism.LIFSHITZ)
                )
                worst = max(worst, abs(d_imp / d_lif - 1.0))
    ok = worst < 1e-4
    record_acceptance(
        10, "impedance thermal correction to 4 digits", ok, f"worst rel {worst:.2e} < 1e-4"
    )
    assert worst < 1e-4
