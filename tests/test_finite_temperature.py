"""Finite-temperature observables and the thermal perturbation expansions."""

import math

import numpy as np
import pytest

from casimir_impedance import (
    ALUMINUM,
    CODATA,
    Formalism,
    ImpedanceKind,
    ImpedanceModel,
    Material,
    Observable,
    ObservableKind,
    QuadratureConfig,
    delta_T_energy_pert,
    delta_T_force_pert,
    effective_temperature,
    energy_pp0,
    energy_ppT,
    force_pp0,
    force_ppT,
    force_sphere0,
    ideal_closed_forms,
    ideal_energy_T,
    ideal_energy_T_integral,
    impedance,
    integrate_y_from,
    log1mexp,
    reflection_factors,
    riemann_zeta,
    sphere_plate_T,
    static_reflection_factors,
    sum_matsubara_primed,
    thermal_ideal_ratios,
)
from casimir_impedance import finite_temperature, quadrature
from casimir_impedance.zero_temperature import force_bracket


def test_closed_series_matches_integral_route():
    for a, T in ((1e-6, 300.0), (1e-3, 1.0), (5e-7, 70.0)):
        closed = ideal_energy_T(a, T)
        integral = ideal_energy_T_integral(a, T)
        assert closed == pytest.approx(integral, rel=1e-8)


def test_zero_temperature_limit():
    a = 1e-6
    e0 = ideal_closed_forms(a)[0]
    assert ideal_energy_T(a, 1e-3) == pytest.approx(e0, rel=1e-8)


def test_classical_high_temperature_limit():
    # far above T_eff only the l = 0 mode survives:
    # E -> -zeta(3) k_B T / (8 pi a^2)
    a = 1e-6
    T = 50.0 * effective_temperature(a)
    classical = -riemann_zeta(3.0) * CODATA.k_B * T / (8.0 * math.pi * a**2)
    assert ideal_energy_T_integral(a, T) == pytest.approx(classical, rel=1e-10)
    assert ideal_energy_T(a, T) == pytest.approx(classical, rel=1e-6)


def test_thermal_energy_grows_with_temperature():
    a = 1e-6
    e0 = abs(ideal_closed_forms(a)[0])
    prev = e0
    for tau in (0.1, 0.5, 1.0, 3.0):
        e = abs(ideal_energy_T(a, tau * effective_temperature(a)))
        assert e > prev
        prev = e


def test_primed_sum_convention():
    # explicit half-weight l = 0 reimplementation of the mode sum
    a, T = 1e-6, 300.0
    tau = T / effective_temperature(a)

    def term(l):
        return integrate_y_from(lambda y: y * log1mexp(y), 2.0 * math.pi * tau * l).value

    assert term(0) == pytest.approx(-riemann_zeta(3.0), rel=1e-10)
    explicit = 0.5 * term(0) + sum(term(l) for l in range(1, 40))
    summed = sum_matsubara_primed(lambda ls: [term(l) for l in ls])
    assert summed.value == pytest.approx(explicit, rel=1e-10)
    expected = CODATA.k_B * T / (4.0 * math.pi * a**2) * explicit
    assert ideal_energy_T_integral(a, T) == pytest.approx(expected, rel=1e-10)


def test_ideal_model_short_circuits(ideal_model):
    a, T = 1e-6, 300.0
    obs = energy_ppT(a, T, ideal_model)
    assert obs.value == ideal_energy_T(a, T)
    assert obs.quadrature.converged


_A, _T, _R = 1e-6, 300.0, 2e-4

# Every observable entry point: (kind, temperature, call(model, material,
# config, **kwargs)).  Only the plate entry points at T > 0 take decompose.
_ENTRY_POINTS = {
    "energy_pp0": (ObservableKind.ENERGY_PER_AREA, 0.0,
                   lambda *args: energy_pp0(_A, *args)),
    "force_pp0": (ObservableKind.FORCE_PER_AREA, 0.0,
                  lambda *args: force_pp0(_A, *args)),
    "force_sphere0": (ObservableKind.SPHERE_PLATE_FORCE, 0.0,
                      lambda *args: force_sphere0(_A, _R, *args)),
    "energy_ppT": (ObservableKind.ENERGY_PER_AREA, _T,
                   lambda *args, **kw: energy_ppT(_A, _T, *args, **kw)),
    "force_ppT": (ObservableKind.FORCE_PER_AREA, _T,
                  lambda *args, **kw: force_ppT(_A, _T, *args, **kw)),
    "sphere_plate_T": (ObservableKind.SPHERE_PLATE_FORCE, _T,
                       lambda *args: sphere_plate_T(_A, _R, _T, *args)),
}


@pytest.mark.parametrize(
    "name, decompose",
    [(name, False) for name in _ENTRY_POINTS] + [("energy_ppT", True), ("force_ppT", True)],
)
def test_observable_contract(name, decompose, aluminum, plasma_impedance, fast_config):
    kind, temperature, call = _ENTRY_POINTS[name]
    kwargs = {"decompose": True} if decompose else {}
    obs = call(plasma_impedance, aluminum, fast_config, **kwargs)
    assert isinstance(obs, Observable)
    assert obs.kind is kind
    assert obs.temperature == temperature
    assert obs.geometry.separation == _A
    assert obs.model is plasma_impedance
    assert obs.value < 0.0
    assert obs.quadrature.value == obs.value
    assert obs.quadrature.abs_error_estimate >= 0.0
    if decompose:
        zero, thermal = obs.decomposition
        assert zero + thermal == obs.value
    else:
        assert obs.decomposition is None


def test_decomposition_identity(aluminum, plasma_impedance, fast_config):
    a, T = 1e-6, 300.0
    obs = energy_ppT(a, T, plasma_impedance, aluminum, fast_config, decompose=True)
    zero, thermal = obs.decomposition
    assert zero + thermal == obs.value
    assert zero == pytest.approx(
        energy_pp0(a, plasma_impedance, aluminum, fast_config).value, rel=1e-12
    )


def test_temperature_validation(plasma_impedance, aluminum):
    with pytest.raises(ValueError, match="temperature"):
        energy_ppT(1e-6, 0.0, plasma_impedance, aluminum)
    with pytest.raises(ValueError, match="separation"):
        energy_ppT(-1e-6, 300.0, plasma_impedance, aluminum)


def test_normal_skin_zero_frequency_is_safe(aluminum):
    # Z(0) = 0 at the l = 0 mode must not produce division noise
    model = ImpedanceModel(ImpedanceKind.NORMAL_SKIN, Formalism.IMPEDANCE)
    obs = energy_ppT(1e-6, 300.0, model, aluminum)
    assert math.isfinite(obs.value) and obs.quadrature.converged


def test_normal_skin_lifshitz_rejected_at_finite_T(aluminum):
    model = ImpedanceModel(ImpedanceKind.NORMAL_SKIN, Formalism.LIFSHITZ)
    with pytest.raises(ValueError, match="normal-skin"):
        energy_ppT(1e-6, 300.0, model, aluminum)


def test_energy_stable_under_tolerance_refinement(aluminum, plasma_impedance):
    a, T = 1e-6, 300.0
    coarse = energy_ppT(a, T, plasma_impedance, aluminum, QuadratureConfig(rel_tol=1e-6))
    fine = energy_ppT(a, T, plasma_impedance, aluminum, QuadratureConfig(rel_tol=1e-8))
    assert coarse.value == pytest.approx(fine.value, rel=1e-6)


def test_sphere_plate_thermal_mapping(aluminum, plasma_impedance, fast_config):
    a, R, T = 1e-6, 1e-4, 300.0
    e = energy_ppT(a, T, plasma_impedance, aluminum, fast_config)
    f_sp = sphere_plate_T(a, R, T, plasma_impedance, aluminum, fast_config)
    assert f_sp.value == pytest.approx(2.0 * math.pi * R * e.value, rel=1e-14)
    assert f_sp.kind is ObservableKind.SPHERE_PLATE_FORCE


def test_ideal_pert_matches_closed_difference():
    # with no material the expansion must reproduce E(T) - E(0) exactly
    for a, T in ((1e-6, 300.0), (1e-3, 1.0)):
        expected = ideal_energy_T(a, T) - ideal_closed_forms(a)[0]
        assert delta_T_energy_pert(a, T) == pytest.approx(expected, rel=1e-6)


def test_ideal_force_pert_matches_direct_difference(ideal_model):
    a, T = 1e-6, 300.0
    direct = force_ppT(a, T, ideal_model).value - ideal_closed_forms(a)[1]
    assert delta_T_force_pert(a, T) == pytest.approx(direct, rel=1e-6)


def test_pert_corrections_negative(aluminum):
    # thermal fluctuations deepen the attraction
    assert delta_T_energy_pert(1e-3, 1.0, aluminum) < 0.0
    assert delta_T_force_pert(1e-3, 1.0, aluminum) < 0.0


def test_pert_depends_only_on_skin_depth(aluminum):
    stiff = Material(omega_p=aluminum.omega_p, gamma=2.0 * aluminum.gamma, name="alt")
    assert stiff.delta_0 == aluminum.delta_0
    assert delta_T_energy_pert(1e-3, 1.0, stiff) == delta_T_energy_pert(
        1e-3, 1.0, aluminum
    )


def test_pert_domain(aluminum):
    with pytest.raises(ValueError, match="delta_0/a"):
        delta_T_energy_pert(1e-7, 300.0, aluminum)
    with pytest.raises(ValueError, match="delta_0/a"):
        delta_T_force_pert(1e-7, 300.0, aluminum)


def test_ratio_pins_1mm(aluminum):
    # frozen values for Al plates 1 mm apart at 1 K and 2 K; at millimeter
    # separations the metal responds in the normal skin regime
    model = ImpedanceModel(ImpedanceKind.NORMAL_SKIN, Formalism.IMPEDANCE)
    e_ratio, f_ratio = thermal_ideal_ratios(1e-3, 1.0, model, aluminum)
    assert e_ratio == pytest.approx(0.9999169, abs=2e-6)
    assert f_ratio == pytest.approx(0.9997448, abs=2e-6)
    e_ratio2, f_ratio2 = thermal_ideal_ratios(1e-3, 2.0, model, aluminum)
    assert e_ratio2 == pytest.approx(0.9999991, abs=2e-6)
    assert f_ratio2 == pytest.approx(0.9999945, abs=2e-6)


def test_ratios_approach_unity_with_temperature(aluminum):
    # at 1 mm the impedance correction fades as T grows past T_eff
    model = ImpedanceModel(ImpedanceKind.NORMAL_SKIN, Formalism.IMPEDANCE)
    _, f1 = thermal_ideal_ratios(1e-3, 1.0, model, aluminum)
    _, f2 = thermal_ideal_ratios(1e-3, 2.0, model, aluminum)
    assert abs(1.0 - f2) < abs(1.0 - f1)


@pytest.mark.parametrize("observable", [force_ppT, energy_ppT])
def test_batched_matsubara_sum_matches_per_term_integrals(observable, aluminum, plasma_lifshitz):
    # Oracle: one integrate_y_from per Matsubara index, the integrand written
    # out.  The Lifshitz formalism makes the static l = 0 term non-zero.
    a, T = 1e-6, 30.0
    tau = T / effective_temperature(a)
    energy = observable is energy_ppT
    results = []

    def term(l):
        xi = 2.0 * math.pi * tau * l

        def integrand(y):
            if l == 0:
                x_par, x_perp = static_reflection_factors(plasma_lifshitz, y, a, aluminum)
            else:
                Z = impedance(plasma_lifshitz, xi, a, aluminum)
                x_par, x_perp = reflection_factors(Z, y, xi, plasma_lifshitz.formalism)
            if energy:
                em1 = np.expm1(y)
                return y * (np.log1p(x_par / em1) + np.log1p(x_perp / em1))
            return y * y * force_bracket(x_par, x_perp, y)

        results.append(integrate_y_from(integrand, xi))
        return results[-1].value

    total = sum_matsubara_primed(lambda ls: [term(l) for l in ls])
    n = total.evaluations
    assert n > 128 and results[0].value != 0.0
    if energy:
        expected = ideal_energy_T(a, T) + CODATA.k_B * T / (8.0 * math.pi * a**2) * total.value
    else:
        expected = -CODATA.k_B * T / (8.0 * math.pi * a**3) * total.value
    obs = observable(a, T, plasma_lifshitz, aluminum)
    assert obs.value == pytest.approx(expected, rel=1e-13)
    assert obs.quadrature.evaluations == n + sum(r.evaluations for r in results[:n])
    assert obs.quadrature.converged == all(r.converged for r in results[:n])


def test_matsubara_sum_runs_one_engine_call_per_block(monkeypatch, aluminum, plasma_impedance):
    # Hardware-independent guard: per-term engine calls (one per Matsubara
    # index, 5,807 here) would fail this bound.
    calls = []
    terms = []
    engine = quadrature._batch_adaptive
    primed = finite_temperature.sum_matsubara_primed

    def counted_engine(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    def counted_sum(*args, **kwargs):
        res = primed(*args, **kwargs)
        terms.append(res.evaluations)
        return res

    monkeypatch.setattr(quadrature, "_batch_adaptive", counted_engine)
    monkeypatch.setattr(finite_temperature, "sum_matsubara_primed", counted_sum)
    force_ppT(1e-6, 1.0, plasma_impedance, aluminum)
    (n,) = terms
    assert n > 5000
    assert len(calls) <= math.ceil(n / 64) + 2
