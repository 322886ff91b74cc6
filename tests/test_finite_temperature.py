"""Finite-temperature observables and the thermal perturbation expansions."""

import math
import re

import numpy as np
import pytest

from casimir_impedance import (
    ALUMINUM,
    CODATA,
    Formalism,
    ImpedanceKind,
    ImpedanceModel,
    IntegrandError,
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
    impedance,
    log1mexp,
    reflection_factors,
    sphere_plate_T,
    static_reflection_factors,
)
from casimir_impedance import finite_temperature, quadrature
from casimir_impedance.zero_temperature import _integrand, _plates, force_bracket

import matsubara_stop_sweep as sweep


def test_closed_series_matches_integral_route(ideal_energy_T_integral):
    for a, T in ((1e-6, 300.0), (1e-3, 1.0), (5e-7, 70.0)):
        closed = ideal_energy_T(a, T)
        integral = ideal_energy_T_integral(a, T)
        assert closed == pytest.approx(integral, rel=1e-8, abs=0)


def test_zero_temperature_limit():
    a = 1e-6
    e0 = ideal_closed_forms(a)[0]
    assert ideal_energy_T(a, 1e-3) == pytest.approx(e0, rel=1e-8, abs=0)


def test_classical_high_temperature_limit(ideal_energy_T_integral):
    # far above T_eff only the l = 0 mode survives:
    # E -> -zeta(3) k_B T / (8 pi a^2)
    a = 1e-6
    T = 50.0 * effective_temperature(a)
    classical = -quadrature._ZETA_3 * CODATA.k_B * T / (8.0 * math.pi * a**2)
    assert ideal_energy_T_integral(a, T) == pytest.approx(classical, rel=1e-10, abs=0)
    assert ideal_energy_T(a, T) == pytest.approx(classical, rel=1e-6, abs=0)


@pytest.mark.parametrize("tau", [0.3, 1.0, 2.6, 26.0, 262.0, 2620.0, 1e4])
def test_ideal_energy_keeps_its_digits_at_large_tau(tau, ideal_energy_T_integral):
    # The closed series cancels against -tau^4 as tau = T / T_eff grows: it
    # was off by 2.4e-6 at tau = 262 (1 mm, 300 K) and 2.2e-3 at 2,620.
    # From tau = 1 up the energy is the Matsubara form, whose terms have
    # one sign; the y-integral route is the independent check, and far
    # above T_eff only the l = 0 term is left.
    a = 1e-3
    T = tau * effective_temperature(a)
    energy = ideal_energy_T(a, T)
    oracle = ideal_energy_T_integral(a, T, QuadratureConfig(rel_tol=1e-13))
    assert abs(energy / oracle - 1.0) < 1e-10
    if tau >= 26.0:
        classical = -quadrature._ZETA_3 * CODATA.k_B * T / (8.0 * math.pi * a**2)
        assert abs(energy / classical - 1.0) < 1e-15


def test_thermal_energy_grows_with_temperature():
    a = 1e-6
    e0 = abs(ideal_closed_forms(a)[0])
    prev = e0
    for tau in (0.1, 0.5, 1.0, 3.0):
        e = abs(ideal_energy_T(a, tau * effective_temperature(a)))
        assert e > prev
        prev = e


def test_primed_sum_convention(ideal_energy_T_integral, y_integral):
    # explicit half-weight l = 0 reimplementation of the mode sum, one y
    # integral per term, every term to xi = 80
    a, T = 1e-6, 300.0
    step = 2.0 * math.pi * T / effective_temperature(a)

    def term(l):
        return y_integral(lambda y: y * log1mexp(y), step * l).value

    assert term(0) == pytest.approx(-quadrature._ZETA_3, rel=1e-10, abs=0)
    explicit = 0.5 * term(0) + sum(term(l) for l in range(1, math.ceil(80.0 / step) + 1))
    expected = CODATA.k_B * T / (4.0 * math.pi * a**2) * explicit
    assert ideal_energy_T_integral(a, T) == pytest.approx(expected, rel=1e-10, abs=0)


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
        energy_pp0(a, plasma_impedance, aluminum, fast_config).value, rel=1e-12, abs=0
    )


_APPROX = ImpedanceModel(ImpedanceKind.PLASMA_APPROX)


@pytest.mark.parametrize("observable, args", [
    (energy_pp0, (1e-7, _APPROX, ALUMINUM)),
    (force_ppT, (3e-6, 1.0, _APPROX, ALUMINUM)),
    (force_ppT, (1e-6, 300.0, _APPROX, ALUMINUM)),
], ids=["wedge", "tail", "term-by-term"])
def test_results_hold_python_scalars(observable, args):
    # The plasma-approx energy at 100 nm and the tail wedge of the force at
    # 3 um, 1 K stop on the wedge's roundoff floor, which once made their
    # error estimates numpy scalars; the term-by-term sum takes its terms
    # from the y rule's arrays.
    q = observable(*args).quadrature
    fields = (q.value, q.abs_error_estimate, q.evaluations, q.converged)
    assert [type(v) for v in fields] == [float, float, int, bool]


def test_temperature_validation(plasma_impedance, aluminum):
    with pytest.raises(ValueError, match="temperature"):
        energy_ppT(1e-6, 0.0, plasma_impedance, aluminum)
    with pytest.raises(ValueError, match="separation"):
        energy_ppT(-1e-6, 300.0, plasma_impedance, aluminum)
    for call in (
        lambda T: energy_ppT(1e-6, T, plasma_impedance, aluminum),
        lambda T: force_ppT(1e-6, T, plasma_impedance, aluminum),
        lambda T: ideal_energy_T(1e-6, T),
    ):
        for T in (math.inf, math.nan):
            with pytest.raises(ValueError, match="temperature must be positive and finite"):
                call(T)


@pytest.mark.parametrize("a", [-1e-6, 0.0, math.nan, math.inf])
def test_a_bad_separation_is_named_before_the_temperature(a, aluminum):
    # The separation is checked once, by effective_temperature, and before
    # the temperature, whatever T is.
    for call in (
        lambda: ideal_energy_T(a, -1.0),
        lambda: energy_ppT(a, 300.0, ImpedanceModel(ImpedanceKind.PLASMA_EXACT), aluminum),
        lambda: delta_T_energy_pert(a, math.inf, aluminum),
        lambda: delta_T_force_pert(a, 0.0, aluminum),
    ):
        with pytest.raises(ValueError, match=f"separation must be positive and finite, got {a!r}"):
            call()


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
    assert coarse.value == pytest.approx(fine.value, rel=1e-6, abs=0)


def test_sphere_plate_thermal_mapping(aluminum, plasma_impedance, fast_config):
    a, R, T = 1e-6, 1e-4, 300.0
    e = energy_ppT(a, T, plasma_impedance, aluminum, fast_config)
    f_sp = sphere_plate_T(a, R, T, plasma_impedance, aluminum, fast_config)
    assert f_sp.value == pytest.approx(2.0 * math.pi * R * e.value, rel=1e-14, abs=0)
    assert f_sp.kind is ObservableKind.SPHERE_PLATE_FORCE


def _sequential_pert_sum(term):
    """Reference for ``_pert_sum``: (value, terms taken) of the geometric
    stop rule with the exact sum taken at every ratio test, or None where
    the term budget runs out."""
    terms = []
    prev = 0.0
    zeros_in_row = 0
    for l in range(1, finite_temperature._MAX_TERMS + 1):
        t_l = float(term(l))
        terms.append(t_l)
        mag = abs(t_l)
        if mag == 0.0:
            zeros_in_row += 1
            if zeros_in_row >= 2:
                return math.fsum(terms), len(terms)
            prev = 0.0
            continue
        zeros_in_row = 0
        if l >= 3 and prev > 0.0:
            r = mag / prev
            if r < 1.0:
                tail = mag * r / (1.0 - r)
                partial = abs(math.fsum(terms))
                if tail <= max(finite_temperature._SERIES_TAIL_TOL * partial, 1e-300):
                    return math.fsum(terms), len(terms)
        prev = mag
    return None


@pytest.mark.parametrize("series, max_terms", [
    (lambda l: 0.5**l, None),
    (lambda l: math.exp(-3.0 * l), None),
    (lambda l: 1.0 if l == 1 else 0.0, None),
    (lambda l: 1.0 / (l + 1.0), 10),
    (lambda l: 0.99**l, None),
    (lambda l: (-0.5) ** l, None),
], ids=["half", "exp3", "exact-zeros", "budget", "slow", "alternating"])
def test_pert_sum_matches_sequential_rule(series, max_terms, monkeypatch):
    # The scalar l-sum of the delta_0 / a expansions: the geometric tail
    # from l = 3, two zeros in a row and the term budget, read in order.
    if max_terms is not None:
        monkeypatch.setattr(finite_temperature, "_MAX_TERMS", max_terms)
    asked = []

    def term(l):
        asked.append(l)
        return series(l)

    expected = _sequential_pert_sum(series)
    if expected is None:
        with pytest.raises(RuntimeError, match="did not converge"):
            finite_temperature._pert_sum(term)
        assert asked == list(range(1, max_terms + 1))
        return
    value, n = expected
    assert finite_temperature._pert_sum(term) == value
    assert asked == list(range(1, n + 1))


def test_pert_sum_values():
    q = math.exp(-3.0)
    assert finite_temperature._pert_sum(lambda l: 0.5**l) == pytest.approx(1.0, rel=1e-12, abs=0)
    assert finite_temperature._pert_sum(lambda l: q**l) == pytest.approx(
        q / (1.0 - q), rel=1e-12, abs=0
    )
    assert finite_temperature._pert_sum(lambda l: 1.0 if l == 1 else 0.0) == 1.0


def test_ideal_pert_matches_closed_difference():
    # with no material the expansion must reproduce E(T) - E(0) exactly
    for a, T in ((1e-6, 300.0), (1e-3, 1.0)):
        expected = ideal_energy_T(a, T) - ideal_closed_forms(a)[0]
        assert delta_T_energy_pert(a, T) == pytest.approx(expected, rel=1e-6, abs=0)


def test_ideal_pert_plus_e0_is_the_closed_series_to_roundoff_below_half_t_eff():
    # The two forms drift apart above T/T_eff = 0.5 (6.8e-9 at 26), so the
    # roundoff-level agreement is pinned on T/T_eff <= 0.5 only.
    worst = 0.0
    for a in np.geomspace(1e-7, 1e-5, 9):
        e0 = ideal_closed_forms(a)[0]
        for tau in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
            T = tau * effective_temperature(a)
            total = e0 + delta_T_energy_pert(a, T)
            worst = max(worst, abs(total / ideal_energy_T(a, T) - 1.0))
    assert worst <= 1e-15


def test_ideal_force_pert_matches_direct_difference(ideal_model):
    a, T = 1e-6, 300.0
    direct = force_ppT(a, T, ideal_model).value - ideal_closed_forms(a)[1]
    assert delta_T_force_pert(a, T) == pytest.approx(direct, rel=1e-6, abs=0)


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


def _thermal_ratios(a, T, model, material):
    """The (energy ratio, force ratio, error, converged) that thermal-ratio prints."""
    return finite_temperature._thermal_ratios(a, T, model, material, quadrature.DEFAULT_CONFIG)


def test_ratio_pins_1mm(aluminum):
    # frozen values for Al plates 1 mm apart at 1 K and 2 K; at millimeter
    # separations the metal responds in the normal skin regime
    model = ImpedanceModel(ImpedanceKind.NORMAL_SKIN, Formalism.IMPEDANCE)
    e_ratio, f_ratio, _, _ = _thermal_ratios(1e-3, 1.0, model, aluminum)
    assert e_ratio == pytest.approx(0.9999169, abs=2e-6)
    assert f_ratio == pytest.approx(0.9997448, abs=2e-6)
    e_ratio2, f_ratio2, _, _ = _thermal_ratios(1e-3, 2.0, model, aluminum)
    assert e_ratio2 == pytest.approx(0.9999991, abs=2e-6)
    assert f_ratio2 == pytest.approx(0.9999945, abs=2e-6)


def test_ratios_approach_unity_with_temperature(aluminum):
    # at 1 mm the impedance correction fades as T grows past T_eff
    model = ImpedanceModel(ImpedanceKind.NORMAL_SKIN, Formalism.IMPEDANCE)
    f1 = _thermal_ratios(1e-3, 1.0, model, aluminum)[1]
    f2 = _thermal_ratios(1e-3, 2.0, model, aluminum)[1]
    assert abs(1.0 - f2) < abs(1.0 - f1)


def _mode_integrand(model, material, a, energy):
    """The Matsubara y-integrand written out: material part of the energy
    bracket or the whole force bracket, static factors at xi = 0."""

    def integrand(xi, y):
        xi = np.broadcast_to(xi, y.shape)
        Z = impedance(model.kind, xi, a, material)
        x_par, x_perp = reflection_factors(Z, y, xi, model.formalism)
        static = xi == 0.0
        if static.any():
            x_par[static], x_perp[static] = static_reflection_factors(
                model, y[static], a, material
            )
        if energy:
            em1 = np.expm1(y)
            return y * (np.log1p(x_par / em1) + np.log1p(x_perp / em1))
        return y * y * force_bracket(x_par, x_perp, y)

    return integrand


def _from_sum(observable, a, T, total):
    """The plate observable whose Matsubara sum is ``total``."""
    if observable is energy_ppT:
        return ideal_energy_T(a, T) + CODATA.k_B * T / (8.0 * math.pi * a**2) * total
    return -CODATA.k_B * T / (8.0 * math.pi * a**3) * total


def _step(a, T):
    """The Matsubara step xi_1 = 2 pi T / T_eff."""
    return 2.0 * math.pi * T / effective_temperature(a)


def _bound_stop(terms, observable, step, rel_tol=1e-9):
    """The stop rule of a term-by-term sum, one term at a time: the first L
    whose tail bound B(L) is within rel_tol / 2 of the primed partial sum
    S_L of ``terms``, or None."""
    n_pow = 1 if observable is energy_ppT else 2
    partial = 0.0
    for L, t in enumerate(terms):
        partial += 0.5 * t if L == 0 else t
        if finite_temperature._tail_bound(n_pow, step, L) <= 0.5 * rel_tol * partial:
            return L
    return None


def _recorded(monkeypatch, *names):
    """From now on, the calls of the ``finite_temperature`` names ``names``:
    (name, args, kwargs, result) in order."""
    calls = []
    for name in names:
        original = getattr(finite_temperature, name)

        def recorded(*args, name=name, original=original, **kwargs):
            out = original(*args, **kwargs)
            calls.append((name, args, kwargs, out))
            return out

        monkeypatch.setattr(finite_temperature, name, recorded)
    return calls


def _wedge_heads(calls, step):
    """The heads L of the shifted wedges among ``calls``, in order."""
    return [round(kw["lower"] / step) for name, _, kw, _ in calls if name == "integrate_xi_y"]


@pytest.mark.parametrize("observable", [force_ppT, energy_ppT])
def test_batched_matsubara_sum_matches_per_term_integrals(
    observable, monkeypatch, aluminum, plasma_lifshitz, y_integral
):
    # Oracle: one y integral per Matsubara index, the integrand written
    # out, summed up to the first L where the ideal metal's bound on the
    # rest is within rel_tol / 2 of the partial sum.  The Lifshitz formalism
    # makes the static l = 0 term non-zero.  At step 0.99 that L lies
    # inside the head, so the sum runs term by term, in at most two engine
    # calls: the force stops where the first ends, and the material part of
    # the energy, 4% of the ideal metal's, needs the second.
    a, T = 1e-6, 180.0
    step = _step(a, T)
    integrand = _mode_integrand(plasma_lifshitz, aluminum, a, observable is energy_ppT)
    results = [
        y_integral(lambda y, xi=step * l: integrand(xi, y), step * l)
        for l in range(math.ceil(40.0 / step) + 1)
    ]
    L = _bound_stop([r.value for r in results], observable, step)
    assert L is not None and L < finite_temperature._HEAD and results[0].value != 0.0
    total = math.fsum([0.5 * results[0].value, *(r.value for r in results[1:L + 1])])
    handed = []
    engine = finite_temperature._integrate_y_batch

    def counted_engine(f, lowers, config):
        handed.append(len(lowers))
        return engine(f, lowers, config)

    monkeypatch.setattr(finite_temperature, "_integrate_y_batch", counted_engine)
    obs = observable(a, T, plasma_lifshitz, aluminum)
    n = sum(handed)
    assert obs.value == pytest.approx(_from_sum(observable, a, T, total), rel=1e-13, abs=0)
    assert obs.quadrature.evaluations == n + sum(r.evaluations for r in results[:n])
    assert obs.quadrature.converged == all(r.converged for r in results[:L + 1])
    assert len(handed) == (2 if observable is energy_ppT else 1) and n >= L + 1


@pytest.mark.parametrize("energy", [False, True], ids=["force", "energy"])
def test_engine_batch_equals_terms_integrated_one_at_a_time(energy, aluminum, plasma_lifshitz):
    # The y rule reduces each term by a row sum over its own nodes, so a
    # term's value, error, evaluations and convergence do not depend on its
    # batch.
    a, step = 1e-6, 0.05
    integrand = _mode_integrand(plasma_lifshitz, aluminum, a, energy)
    lowers = step * np.arange(finite_temperature._HEAD + 4)
    batch = quadrature._integrate_y_batch(integrand, lowers, quadrature.DEFAULT_CONFIG)
    for l, xi in enumerate(lowers):
        one = quadrature._integrate_y_batch(integrand, [xi], quadrature.DEFAULT_CONFIG)
        assert [col[l] for col in batch] == [col[0] for col in one]


def _T_at_step(a, step):
    return step * effective_temperature(a) / (2.0 * math.pi)


# (kind, formalism) pairs with a defined static term, and for each kind the
# (a, T) points, where the sum takes its Euler-Maclaurin tail: at step 0.18,
# the top of the former tail path, and at a*T = 1e-5 m K, the top of the
# benchmark's low-temperature range.  At 100 nm the plasma-approx terms dip
# near xi = w_p = 12.7, where Z = 1, and at 50 nm (step 0.18) near
# xi = 6.3.  The bottom of the range, a*T = 1e-6 m K, is checked for
# plasma-exact alone.
_TAIL_PAIRS = [
    (ImpedanceKind.IDEAL_METAL, Formalism.IMPEDANCE),
    (ImpedanceKind.IDEAL_METAL, Formalism.LIFSHITZ),
    (ImpedanceKind.PLASMA_EXACT, Formalism.IMPEDANCE),
    (ImpedanceKind.PLASMA_EXACT, Formalism.LIFSHITZ),
    (ImpedanceKind.PLASMA_APPROX, Formalism.IMPEDANCE),
    (ImpedanceKind.PLASMA_APPROX, Formalism.LIFSHITZ),
    (ImpedanceKind.NORMAL_SKIN, Formalism.IMPEDANCE),
]
_TAIL_POINTS = {
    ImpedanceKind.PLASMA_EXACT: ((1e-6, _T_at_step(1e-6, 0.18)), (1e-7, 100.0), (1e-6, 1.0)),
    ImpedanceKind.PLASMA_APPROX: (
        (1e-6, _T_at_step(1e-6, 0.18)), (1e-7, 100.0), (5e-8, _T_at_step(5e-8, 0.18))
    ),
    ImpedanceKind.NORMAL_SKIN: ((1e-3, _T_at_step(1e-3, 0.18)), (1e-3, 1e-2)),
}


def _tail_cases():
    for kind, formalism in _TAIL_PAIRS:
        points = _TAIL_POINTS.get(kind, ((1e-6, _T_at_step(1e-6, 0.18)), (1e-7, 100.0)))
        for observable in (force_ppT, energy_ppT):
            if kind is ImpedanceKind.IDEAL_METAL and observable is energy_ppT:
                continue  # the closed series, no Matsubara sum
            yield pytest.param(
                observable, ImpedanceModel(kind, formalism), points,
                id=f"{observable.__name__}-{kind.value}-{formalism.value}",
            )


def _exact_primed(observable, model, material, a, T, config=quadrature.DEFAULT_CONFIG):
    """Oracle: the observable from every primed term up to xi = 40, where the
    terms have fallen below 1e-14 of the sum, in one batched y-integral with
    the integrand written out.  A stop rule on the terms' decay would end at
    a dip."""
    step = _step(a, T)
    integrand = _mode_integrand(model, material, a, observable is energy_ppT)
    lowers = step * np.arange(math.ceil(40.0 / step) + 1)
    terms = quadrature._integrate_y_batch(integrand, lowers, config)[0]
    return _from_sum(observable, a, T, math.fsum([0.5 * terms[0], *terms[1:]]))


@pytest.mark.parametrize("observable, model, points", _tail_cases())
def test_tail_matches_exact_primed_sum(observable, model, points, monkeypatch):
    material = None if model.kind is ImpedanceKind.IDEAL_METAL else ALUMINUM
    calls = _recorded(monkeypatch, "integrate_xi_y")
    for a, T in points:
        exact = _exact_primed(observable, model, material, a, T)
        calls.clear()
        obs = observable(a, T, model, material)
        assert _wedge_heads(calls, _step(a, T)) == [finite_temperature._HEAD]
        assert obs.quadrature.converged
        assert obs.value == pytest.approx(exact, rel=1e-11, abs=0)
        assert abs(obs.value - exact) <= obs.quadrature.abs_error_estimate


@pytest.mark.parametrize("observable", [force_ppT, energy_ppT])
@pytest.mark.parametrize("formalism", list(Formalism))
def test_tail_error_estimate_holds_at_30_nm(observable, formalism):
    # At 30 nm (step 0.18) the plasma-approx terms dip near xi = w_p = 3.8,
    # inside the head.  The Lifshitz force is off by 1.25e-11 relative, past
    # the 1e-11 of the cases above but 0.011 of its error estimate.
    model = ImpedanceModel(ImpedanceKind.PLASMA_APPROX, formalism)
    a = 3e-8
    T = _T_at_step(a, 0.18)
    exact = _exact_primed(observable, model, ALUMINUM, a, T)
    obs = observable(a, T, model, ALUMINUM)
    assert obs.quadrature.converged
    assert abs(obs.value - exact) <= obs.quadrature.abs_error_estimate


@pytest.mark.parametrize("observable", [force_ppT, energy_ppT])
@pytest.mark.parametrize("formalism", list(Formalism))
@pytest.mark.parametrize("kind", [ImpedanceKind.PLASMA_EXACT, ImpedanceKind.PLASMA_APPROX])
def test_tail_matches_the_term_by_term_sum_at_30_nm(observable, formalism, kind):
    # Below 100 nm the tail is farthest from its accuracy at 1 um: at 30 nm
    # and step 0.18 it differs from the term-by-term sum by up to 1.26e-11
    # relative (plasma-approx Lifshitz force), 0.013 of its error estimate.
    # The term-by-term reference takes the terms at rel_tol 1e-11 to the
    # first L where the ideal metal's bound on the rest is within rel_tol / 2
    # of the partial sum; at the default rel_tol the energies' true tails
    # come to 0.998 of that bound.
    model = ImpedanceModel(kind, formalism)
    a = 3e-8
    T = _T_at_step(a, 0.18)
    step, config = _step(a, T), QuadratureConfig(rel_tol=1e-11)
    energy = observable is energy_ppT
    request = (ObservableKind.ENERGY_PER_AREA if energy else ObservableKind.FORCE_PER_AREA, model)
    g = _integrand((request,), a, ALUMINUM, ideal=False, static=True)
    (terms,), _, _, (converged,) = finite_temperature._integrate_y_batch(
        g, step * np.arange(math.ceil(40.0 / step) + 1), config
    )
    L = _bound_stop(terms, observable, step, config.rel_tol)
    term_by_term = _from_sum(observable, a, T, math.fsum([0.5 * terms[0], *terms[1:L + 1]]))
    tail = observable(a, T, model, ALUMINUM)
    assert tail.quadrature.converged and converged[:L + 1].all()
    assert abs(tail.value - term_by_term) <= tail.quadrature.abs_error_estimate


# (observable, kind, formalism, a, step, rel_tol, the heads of its wedges).
_TIGHT = [
    (force_ppT, ImpedanceKind.PLASMA_EXACT, Formalism.IMPEDANCE, 1e-6, 0.18, 1e-13, [32, 64, 128]),
    (energy_ppT, ImpedanceKind.PLASMA_EXACT, Formalism.IMPEDANCE, 1e-6, 0.18, 1e-13, [32, 64, 128]),
    (energy_ppT, ImpedanceKind.NORMAL_SKIN, Formalism.IMPEDANCE, 1e-3, 0.0055, 1e-12, [32, 64]),
    (energy_ppT, ImpedanceKind.NORMAL_SKIN, Formalism.IMPEDANCE, 1e-3, 0.0055, 1e-15,
     [32, 64, 128]),
    (force_ppT, ImpedanceKind.PLASMA_EXACT, Formalism.LIFSHITZ, 2.8e-7, 0.5, 1e-12, [32, 64]),
    (force_ppT, ImpedanceKind.PLASMA_APPROX, Formalism.LIFSHITZ, 1.5e-7, 0.7, 1e-12, [32]),
]


@pytest.mark.parametrize(
    "observable, kind, formalism, a, step, rel_tol, heads", _TIGHT,
    ids=["force-1um-0.18", "energy-1um-0.18", "normal-skin-1mm-1mK", "normal-skin-below-roundoff",
         "lifshitz-280nm-0.5", "approx-lifshitz-150nm-0.7"],
)
def test_tail_error_estimate_holds_at_tight_tolerance(
    observable, kind, formalism, a, step, rel_tol, heads, monkeypatch
):
    # The Euler-Maclaurin truncation at the first head is about 2e-12 of
    # the sum at step 0.18 and 1.0e-11 for the normal-skin energy at 1 mm and
    # 1 mK, where the terms grow like sqrt(xi) from l = 0; the head doubles
    # until it meets rel_tol, and every sum converges to the exact primed
    # sum within rel_tol and its estimate.  The plasma-approx Lifshitz force
    # at 150 nm, step 0.7, is off by 4.8e-15 relative, within its estimate
    # only with the sum's roundoff; the plasma-exact one at 280 nm, step
    # 0.5, lies near the plasma dip at xi = w_p = 35.5.  A rel_tol below
    # the roundoff floor, 50 eps, is met at that floor: the normal-skin
    # energy at 1e-15 stops at the head of 128 (256 without the floor).
    model, config = ImpedanceModel(kind, formalism), QuadratureConfig(rel_tol=rel_tol)
    T = _T_at_step(a, step)
    exact = _exact_primed(observable, model, ALUMINUM, a, T, config)
    calls = _recorded(monkeypatch, "_integrate_y_batch", "integrate_xi_y")
    obs = observable(a, T, model, ALUMINUM, config)
    assert obs.quadrature.converged
    assert abs(obs.value - exact) <= max(rel_tol, quadrature._ROUNDOFF) * abs(exact)
    assert abs(obs.value - exact) <= obs.quadrature.abs_error_estimate
    assert _wedge_heads(calls, _step(a, T)) == heads
    assert [c[0] for c in calls] == ["_integrate_y_batch", "integrate_xi_y"] * len(heads)


@pytest.mark.parametrize("aT", [3.0e-5, 3.2e-5, 3.4e-5])
def test_tail_wedge_below_the_dip_stops_at_its_second_halving(aT, aluminum, monkeypatch):
    # Hardware-independent cost guard: at 100 nm the tail wedge of the
    # plasma-approx impedance force starts at xi_L >= 5.3, below the dip at
    # xi = w_p = 12.7, and still converges at 12,375 points; with the 36 head
    # terms the sum costs 16,911 points (53,983 with a fourth level).
    a = 1e-7
    model = ImpedanceModel(ImpedanceKind.PLASMA_APPROX, Formalism.IMPEDANCE)
    calls = _recorded(monkeypatch, "integrate_xi_y")
    obs = force_ppT(a, aT / a, model, aluminum)
    assert _wedge_heads(calls, _step(a, aT / a)) == [finite_temperature._HEAD]
    assert obs.quadrature.converged
    assert obs.quadrature.evaluations <= 16_911


@pytest.mark.parametrize(
    ("a", "T"),
    [(1.5e-7, 243.0), (1.5e-7, 729.0), (1.5e-7, 1215.0), (2.8e-7, _T_at_step(2.8e-7, 0.5))],
    ids=["243.0", "729.0", "1215.0", "280nm-step0.5"],
)
def test_term_by_term_sum_does_not_stop_at_the_plasma_dip(a, T, aluminum):
    # The plasma-approx Lifshitz terms at 150 nm dip almost to zero at
    # xi = w_p = 19 and rise again; at 280 nm the dip, w_p = 35.5, lies
    # past the stop.  A sum that stopped on the ratio of its terms in the
    # dip was off by 8.7e-10 relative, 2.6 to 3.6 times its error estimate.
    # The ideal metal's bound holds in and past a dip alike: at step 1
    # (1,215 K) the sum stops on it inside the head; at steps 0.2 to 0.6 it
    # takes the tail, whose wedge from xi_32 spans the dip.
    model = ImpedanceModel(ImpedanceKind.PLASMA_APPROX, Formalism.LIFSHITZ)
    exact = _exact_primed(force_ppT, model, aluminum, a, T)
    obs = force_ppT(a, T, model, aluminum)
    assert obs.quadrature.converged
    assert abs(obs.value - exact) <= obs.quadrature.abs_error_estimate


def _ideal_term(n, xi):
    """b(xi) = 2 int_xi^inf y^n / (e^y - 1) dy, the ideal metal's energy
    (n = 1) or force (n = 2) term, from its k series 2 S_k e^(-k xi) p_k(xi)
    cut where e^(-k xi) < e^-40; at xi = 0 it is 2 n! zeta(n + 1)."""
    if xi == 0.0:
        return math.pi**2 / 3.0 if n == 1 else 4.0 * quadrature._ZETA_3
    k = np.arange(1, math.ceil(40.0 / xi) + 2)
    p = xi / k + 1.0 / k**2 if n == 1 else xi**2 / k + 2.0 * xi / k**2 + 2.0 / k**3
    return 2.0 * math.fsum((np.exp(-k * xi) * p).tolist())


_BOUND_XI = np.concatenate([[0.0, 0.05, 0.25, 1.0], np.linspace(2.5, 80.0, 32)])


@pytest.mark.parametrize("a", [1e-9, 3e-8, 1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("observable, model, points", _tail_cases())
def test_every_matsubara_term_lies_under_the_ideal_metal_bound(observable, model, points, a):
    # Both reflection factors lie in [0, 1], so each term the sum integrates
    # lies in [0, b(xi)], b the ideal metal's term; the stop rule rests on
    # it.  Every (kind, formalism) pair that runs at T > 0, 1 nm to 1 cm,
    # xi from 0 (the static term) to 80, each term within its y error.
    energy = observable is energy_ppT
    kind = ObservableKind.ENERGY_PER_AREA if energy else ObservableKind.FORCE_PER_AREA
    material = None if model.kind is ImpedanceKind.IDEAL_METAL else ALUMINUM
    g = _integrand(((kind, model),), a, material, ideal=False, static=True)
    values, errors, _, _ = quadrature._integrate_y_batch(
        lambda xi, y: g(xi, y)[0], _BOUND_XI, quadrature.DEFAULT_CONFIG
    )
    n = 1 if energy else 2
    bound = np.array([_ideal_term(n, xi) for xi in _BOUND_XI.tolist()])
    assert np.all(values + errors >= 0.0)
    assert np.all(values - errors <= bound * (1.0 + quadrature._ROUNDOFF))


@pytest.mark.parametrize("n", [1, 2], ids=["energy", "force"])
@pytest.mark.parametrize("step", [0.19, 0.5, 1.65, 5.0, 40.0])
def test_tail_bound_covers_the_ideal_terms_summed_to_xi_200(n, step):
    # B(L) >= S_{l > L} b(xi_l), the sum taken term by term to xi = 200,
    # for every L with xi_L <= 80.
    terms = [_ideal_term(n, step * l) for l in range(math.ceil(200.0 / step) + 1)]
    for L in range(int(80.0 / step) + 1):
        assert finite_temperature._tail_bound(n, step, L) >= math.fsum(terms[L + 1:])


@pytest.mark.parametrize("target", [1e-4, 1e-25, 1e-45])
@pytest.mark.parametrize("n", [1, 2], ids=["energy", "force"])
def test_stop_is_the_first_L_whose_bound_meets_the_target(n, target):
    # _stop searches only up to the head: the first L whose bound meets
    # the target (L = 76 to 608 at step 0.19), or the head if it lies short
    # of that L.
    step = 0.19
    L = 0
    while finite_temperature._tail_bound(n, step, L) > target:
        L += 1
    for head in (L, L + 1, 4 * L):
        assert finite_temperature._stop(n, step, target, head) == L
    for head in (0, L // 2, L - 1):
        assert finite_temperature._stop(n, step, target, head) == head


def _sweep_slice():
    """Two cases of ``tests/matsubara_stop_sweep.py`` per (kind, formalism,
    observable, rel_tol), their separation and step rotated through the
    sweep's lists."""
    groups = {}
    for case in sweep.cases():
        key = (case.kind, case.formalism, case.observable, case.rel_tol)
        groups.setdefault(key, []).append(case)
    for g, group in enumerate(groups.values()):
        for j in range(2):
            case = group[(g * 7 + j * len(group) // 2 + j * 3) % len(group)]
            yield pytest.param(case, id=case.label().replace(" ", ""))


@pytest.mark.parametrize("case", _sweep_slice())
def test_matsubara_sum_meets_the_sweep_gates(case):
    # A stratified slice of the sweep: |value - ref| is within the estimate
    # plus the error of ref (terms at rel_tol 1e-13 to xi = 80), a sum that
    # stopped on the ideal bound reports a truncation that bounds its true
    # tail (the same terms to xi = 80), and at the default rel_tol the sum
    # takes no more points than the former two-path rule on the same terms,
    # plus one first pass of the tail where that rule summed more than the
    # head.  A sum may come back unconverged only where the former rule did
    # too: some plasma Lifshitz terms hit the y rule's level cap at rel_tol
    # 1e-12.
    out = sweep.run(case)
    assert out.converged or not out.former_converged
    assert out.tail_over_bound is None or out.tail_over_bound <= 1.0
    assert out.err_over_estimate <= 1.0
    if case.rel_tol == 1e-9:
        assert out.points <= out.allowed_points


@pytest.mark.parametrize("step", [0.3, 1.0, 1.65, 5.5, 800.0])
@pytest.mark.parametrize("kind", [ImpedanceKind.IDEAL_METAL, ImpedanceKind.PLASMA_EXACT])
def test_term_by_term_sum_takes_one_integrand_call(step, kind, monkeypatch, aluminum):
    # Hardware-independent cost guard, round by round.  From step 1 up the
    # y rule gets exactly the terms to the bound's stop L, inside the head:
    # in one round for the ideal force, whose terms are the bound, and in at
    # most two for the plasma force, whose sum is 92% of the ideal metal's.
    # At step 0.3 the one round hands it the head's terms and the 3 past it
    # that the tail's stencil needs, and one wedge from xi_32 follows.
    # Every term handed to the y rule is counted, also at step 800, where
    # all terms but l = 0 underflow to zero and the sum stops at L = 0 after
    # a first call that runs to l = 1.  The y rule's first pass evaluates
    # every node in one integrand call, and at the default tolerance no term
    # needs a later level.
    handed, terms, integrand_calls, points = [], [], [], []
    engine = finite_temperature._integrate_y_batch

    def counted_engine(f, lowers, config):
        handed.append(len(lowers))
        integrand_calls.append(0)

        def counted(xi, y):
            integrand_calls[-1] += 1
            points.append(np.broadcast(xi, y).size)
            return f(xi, y)

        out = engine(counted, lowers, config)
        (row,) = out[0]
        terms.extend(row.tolist())
        return out

    monkeypatch.setattr(finite_temperature, "_integrate_y_batch", counted_engine)
    wedges = _recorded(monkeypatch, "integrate_xi_y")
    a = 1e-6
    model = ImpedanceModel(kind, Formalism.IMPEDANCE)
    T = _T_at_step(a, step)
    obs = force_ppT(a, T, model, aluminum)
    assert obs.quadrature.converged
    head = finite_temperature._HEAD
    if step < 1.0:
        assert handed == [head + 4]
        assert _wedge_heads(wedges, step) == [head]
    else:
        L = _bound_stop(terms, force_ppT, step)
        assert sum(handed) == max(L, 1) + 1
        assert len(handed) <= (1 if kind is ImpedanceKind.IDEAL_METAL else 2)
        assert L < head and not wedges
        assert L <= max(3, math.ceil(36.0 / step))  # the former stop at xi = 36
        total = _from_sum(force_ppT, a, T, math.fsum([0.5 * terms[0], *terms[1:L + 1]]))
        assert obs.value == pytest.approx(total, rel=1e-15, abs=0)
    assert integrand_calls == [1] * len(handed)
    wedge_points = sum(out[0].evaluations for *_, out in wedges)
    assert obs.quadrature.evaluations == sum(handed) + sum(points) + wedge_points


def test_term_by_term_sum_extends_once_for_terms_far_below_the_bound(
    monkeypatch, aluminum, plasma_impedance, ideal_model
):
    # Terms at 1e-6 of the ideal force's lie under the bound but far below
    # it: the first engine call ends where the ideal force stops, which
    # leaves a tail near rel_tol / 2 of the ideal sum, 1e6 times the target
    # of this one.  The second call runs to the L that the first partial
    # sum demands, and the reported truncation bounds the true tail.
    a, step = 1e-6, 1.0
    T = _T_at_step(a, step)
    exact = 1e-6 * _exact_primed(force_ppT, ideal_model, None, a, T)
    handed = []
    engine = finite_temperature._integrate_y_batch

    def counted_engine(f, lowers, config):
        handed.append(len(lowers))
        return engine(f, lowers, config)

    def scaled_integrand(*args, **kwargs):
        return lambda xi, y: (2e-6 * y * y / np.expm1(y),)

    monkeypatch.setattr(finite_temperature, "_integrate_y_batch", counted_engine)
    force_ppT(a, T, ideal_model)
    (ideal_terms,) = handed
    handed.clear()
    monkeypatch.setattr(finite_temperature, "_integrand", scaled_integrand)
    obs = force_ppT(a, T, plasma_impedance, aluminum)
    assert obs.quadrature.converged
    assert len(handed) == 2 and handed[0] == ideal_terms
    assert abs(obs.value - exact) <= obs.quadrature.abs_error_estimate
    assert abs(obs.value / exact - 1.0) < 1e-9


def test_tail_reports_a_non_finite_integrand_where_it_was_evaluated(
    monkeypatch, aluminum, plasma_impedance
):
    # The head terms evaluate xi <= 35 step = 3.5, the tail wedge from
    # xi_L = 3.2 up; the error names the unshifted coordinates.
    def bad_integrand(*args, **kwargs):
        def g(xi, y):
            return (np.where(xi > 4.0, np.nan, np.exp(-y)),)

        return g

    monkeypatch.setattr(finite_temperature, "_integrand", bad_integrand)
    with pytest.raises(IntegrandError) as info:
        force_ppT(1e-6, _T_at_step(1e-6, 0.1), plasma_impedance, aluminum)
    xi = float(re.search(r"xi=(?:np\.float64\()?([-+.\deE]+)", str(info.value)).group(1))
    y = float(re.search(r"y=(?:np\.float64\()?([-+.\deE]+)", str(info.value)).group(1))
    assert 4.0 < xi <= y


@pytest.mark.parametrize("observable", [force_ppT, energy_ppT])
def test_millikelvin_sum_has_bounded_cost(observable, monkeypatch, aluminum, plasma_impedance):
    # Hardware-independent guard: the term-by-term sum would need about 5.8
    # million terms at (1 um, 1 mK), past the max_matsubara_terms budget.
    # The tail path makes one engine call for its head and one wedge.
    engine_calls, wedge_calls = [], []
    engine = finite_temperature._integrate_y_batch
    wedge = finite_temperature.integrate_xi_y

    def counted_engine(*args, **kwargs):
        engine_calls.append(1)
        return engine(*args, **kwargs)

    def counted_wedge(*args, **kwargs):
        wedge_calls.append(1)
        return wedge(*args, **kwargs)

    monkeypatch.setattr(finite_temperature, "_integrate_y_batch", counted_engine)
    monkeypatch.setattr(finite_temperature, "integrate_xi_y", counted_wedge)
    obs = observable(1e-6, 1e-3, plasma_impedance, aluminum)
    assert obs.quadrature.converged
    assert len(engine_calls) == 1 and len(wedge_calls) == 1
    assert obs.quadrature.evaluations <= 100_000


_ROWS = {
    "E,F": ("E", "F"),
    "F,E": ("F", "E"),
    "E,F,F_ideal": ("E", "F", "F_ideal"),
    "E_ideal,F_ideal": ("E_ideal", "F_ideal"),
}


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-12])
@pytest.mark.parametrize("row", list(_ROWS))
@pytest.mark.parametrize("step", [0.05, 0.18, 0.1975, 1.65, 5.0])
def test_a_thermal_row_is_one_reduction_with_each_sum_its_own(
    step, row, rel_tol, monkeypatch, aluminum, plasma_lifshitz, ideal_model
):
    # A T > 0 row of the plate core makes one Matsubara reduction, and each
    # observable is bit for bit its own call.  Each round of the reduction
    # makes at most one y batch, so a row makes no more than its most
    # demanding sum alone, and one shifted wedge per head that its sums
    # reach in it.  At rel_tol 1e-9 every sum takes the tail from xi_32 up
    # to step 0.1975, in one round; from 1.65 up the Lifshitz energy alone
    # takes two batches, and in a row its second stop lies inside the
    # others' first.  At rel_tol 1e-12 the heads double to 64 and, for some
    # sums, 128 up to step 0.1975, each in the same round of every sum that
    # reaches it, and some terms need later levels of the y rule.  At step
    # 0.05 the energy alone reaches 128, so in the (F, E) row that wedge
    # takes an integrand of the energy alone.
    E, F = ObservableKind.ENERGY_PER_AREA, ObservableKind.FORCE_PER_AREA
    named = {"E": (E, plasma_lifshitz), "F": (F, plasma_lifshitz),
             "E_ideal": (E, ideal_model), "F_ideal": (F, ideal_model)}
    requests = tuple(named[name] for name in _ROWS[row])
    a, config = 1e-6, QuadratureConfig(rel_tol=rel_tol)
    T = _T_at_step(a, step)
    calls = _recorded(monkeypatch, "_matsubara_correction", "_integrate_y_batch", "integrate_xi_y")
    alone, batches, heads = [], [], set()
    for request in requests:
        calls.clear()
        alone += _plates(a, T, (request,), aluminum, config)
        batches.append(sum(c[0] == "_integrate_y_batch" for c in calls))
        heads.update(_wedge_heads(calls, _step(a, T)))
    calls.clear()
    assert _plates(a, T, requests, aluminum, config) == alone
    names = [c[0] for c in calls]
    assert names.count("_matsubara_correction") == 1
    assert 1 <= names.count("_integrate_y_batch") <= max(batches)
    assert _wedge_heads(calls, _step(a, T)) == sorted(heads)
    if step < 1.0:
        assert names[:-1] == ["_integrate_y_batch", "integrate_xi_y"] * len(heads)


def test_plates_approach_zero_temperature_continuously(
    aluminum, plasma_impedance, plasma_lifshitz, ideal_model
):
    # The gap Q(T)/Q(0) - 1 shrinks like T^3: a jump in the l = 0 term of the
    # primed sum would leave a part linear in T, a ratio of 0.1 per decade.
    # The Lifshitz force gap is one ulp from 10 mK on, so only the impedance
    # gaps are compared down to 1 mK.
    a = 1e-6
    for model in (plasma_impedance, plasma_lifshitz):
        for thermal, zero in ((force_ppT, force_pp0), (energy_ppT, energy_pp0)):
            q0 = zero(a, model, aluminum).value
            gaps = [
                abs(thermal(a, T, model, aluminum).value / q0 - 1.0)
                for T in (1.0, 0.1, 0.01, 1e-3)
            ]
            if model is plasma_impedance:
                assert all(b < c for b, c in zip(gaps[1:], gaps))
            assert gaps[-1] < 1e-7
            assert gaps[1] < 1e-2 * gaps[0]
    ideal = ideal_closed_forms(a)[1] + delta_T_force_pert(a, 1e-3)
    assert force_ppT(a, 1e-3, ideal_model).value == pytest.approx(ideal, rel=1e-9, abs=0)
