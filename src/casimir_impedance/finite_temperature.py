"""Finite-temperature Casimir observables via the primed Matsubara sum.

At temperature T the frequency integral of the zero-T theory collapses to a
sum over reduced Matsubara frequencies xi_l = 2 pi (T / T_eff) l, with the
l = 0 term at half weight (the prime on the sum):

    E(a, T) = E_ideal(a, T) + k_B T / (8 pi a^2) * S'_l I_E(xi_l)
    F(a, T) = -k_B T / (8 pi a^3) * S'_l I_F(xi_l)

    I_E = int_{xi_l} dy y   [ln(1 + x_par/(e^y - 1)) + ln(1 + x_perp/(e^y - 1))]
    I_F = int_{xi_l} dy y^2 [(1 - x_par)/(e^y - 1 + x_par) + (x_par -> x_perp)]

The ideal-metal energy E_ideal is evaluated from its equivalent closed series
in coth and sinh^-2, or from T = T_eff up from its own Matsubara form
(``ideal_energy_T``).

The integrand of I_E and I_F is the plate integrand of the T = 0 wedge.
Energy and pressure share one core with their T = 0 counterparts,
``zero_temperature._plates``, which takes all the sums of a row in one
reduction, as at T = 0, the observables its components.  It takes the
terms from the y rule in one of two ways chosen by the step
xi_1 = 2 pi T / T_eff (see ``_matsubara_correction``).  From
``_TAIL_STEP_MAX`` up the terms are summed one by one, in one or two
calls, until the ideal metal's terms, which bound every model's, bound the
rest of each sum within rel_tol / 2 of it.  Below it, where that would take
about 26 / xi_1 terms, the first ``_HEAD`` terms are summed exactly and the
rest is an Euler-Maclaurin tail whose integral is the T = 0 wedge shifted
to xi_L, so the cost no longer grows as T falls.

The thermal correction Delta_T = Q(a, T) - Q(a, 0) also has closed expansions
to second order in delta_0 / a, the penetration-depth-to-gap ratio
(``delta_T_energy_pert``, ``delta_T_force_pert``).  Their l-sums split into a
power-law part, summed exactly with zeta values, and an exponentially decaying
remainder in coth(pi l t) - 1 and sinh^-2(pi l t), t = T_eff / T.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .constants import CODATA
from .geometry import Geometry, effective_temperature
from .materials import Material
from .quadrature import (
    _ABS_FLOOR,
    _ROUNDOFF,
    _ZETA_3,
    _ZETA_4,
    _ZETA_5,
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureResult,
    _integrate_y_batch,
    _target,
    dilog,
    integrate_xi_y,
    log1mexp,
)
from .reflection import ImpedanceKind, ImpedanceModel
from .zero_temperature import (
    Observable,
    ObservableKind,
    _integrand,
    _plates,
    _sphere_plate,
    ideal_closed_forms,
)

__all__ = [
    "ideal_energy_T",
    "energy_ppT",
    "force_ppT",
    "sphere_plate_T",
    "delta_T_energy_pert",
    "delta_T_force_pert",
]

# Arguments beyond this make every exponential thermal factor underflow; the
# hyperbolic helpers clamp there instead of evaluating exp(-2z) subnormals.
_CLAMP_Z = 350.0

# From this tau = T / T_eff up ideal_energy_T takes the Matsubara form: both
# forms agree with a 40-digit evaluation to 1.1e-16 at tau = 1, and the
# closed series drifts off above (6.5e-16 at 1.5, 1e-10 at 10).
_IDEAL_TAU_SWITCH = 1.0

# The second-order expansion in delta_0 / a loses meaning past this ratio.
_PERT_RATIO_MAX = 0.1

# Below this Matsubara step xi_1 = 2 pi T / T_eff a primed sum is its first
# _HEAD terms plus an Euler-Maclaurin tail (see _matsubara_correction), at a
# fixed 16,911 integrand points whatever the step (1 um, plasma model).
# The term-by-term sum, which stops near xi = 26, costs about 3,350 / step
# points: fewer from step 0.2 up.  In time (best of 7 x 20 calls, 2-vCPU
# host) the tail takes 0.65-0.69 ms, the sum 1.14, 0.80, 0.60 and 0.33 ms
# at steps 0.19, 0.21, 0.25 and 1.  The tail's accuracy is measured only up
# to step 0.19, so the threshold stays there, below both crossovers.
_TAIL_STEP_MAX = 0.19
_HEAD = 32

# The ideal metal's Matsubara sum, which picks where a term-by-term sum
# first stops, takes its k series to here: from step 0.19 up the rest is
# below 6e-9 of it.  Stops are searched for this many indices at a time.
_IDEAL_K = 64
_STOP_WINDOW = 256

# The closed series (the ideal-metal energy, the delta_0 / a expansions)
# stop when their tail falls below _SERIES_TAIL_TOL of the sum, and give
# up after _MAX_TERMS terms.
_SERIES_TAIL_TOL = 1e-12
_MAX_TERMS = 1_000_000

# 7-point central differences at the middle of f(L-3 .. L+3), unit spacing:
# f' and f^(3) to O(h^6) and O(h^4), f^(5) to O(h^2).
_D1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_D3 = np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0
_D5 = np.array([-1.0, 4.0, -5.0, 0.0, 5.0, -4.0, 1.0]) / 2.0
# The 7-point f' and f^(3) stencils minus the 5-point ones on the middle five
# points: applied to f, the difference estimates the 5-point error, a bound
# on the smaller 7-point error.
_D1_GAP = _D1 - np.array([0.0, 1.0, -8.0, 0.0, 8.0, -1.0, 0.0]) / 12.0
_D3_GAP = _D3 - np.array([0.0, -1.0, 2.0, 0.0, -2.0, 1.0, 0.0]) / 2.0

# The sum of no terms: the Matsubara part of the ideal-metal energy.
_NOTHING = QuadratureResult(value=0.0, abs_error_estimate=0.0, evaluations=0, converged=True)


def _coth_minus_one(z: float) -> float:
    """coth(z) - 1 = 2 e^(-2z) / (1 - e^(-2z)), stable for all z > 0."""
    if z > _CLAMP_Z:
        return 0.0
    return 2.0 * math.exp(-2.0 * z) / (-math.expm1(-2.0 * z))


def _csch2(z: float) -> float:
    """sinh(z)^-2 = 4 e^(-2z) / (1 - e^(-2z))^2, stable for all z > 0."""
    if z > _CLAMP_Z:
        return 0.0
    return 4.0 * math.exp(-2.0 * z) / math.expm1(-2.0 * z) ** 2


def _t(a: float, T: float) -> float:
    """The reduced inverse temperature t = T_eff / T of a gap of width a."""
    t_eff = effective_temperature(a)
    if not (0.0 < T < math.inf):
        raise ValueError(f"temperature must be positive and finite, got {T!r}")
    return t_eff / T


def ideal_energy_T(a: float, T: float) -> float:
    """Ideal-metal energy per unit area at temperature T, in J/m^2.

    Closed series relative to the zero-T value E0:

        E = E0 * {1 + (45/pi^3) * S_n [tau^3 n^-3 coth(pi n / tau)
                                       + pi tau^2 n^-2 sinh^-2(pi n / tau)]
                    - tau^4},    tau = T / T_eff.

    The coth is split as 1 + (coth - 1): the power-law part sums to
    tau^3 zeta(3) exactly and the remainder decays like e^(-2 pi n / tau),
    so truncation on the series tail tolerance is geometric.  The -tau^4
    cancels most of the sum as tau grows (off by 4.5e-15 at tau = 2, 2.4e-6
    at tau = 262), so from ``_IDEAL_TAU_SWITCH`` up the energy is its
    Matsubara form, whose terms all have one sign,

        E = k_B T / (8 pi a^2) S'_l -2 [xi_l Li_2(e^-xi_l) + Li_3(e^-xi_l)]

    with xi_l = 2 pi tau l and Li_s(x) = S_k x^k / k^s, summed over l and k
    up to 7; the terms past them are below 1e-20 of the sum there.
    """
    tau = 1.0 / _t(a, T)
    if tau >= _IDEAL_TAU_SWITCH:
        xis = [2.0 * math.pi * tau * l for l in range(1, 8)]
        total = math.fsum(
            math.exp(-k * xi) * (xi / k**2 + 1.0 / k**3) for xi in xis for k in range(1, 8)
        )
        return CODATA.k_B * T / (8.0 * math.pi * a**2) * (-_ZETA_3 - 2.0 * total)
    e0 = ideal_closed_forms(a)[0]

    total = _ZETA_3 * tau**3
    terms = []
    for n in range(1, _MAX_TERMS + 1):
        z = math.pi * n / tau
        term = tau**3 / n**3 * _coth_minus_one(z) + math.pi * tau**2 / n**2 * _csch2(z)
        terms.append(term)
        if abs(term) <= _SERIES_TAIL_TOL * total:
            break
    total += math.fsum(terms)
    return e0 * (1.0 + 45.0 / math.pi**3 * total - tau**4)


def _ideal_sums(n: int, step: float, m, k):
    """2 S_{l >= m} e^(-k xi_l) p(xi_l), xi_l = step l, in closed form, with
    p(xi) = e^(k xi) int_xi^inf y^n e^(-k y) dy: summed over k >= 1, the
    ideal metal's terms b(xi) = 2 int_xi^inf y^n / (e^y - 1) dy of the
    energy (n = 1) or force (n = 2) from l = m on.  Vectorized over m, k."""
    q, g = np.exp(-k * step), -1.0 / np.expm1(-k * step)
    x = m * step
    # S_{l >= m} xi_l^j q^(l - m) for j = 0, 1, 2.
    moments = (
        g,
        x * g + step * q * g**2,
        x * x * g + 2.0 * x * step * q * g**2 + step**2 * q * (1.0 + q) * g**3,
    )
    p = sum(math.factorial(n) // math.factorial(j) * moments[j] / k ** (n + 1 - j)
            for j in range(n + 1))
    return 2.0 * np.exp(-k * x) * p


def _tail_bound(n: int, step: float, L):
    """B(L) >= S_{l > L} b(xi_l): with m = L + 1, 1 / (e^y - 1) <=
    e^-y / (1 - e^-xi_m) for y >= xi_m, so these b add up to at most the
    k = 1 term of ``_ideal_sums`` over 1 - e^-xi_m, times 1 + ``_ROUNDOFF``
    for rounding (from xi_m = 33 on the two agree to it)."""
    m = L + 1
    return _ideal_sums(n, step, m, 1) / -np.expm1(-step * m) * (1.0 + _ROUNDOFF)


def _stop(n: int, step: float, target: float) -> int:
    """The smallest L with B(L) <= target; B underflows to 0, so any
    positive target is met."""
    L = np.arange(_STOP_WINDOW)
    while not (hit := _tail_bound(n, step, L) <= target).any():
        L += _STOP_WINDOW
    return int(L[hit.argmax()])


def _matsubara_correction(
    a: float,
    T: float,
    requests: tuple[tuple[ObservableKind, ImpedanceModel], ...],
    material: Material | None,
    config: QuadratureConfig,
) -> list[QuadratureResult]:
    """Primed Matsubara sums S'_l f(l) of the y-integrals f(l) = I(xi_l), one
    per request, a (kind, model) pair, all in one reduction.

    For the energy the integrand is the material-dependent part of the mode
    sum alone (the ideal-metal piece is carried by the closed series); for the
    force it is the complete bracket.  The requests are the components of
    one integrand, which the y rule and the wedge reduce each on its own:
    each sum gets the bits it gets alone.

    With the step xi_1 = 2 pi T / T_eff at or above ``_TAIL_STEP_MAX`` the
    terms are summed one by one.  Both reflection factors lie in [0, 1], so
    every term lies in [0, b(xi_l)], b the ideal metal's term (see
    ``_ideal_sums``).  A sum stops at the smallest L whose bound
    B(L) >= S_{l > L} b(xi_l) (``_tail_bound``) is within rel_tol / 2 of
    the partial sum S_L, or its roundoff, and reports B(L) as truncation.
    It takes the terms to the L where the ideal metal's sum stops, then, if
    no S_L meets its target, to the L that the last S_L demands, which
    suffices as no term is negative: one ``_integrate_y_batch`` call to the
    largest first L and, if needed, one to the largest second L.  Each sum
    adds and counts only the terms to its own L; those past its stop are
    dropped but counted in ``evaluations``.  Below ``_TAIL_STEP_MAX`` the
    term count would grow like 1/T, so a sum is an exact head of
    ``_HEAD`` = L terms plus the Euler-Maclaurin tail

        S_{l >= L} f(l) = (1/step) int_{xi_L}^inf I(xi) dxi + f(L)/2
                          - f'(L)/12 + f^(3)(L)/720 - f^(5)(L)/30240,

    whose derivatives are 7-point central differences of f(L-3 .. L+3) and
    whose integral is the T = 0 wedge rule shifted by xi_L: all L + 4 terms
    come from one ``_integrate_y_batch`` call, the integrals from one wedge.
    Its truncation, the last Euler-Maclaurin term plus the stencils' error
    bounded by their difference from 5-point stencils, must be within
    rel_tol of the sum.  The error adds the truncation, the wedge error over
    the step and the y-errors of the terms summed; ``evaluations`` counts
    every term integrated plus every integrand point of the y-integrals and
    the wedge.
    """
    step = 2.0 * math.pi * (1.0 / _t(a, T))
    g_static = _integrand(requests, a, material, ideal=False, static=True)
    # Per sum: value, truncation bound, terms summed and counted, extra
    # points and flag.
    sums = []
    if step >= _TAIL_STEP_MAX:
        half_tol, k = 0.5 * config.rel_tol, np.arange(1, _IDEAL_K + 1)
        ns = [1 if kind is ObservableKind.ENERGY_PER_AREA else 2 for kind, _ in requests]
        # The ideal metal's sum S'_l b(xi_l): b(0) / 2 = n! zeta(n + 1).
        totals = [(math.pi**2 / 6.0, 2.0 * _ZETA_3)[n - 1] + _ideal_sums(n, step, 1, k).sum()
                  for n in ns]
        # Per sum: its stop L and its test of S_0 .. S_L; the terms so far.
        stops, tests, terms, open_ = [0] * len(ns), [None] * len(ns), None, range(len(ns))
        for _ in range(2):
            for r in open_:
                # From l = 1: S_0 = 0 (the normal-skin energy) would demand
                # every term down to the absolute floor.
                stops[r] = max(1, _stop(ns[r], step, _target(totals[r], totals[r], half_tol)))
            start = 0 if terms is None else terms[0].shape[1]
            if max(stops) >= start:
                new = _integrate_y_batch(g_static, step * np.arange(start, max(stops) + 1), config)
                terms = new if terms is None else [np.hstack(p) for p in zip(terms, new)]
            for r in open_:
                partial = np.cumsum(terms[0][r, :stops[r] + 1]) - 0.5 * terms[0][r, 0]
                bounds = _tail_bound(ns[r], step, np.arange(partial.size))
                tests[r] = bounds, np.flatnonzero(bounds <= _target(partial, partial, half_tol))
                totals[r] = partial[-1]
            open_ = [r for r in open_ if not tests[r][1].size]
        for f, L, (bounds, passed) in zip(terms[0], stops, tests):
            n = passed[0] + 1 if passed.size else L + 1
            value = math.fsum([0.5 * f[0], *f[1:n].tolist()])
            # The terms' level differences do not see their rounding.
            bound = float(bounds[n - 1]) + _ROUNDOFF * abs(value)
            sums.append((value, bound, n, L + 1, 0, passed.size > 0))
    else:
        terms = _integrate_y_batch(g_static, step * np.arange(_HEAD + 4), config)
        g = _integrand(requests, a, material, ideal=False)
        for f, wedge in zip(terms[0], integrate_xi_y(g, config, lower=step * _HEAD)):
            around = f[_HEAD - 3:]
            d1, d3, last = float(_D1 @ around), float(_D3 @ around), float(_D5 @ around) / 30240.0
            truncation = abs(last) + abs(float(_D1_GAP @ around)) / 12.0
            truncation += abs(float(_D3_GAP @ around)) / 720.0
            value = math.fsum([0.5 * f[0], *f[1:_HEAD].tolist(), wedge.value / step,
                               0.5 * f[_HEAD], -d1 / 12.0, d3 / 720.0, -last])
            ok = wedge.converged and truncation <= config.rel_tol * abs(value)
            bound = truncation + wedge.abs_error_estimate / step
            sums.append((value, bound, f.size, f.size, wedge.evaluations, ok))
    _, errs, evals, conv = terms
    return [
        QuadratureResult(
            value=value,
            abs_error_estimate=bound + math.fsum(errs[r, :n].tolist()),
            evaluations=end + int(evals[r, :end].sum()) + extra,
            converged=bool(ok and conv[r, :n].all()),
        )
        for r, (value, bound, n, end, extra, ok) in enumerate(sums)
    ]


def _thermal_plate(
    kind: ObservableKind,
    a: float,
    T: float,
    model: ImpedanceModel,
    material: Material | None,
    config: QuadratureConfig,
    decompose: bool,
) -> Observable:
    """The plate energy or pressure at T > 0 as one request to the plate
    core, with its (zero-T value, thermal correction) split when
    ``decompose``."""
    if not T > 0.0:
        _t(a, T)  # names the bad separation or temperature; T = 0 is no sum
    (obs,) = _plates(a, T, ((kind, model),), material, config)
    if decompose:
        (zero,) = _plates(a, 0.0, ((kind, model),), material, config)
        obs = replace(obs, decomposition=(zero.value, obs.value - zero.value))
    return obs


def energy_ppT(
    a: float,
    T: float,
    model: ImpedanceModel,
    material: Material | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
    decompose: bool = False,
) -> Observable:
    """Casimir energy per unit area of parallel plates at temperature T, in
    J/m^2: the ideal-metal closed series plus the primed Matsubara sum of
    the material-dependent logarithms (see ``_matsubara_correction``).
    ``evaluations`` counts the Matsubara terms plus every integrand point
    (0 for the ideal metal).  With ``decompose=True`` the result also
    carries the (zero-T value, thermal correction) split.
    """
    return _thermal_plate(ObservableKind.ENERGY_PER_AREA, a, T, model, material, config, decompose)


def force_ppT(
    a: float,
    T: float,
    model: ImpedanceModel,
    material: Material | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
    decompose: bool = False,
) -> Observable:
    """Casimir pressure between parallel plates at temperature T, in Pa: the
    primed Matsubara sum of the complete bracket, for the ideal metal with
    both reflection factors zero, so the real-to-ideal comparison shares one
    code path.  ``evaluations`` and ``decompose`` as for :func:`energy_ppT`.
    """
    return _thermal_plate(ObservableKind.FORCE_PER_AREA, a, T, model, material, config, decompose)


def sphere_plate_T(
    a: float,
    R: float,
    T: float,
    model: ImpedanceModel,
    material: Material | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> Observable:
    """Force on a sphere above a plate at temperature T: F = 2 pi R E(a, T)."""
    geometry = Geometry(separation=a, sphere_radius=R)
    return _sphere_plate(geometry, energy_ppT(a, T, model, material, config))


def _pert_ratio(a: float, material: Material | None) -> float:
    if material is None:
        return 0.0
    d = material.delta_0 / a
    if d >= _PERT_RATIO_MAX:
        raise ValueError(
            f"delta_0/a = {d:.3g} is not small; the second-order thermal "
            f"expansion requires delta_0/a < {_PERT_RATIO_MAX}"
        )
    return d


def _pert_sum(term) -> float:
    """Sum the scalar term(l) for l >= 1; terms decay like e^(-2 pi l t).

    From l = 3 on, once consecutive magnitudes fall by r < 1, the tail is
    estimated as |t_l| r / (1 - r) and the sum stops when that is within
    ``_SERIES_TAIL_TOL`` of it; two zero terms in a row end it.  After
    ``_MAX_TERMS`` terms it raises.
    """
    terms, abs_sum, prev, zeros_in_row = [], 0.0, 0.0, 0
    for l in range(1, _MAX_TERMS + 1):
        terms.append(term(l))
        mag = abs(terms[-1])
        abs_sum += mag
        zeros_in_row = zeros_in_row + 1 if mag == 0.0 else 0
        if zeros_in_row == 2:
            return math.fsum(terms)
        if l >= 3 and 0.0 < mag < prev:
            r = mag / prev
            tail = mag * r / (1.0 - r)
            # abs_sum bounds |sum|, so the exact sum is taken only where the
            # test could pass; the factor covers the rounding of abs_sum.
            if tail <= max(_SERIES_TAIL_TOL * abs_sum * (1.0 + 1e-9), _ABS_FLOOR) and tail <= max(
                _SERIES_TAIL_TOL * abs(math.fsum(terms)), _ABS_FLOOR
            ):
                return math.fsum(terms)
        prev = mag
    raise RuntimeError("thermal expansion l-sum did not converge")


def delta_T_energy_pert(a: float, T: float, material: Material | None = None) -> float:
    """Thermal correction to the plate energy, second order in delta_0/a.

    Evaluates the closed l-sum expansion of Delta_T E in J/m^2.  The
    power-law parts are summed exactly:

        pi zeta(3)/(2 t^3) - zeta(4)/t^4
        + d (pi zeta(3)/t^3 - 4 zeta(4)/t^4) - d^2 pi zeta(5)/t^5

    with d = delta_0/a and t = T_eff/T; the remainder decays like
    e^(-2 pi l t) and is truncated on its geometric tail.  With no material
    the skin-depth corrections vanish and the ideal-metal correction is
    returned: E0 plus it matches ideal_energy_T(a, T) to 2.2e-16 relative for
    T/T_eff <= 0.5, to 9.8e-15 at T/T_eff = 1 and to 8.5e-9 at T/T_eff = 26
    (a = 0.1-10 um), where the difference is this expansion's cancellation.
    """
    t = _t(a, T)
    d = _pert_ratio(a, material)
    z3, z4, z5 = _ZETA_3, _ZETA_4, _ZETA_5

    algebraic = (
        math.pi * z3 / (2.0 * t**3)
        - z4 / t**4
        + d * (math.pi * z3 / t**3 - 4.0 * z4 / t**4)
        - d**2 * math.pi * z5 / t**5
    )

    def remainder(l: int) -> float:
        u = l * t
        z = math.pi * u
        r = _coth_minus_one(z)
        c2 = _csch2(z)
        order0 = math.pi / (2.0 * u**3) * r + math.pi**2 / (2.0 * u**2) * c2
        order1 = (
            math.pi / u**3 * r
            + math.pi**2 / u**2 * c2
            + 2.0 * math.pi**3 / u * (1.0 + r) * c2
        )
        # Bracket of the second order, minus its pi/u^5 power-law part.
        poly = 1.0 - 3.0 * (1.0 + r) ** 2 + (1.0 + r) / z - 1.0 / z**2
        logs = (
            2.0 * z * log1mexp(2.0 * z)
            - z**2 * r
            - float(dilog(math.exp(-2.0 * z) if z < _CLAMP_Z else 0.0))
        )
        order2 = 2.0 * math.pi**4 * c2 * poly + 6.0 / (math.pi * u**5) * logs
        return order0 + d * order1 - d**2 * order2

    total = algebraic + _pert_sum(remainder)
    return -CODATA.hbar * CODATA.c / (8.0 * math.pi**2 * a**3) * total


def delta_T_force_pert(a: float, T: float, material: Material | None = None) -> float:
    """Thermal correction to the plate pressure, second order in delta_0/a.

    Same structure as :func:`delta_T_energy_pert`; the exact power-law part
    is zeta(4)/t^4 + d pi zeta(3)/t^3 and the remainder is sinh^-2 damped.
    """
    t = _t(a, T)
    d = _pert_ratio(a, material)
    z3, z4 = _ZETA_3, _ZETA_4

    algebraic = z4 / t**4 + d * math.pi * z3 / t**3

    def remainder(l: int) -> float:
        u = l * t
        z = math.pi * u
        r = _coth_minus_one(z)
        c2 = _csch2(z)
        coth = 1.0 + r
        order0 = -math.pi**3 / u * coth * c2
        order1 = (
            math.pi**3
            / u
            * (
                r / z**2
                + c2 * (4.0 * coth + 2.0 * z - 6.0 * z * coth**2 + 1.0 / z)
            )
        )
        order2 = (
            3.0
            * math.pi**3
            / u
            * c2
            * (
                -4.0 * z
                + 5.0 * z**2 * coth
                + 12.0 * z * coth**2
                - 8.0 * z**2 * coth**3
                - 4.0 * coth
            )
        )
        return order0 + d * order1 + d**2 * order2

    total = algebraic + _pert_sum(remainder)
    return -CODATA.hbar * CODATA.c / (8.0 * math.pi**2 * a**4) * total


def _thermal_ratios(
    a: float,
    T: float,
    model: ImpedanceModel,
    material: Material | None,
    config: QuadratureConfig,
) -> tuple[float, float, float, bool]:
    """(energy ratio, force ratio, error, converged) of a real metal to the
    ideal metal at T; the error adds the relative errors of both ratios.
    The energy denominator is ``ideal_energy_T``, the force denominator the
    Matsubara sum with both reflection factors zero."""
    e_ideal = ideal_energy_T(a, T)
    ideal = ImpedanceModel(ImpedanceKind.IDEAL_METAL)
    requests = (
        (ObservableKind.ENERGY_PER_AREA, model),
        (ObservableKind.FORCE_PER_AREA, model),
        (ObservableKind.FORCE_PER_AREA, ideal),
    )
    e_real, f_real, f_ideal = _plates(a, T, requests, material, config)
    f_ratio = f_real.value / f_ideal.value
    err = e_real.quadrature.abs_error_estimate / abs(e_ideal) + (
        f_real.quadrature.abs_error_estimate
        + abs(f_ratio) * f_ideal.quadrature.abs_error_estimate
    ) / abs(f_ideal.value)
    conv = all(ob.quadrature.converged for ob in (e_real, f_real, f_ideal))
    return e_real.value / e_ideal, f_ratio, err, conv
