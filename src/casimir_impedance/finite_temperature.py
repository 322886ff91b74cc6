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
reduction, as at T = 0, the observables its components.  One rule sums
them at every step xi_1 = 2 pi T / T_eff (see ``_matsubara_correction``):
terms one by one until the ideal metal's terms, which bound every model's,
bound the rest of the sum within rel_tol / 2 of it, but at most a head of
``_HEAD`` terms; past the head the rest is an Euler-Maclaurin tail whose
integral is the T = 0 wedge shifted to xi_L, and the head doubles until
that tail meets rel_tol.  So the cost does not grow as T falls.

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

# A primed sum's first head: past it the sum is an Euler-Maclaurin tail
# (see _matsubara_correction).  Its 36 terms and tail wedge take 16,911
# integrand points (1 um, plasma model), the terms to xi = 26 about
# 3,350 / step.
_HEAD = 32

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


def _tail_bound(n: int, step: float, L):
    """B(L) >= S_{l > L} b(xi_l), b(xi) = 2 int_xi^inf y^n / (e^y - 1) dy
    the ideal metal's energy (n = 1) or force (n = 2) term, vectorized over
    L.  With m = L + 1, 1 / (e^y - 1) <= e^-y / (1 - e^-xi_m) for y >= xi_m,
    so B(L) is 2 S_{l >= m} e^-xi_l p(xi_l), p(xi) = S_j n!/j! xi^j, in
    closed form over 1 - e^-xi_m, times 1 + ``_ROUNDOFF`` for rounding (from
    xi_m = 33 on the two agree to it).  A Python float for an int L."""
    exp, expm1 = (math.exp, math.expm1) if isinstance(L, int) else (np.exp, np.expm1)
    q, g = exp(-step), -1.0 / expm1(-step)
    x = (L + 1) * step
    # p: S_j n!/j! S_{l >= m} xi_l^j q^(l - m) for j = 0 .. n.
    p = g + (x * g + step * q * g**2)
    if n == 2:
        p = 2.0 * p + (x * x * g + 2.0 * x * step * q * g**2 + step**2 * q * (1.0 + q) * g**3)
    return 2.0 * exp(-x) * p / -expm1(-x) * (1.0 + _ROUNDOFF)


def _stop(n: int, step: float, target: float, head: int) -> int:
    """The smallest L <= head with B(L) <= target, or head if there is none."""
    if _tail_bound(n, step, head) > target:
        return head
    return int(np.append(_tail_bound(n, step, np.arange(head)) <= target, True).argmax())


def _sum_target(value: float, tol: float) -> float:
    """``quadrature._target`` of a sum, its own absolute sum, on one float."""
    return max(abs(value) * max(tol, _ROUNDOFF), _ABS_FLOOR)


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

    One rule serves every step xi_1 = 2 pi T / T_eff.  Both reflection
    factors lie in [0, 1], so every term lies in [0, b(xi_l)], b the ideal
    metal's term, and B(L) >= S_{l > L} b(xi_l) (``_tail_bound``) bounds
    the rest of the sum past L.  A sum takes its terms one by one to
    L = min(head, the smallest L whose B(L) is within rel_tol / 2 of a sum
    or its roundoff), L >= 1: first of a lower bound of the ideal sum, b(0)
    / 2 plus the k = 1 part of the rest, then of its partial sum S_L.  If
    B(L) meets the target of S_L it stops at the smallest such L and
    reports B(L) as truncation; as no term is negative, no smaller L meets
    it where L does not.  If not, and L is short of the head, S_L demands
    the next L.  At the head the sum is its terms plus the Euler-Maclaurin
    tail

        S_{l >= L} f(l) = (1/step) int_{xi_L}^inf I(xi) dxi + f(L)/2
                          - f'(L)/12 + f^(3)(L)/720 - f^(5)(L)/30240,

    whose derivatives are 7-point central differences of f(L-3 .. L+3) and
    whose integral is the T = 0 wedge rule shifted by xi_L.  Its truncation,
    the last Euler-Maclaurin term plus the stencils' error bounded by their
    difference from 5-point stencils, must be within rel_tol of the sum or
    its roundoff; while it is not, the head, first ``_HEAD``, doubles.  Each
    round makes one ``_integrate_y_batch`` call for the terms the open sums
    ask for, and the sums that reach the same head in it share one wedge.
    The error adds the truncation, the wedge error over the step, the
    y-errors of the terms used and the roundoff of the sum, which their
    level differences do not see.  Each sum counts
    in ``evaluations`` every term it asked for, the integrand points of
    their y-integrals and of its wedges; it adds only terms to its own stop.
    """
    step = 2.0 * math.pi * (1.0 / _t(a, T))
    g_static = _integrand(requests, a, material, ideal=False, static=True)
    half_tol, size = 0.5 * config.rel_tol, len(requests)
    ns = [1 if kind is ObservableKind.ENERGY_PER_AREA else 2 for kind, _ in requests]
    # Per sum: its head, its L, the terms it asked for, its wedges' points
    # and, once done, its result.  b(0) / 2 is n! zeta(n + 1), the k = 1
    # part of the rest B(0) (1 - e^-xi_1).  L >= 1: S_0 = 0 (the
    # normal-skin energy) would demand every term down to the absolute floor.
    heads, ends, extra, sums = [_HEAD] * size, [0] * size, [0] * size, [None] * size
    ideal = [(math.pi**2 / 6.0, 2.0 * _ZETA_3)[n - 1] - _tail_bound(n, step, 0) * math.expm1(-step)
             for n in ns]
    stops = [max(1, _stop(n, step, _sum_target(b, half_tol), _HEAD)) for n, b in zip(ns, ideal)]
    terms = None

    def result(r, value, bound, n, ok, roundoff=0.0):
        """Sum r's result from its first n terms, its truncation ``bound``
        and the ``roundoff`` of its value if ``bound`` leaves it out."""
        _, errs, evals, conv = terms
        return QuadratureResult(
            value=value,
            abs_error_estimate=bound + math.fsum(errs[r, :n].tolist()) + roundoff,
            evaluations=ends[r] + int(evals[r, :ends[r]].sum()) + extra[r],
            converged=bool(ok and conv[r, :n].all()),
        )

    while open_ := [r for r in range(size) if sums[r] is None]:
        for r in open_:
            # At the head, also the 3 terms past it that the tail's stencil needs.
            ends[r] = max(ends[r], stops[r] + (4 if stops[r] == heads[r] else 1))
        start = 0 if terms is None else terms[0].shape[1]
        if max(ends) > start:
            new = _integrate_y_batch(g_static, step * np.arange(start, max(ends)), config)
            terms = new if terms is None else [np.hstack(p) for p in zip(terms, new)]
        tails = {}
        for r in open_:
            f, n, L = terms[0][r], ns[r], stops[r]
            body = f[1:L].tolist()
            target = _sum_target(math.fsum([0.5 * f[0], *body, f[L]]), half_tol)
            if _tail_bound(n, step, L) <= target:
                # The first L to meet it, or L if the cumsum's rounding
                # misses where the exact sum of the same terms meets it.
                partials = np.cumsum(f[:L + 1]) - 0.5 * f[0]
                bounds = _tail_bound(n, step, np.arange(L + 1))
                hit = bounds <= _target(partials, partials, half_tol)
                hit[-1] = True
                L = int(hit.argmax())
                value = math.fsum([0.5 * f[0], *f[1:L + 1].tolist()])
                sums[r] = result(r, value, float(bounds[L]) + _ROUNDOFF * abs(value), L + 1, True)
            elif L < heads[r]:
                stops[r] = max(L + 1, _stop(n, step, target, heads[r]))
            else:
                tails.setdefault(L, []).append((r, body, target))
        for L, group in tails.items():
            # The wedge never evaluates xi = 0: the integrand of all the
            # terms serves it whenever all the sums reach this head.
            g = g_static if len(group) == size else _integrand(
                tuple(requests[r] for r, _, _ in group), a, material, ideal=False)
            for (r, body, target), wedge in zip(group, integrate_xi_y(g, config, lower=step * L)):
                f = terms[0][r]
                around = f[L - 3:L + 4]
                d1, d3 = float(_D1 @ around), float(_D3 @ around)
                last = float(_D5 @ around) / 30240.0
                truncation = abs(last) + abs(float(_D1_GAP @ around)) / 12.0
                truncation += abs(float(_D3_GAP @ around)) / 720.0
                value = math.fsum([0.5 * f[0], *body, wedge.value / step, 0.5 * f[L], -d1 / 12.0,
                                   d3 / 720.0, -last])
                extra[r] += wedge.evaluations
                if truncation <= _sum_target(value, config.rel_tol):
                    bound = truncation + wedge.abs_error_estimate / step
                    floor = _ROUNDOFF * abs(value)
                    sums[r] = result(r, value, bound, L + 4, wedge.converged, floor)
                else:
                    heads[r] *= 2
                    stops[r] = max(L + 1, _stop(ns[r], step, target, heads[r]))
    return sums


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
