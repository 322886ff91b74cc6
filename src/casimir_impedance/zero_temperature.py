"""Zero-temperature Casimir observables for parallel plates and sphere-plate.

The energy per unit area and the pressure between parallel plates are wedge
integrals over reduced variables (xi, y):

    E(a) =  hbar c / (32 pi^2 a^3) * II_E
    F(a) = -hbar c / (32 pi^2 a^4) * II_F

    II_E = int dxi int_xi dy  y   [2 ln(1 - e^-y) + sum_p ln(1 + x_p/(e^y - 1))]
    II_F = int dxi int_xi dy  y^2 sum_p (1 - x_p) / (e^y - 1 + x_p)

with the polarization factors x_p from :mod:`casimir_impedance.reflection`.
Setting both factors to zero recovers the ideal-metal closed forms
E = -pi^2 hbar c/(720 a^3) and F = -pi^2 hbar c/(240 a^4).  The sphere-plate
force follows from the proximity mapping F_sp = 2 pi R E(a).  One core,
``_plates``, takes any set of (observable, model) pairs at one separation and
temperature as the components of one reduction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .constants import CODATA
from .geometry import Geometry, _check_length
from .materials import Material
from .quadrature import (
    _ZETA_7_2,
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureResult,
    integrate_xi_y,
    log1mexp,
)
from .reflection import Formalism, ImpedanceKind, ImpedanceModel, _plate_factors

__all__ = [
    "ObservableKind",
    "Observable",
    "ideal_closed_forms",
    "energy_pp0",
    "force_pp0",
    "force_sphere0",
    "normal_skin_pert0",
]


class ObservableKind(enum.Enum):
    ENERGY_PER_AREA = "energy_per_area"    # J / m^2
    FORCE_PER_AREA = "force_per_area"      # Pa
    SPHERE_PLATE_FORCE = "sphere_plate_force"  # N


@dataclass(frozen=True)
class Observable:
    """A computed Casimir quantity with its provenance attached.

    ``temperature`` is 0 for the zero-temperature entry points.  When
    ``decomposition`` is present it holds the (zero-T part, thermal
    correction) pair whose sum reproduces ``value``.
    """

    kind: ObservableKind
    value: float
    geometry: Geometry
    model: ImpedanceModel
    temperature: float
    quadrature: QuadratureResult
    decomposition: tuple[float, float] | None = None


def _observable(
    kind: ObservableKind,
    scale: float,
    raw: QuadratureResult,
    geometry: Geometry,
    model: ImpedanceModel,
    temperature: float,
    offset: float = 0.0,
) -> Observable:
    """Wrap ``offset + scale * raw`` as an Observable; the error scales by |scale|."""
    value = scale * raw.value + offset
    return Observable(
        kind=kind,
        value=value,
        geometry=geometry,
        model=model,
        temperature=temperature,
        quadrature=replace(
            raw, value=value, abs_error_estimate=abs(scale) * raw.abs_error_estimate
        ),
    )


def ideal_closed_forms(a: float) -> tuple[float, float]:
    """Ideal-metal (E, F) at separation a: -pi^2 hbar c/(720 a^3), /(240 a^4)."""
    _check_length("separation", a)
    hc = CODATA.hbar * CODATA.c
    return (
        -math.pi**2 * hc / (720.0 * a**3),
        -math.pi**2 * hc / (240.0 * a**4),
    )


def energy_bracket(x_par, x_perp, y, ideal: bool = True):
    """Mode-sum bracket of the energy integrand (both polarizations).

    With ``ideal=False`` the ideal-metal part 2 ln(1 - e^-y) is left out,
    leaving the material-dependent logarithms alone.
    """
    logs = 2.0 * log1mexp(y) if ideal else None
    return _bracket(True, *_owned(x_par, x_perp, y), np.expm1(y), logs)[()]


def force_bracket(x_par, x_perp, y):
    """Mode-sum bracket of the force integrand (both polarizations)."""
    return _bracket(False, *_owned(x_par, x_perp, y), np.expm1(y))[()]


def _owned(x_par, x_perp, y):
    """Copies of the factors at the points' shape, for a bracket to write into."""
    return [np.array(x, dtype=float) for x in np.broadcast_arrays(x_par, x_perp, y)[:2]]


def _bracket(energy: bool, x_par, x_perp, em1, logs=None):
    """The energy or force bracket from em1 = expm1(y) and, if given, the
    energy's ideal-metal part logs = 2 log1mexp(y), written into the arrays
    x_par (returned) and x_perp."""
    if energy:
        np.log1p(np.divide(x_par, em1, out=x_par), out=x_par)
        if logs is not None:
            np.add(logs, x_par, out=x_par)
        np.log1p(np.divide(x_perp, em1, out=x_perp), out=x_perp)
    else:
        den = np.add(em1, x_par, out=np.empty(x_par.shape))
        np.divide(np.subtract(1.0, x_par, out=x_par), den, out=x_par)
        np.add(em1, x_perp, out=den)
        np.divide(np.subtract(1.0, x_perp, out=x_perp), den, out=x_perp)
    return np.add(x_par, x_perp, out=x_par)


def _integrand(
    requests: tuple[tuple[ObservableKind, ImpedanceModel], ...],
    a: float,
    material: Material | None,
    ideal: bool = True,
    static: bool = False,
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, ...]]:
    """The plate integrand g(xi, y) -> one array per request, a (kind,
    model) pair at separation a: y times the energy bracket or y^2 times
    the force bracket.

    Every reduction of the plates shares it: the T = 0 wedge, the Matsubara
    y-integrals and their shifted-wedge tail.  The models are resolved here,
    once (a bad separation or a missing material raises here).  A call does
    not check its points, which the rules build inside 0 <= xi <= y; it
    computes each kind's Z, each model's factors and expm1(y) and 2
    log1mexp(y) once for all the requests.  xi and y need only broadcast to
    the points, so a factor of y alone (expm1, log1mexp, y^2) is computed
    once per value of y, and the impedance once per value of xi: the wedge
    passes y as a column, the y rule xi.  A model's factors spread a column
    y over the points in an array of their own.  The ideal metal's factors
    are 0, so its whole integrand is a function of y, one value per row of
    the wedge.  A request writes its values into its model's factors, or
    into copies if a later request reads them.  Every point gets the bits it
    gets from flat arrays and with no other request.  ``ideal=False`` drops
    the ideal-metal part of the energy bracket, which the finite-temperature
    closed series carries.  With ``static=True`` points at xi = 0 take the
    models' static reflection factors, for the l = 0 Matsubara term; the
    wedges never evaluate there.
    """
    # The unique models in order, by comparison: hashing a model costs more.
    models = []
    for _, model in requests:
        if model not in models:
            models.append(model)
    factors = _plate_factors(models, a, material, static)
    index = [models.index(model) for _, model in requests]
    brackets = [
        (kind is ObservableKind.ENERGY_PER_AREA, m, m in index[i + 1:])
        for i, ((kind, _), m) in enumerate(zip(requests, index))
    ]
    logs = ideal and any(energy for energy, _, _ in brackets)

    def g(xi: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
        fs = factors(xi, y)
        em1, two_logs = np.expm1(y), 2.0 * log1mexp(y) if logs else None
        out = []
        for energy, m, shared in brackets:
            pair = [x.copy() for x in fs[m]] if shared else fs[m]
            b = _bracket(energy, *pair, em1, two_logs)
            out.append(np.multiply(y if energy else y * y, b, out=b))
        return tuple(out)

    return g


def _plates(
    a: float,
    T: float,
    requests: tuple[tuple[ObservableKind, ImpedanceModel], ...],
    material: Material | None,
    config: QuadratureConfig,
) -> list[Observable]:
    """The plate energy or pressure of each request, a (kind, model) pair,
    at separation a and temperature T.  The requests are the components of
    one reduction and each gets the bits it gets alone: one wedge integral
    at T = 0, one set of Matsubara sums at T > 0, which for the energy add
    to ``finite_temperature.ideal_energy_T`` (the ideal metal's energy is
    that alone).
    """
    geometry = Geometry(separation=a)
    if T == 0.0:
        raws = integrate_xi_y(_integrand(requests, a, material), config)
        hc = CODATA.hbar * CODATA.c
        out = []
        for (kind, model), raw in zip(requests, raws):
            if kind is ObservableKind.ENERGY_PER_AREA:
                scale = hc / (32.0 * math.pi**2 * a**3)
            else:
                scale = -hc / (32.0 * math.pi**2 * a**4)
            out.append(_observable(kind, scale, raw, geometry, model, 0.0))
        return out
    # Imported here: finite_temperature builds on this module.
    from .finite_temperature import _NOTHING, _matsubara_correction, ideal_energy_T

    def no_sum(kind, model):
        return kind is ObservableKind.ENERGY_PER_AREA and model.kind is ImpedanceKind.IDEAL_METAL

    summed = tuple(request for request in requests if not no_sum(*request))
    raws = iter(_matsubara_correction(a, T, summed, material, config) if summed else ())
    out = []
    for kind, model in requests:
        if kind is ObservableKind.ENERGY_PER_AREA:
            offset, scale = ideal_energy_T(a, T), CODATA.k_B * T / (8.0 * math.pi * a**2)
        else:
            offset, scale = 0.0, -CODATA.k_B * T / (8.0 * math.pi * a**3)
        raw = _NOTHING if no_sum(kind, model) else next(raws)
        out.append(_observable(kind, scale, raw, geometry, model, T, offset))
    return out


def energy_pp0(
    a: float,
    model: ImpedanceModel,
    material: Material | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> Observable:
    """Casimir energy per unit area of parallel plates at T = 0, in J/m^2."""
    return _plates(a, 0.0, ((ObservableKind.ENERGY_PER_AREA, model),), material, config)[0]


def force_pp0(
    a: float,
    model: ImpedanceModel,
    material: Material | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> Observable:
    """Casimir pressure between parallel plates at T = 0, in Pa (negative)."""
    return _plates(a, 0.0, ((ObservableKind.FORCE_PER_AREA, model),), material, config)[0]


def force_sphere0(
    a: float,
    R: float,
    model: ImpedanceModel,
    material: Material | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> Observable:
    """Force on a sphere of radius R above a plate, F = 2 pi R E(a), in N.

    Valid to leading order in a/R; constructing the geometry warns when the
    ratio exceeds the trusted range.
    """
    geometry = Geometry(separation=a, sphere_radius=R)
    return _sphere_plate(geometry, energy_pp0(a, model, material, config))


def _sphere_plate(geometry: Geometry, energy: Observable) -> Observable:
    """The proximity force F = 2 pi R E on the sphere of ``geometry`` from
    the plate energy E at its separation, at the energy's temperature."""
    return _observable(
        ObservableKind.SPHERE_PLATE_FORCE,
        2.0 * math.pi * geometry.sphere_radius,
        energy.quadrature,
        geometry,
        energy.model,
        energy.temperature,
    )


def _deviation(
    kind: ObservableKind,
    impedance_kinds: tuple[ImpedanceKind, ...],
    a: float,
    material: Material,
    config: QuadratureConfig,
) -> list[tuple[float, float, float, bool]]:
    """(Q_L, (Q_L - Q_imp) / Q_L, error, converged) of the plate observable
    ``kind`` at separation a for each impedance kind, Q_L from the
    permittivity route and Q_imp from the impedance boundary condition with
    the same impedance kind, all from one wedge integral; a positive
    deviation means the impedance route binds the plates less strongly.
    The error is the sum of both quadrature errors relative to |Q_L|."""
    requests = tuple(
        (kind, ImpedanceModel(impedance_kind, f))
        for impedance_kind in impedance_kinds
        for f in (Formalism.LIFSHITZ, Formalism.IMPEDANCE)
    )
    obs = _plates(a, 0.0, requests, material, config)
    return [
        (
            ref.value,
            (ref.value - direct.value) / ref.value,
            (ref.quadrature.abs_error_estimate + direct.quadrature.abs_error_estimate)
            / abs(ref.value),
            ref.quadrature.converged and direct.quadrature.converged,
        )
        for ref, direct in zip(obs[::2], obs[1::2])
    ]


# Largest normal-skin expansion parameter for which the first-order forms are
# meaningful; (1/sqrt(8 pi)) sqrt(c/(sigma a)) must stay below this.
_NORMAL_SKIN_PARAM_MAX = 0.01


def normal_skin_pert0(a: float, material: Material) -> tuple[float, float]:
    """First-order normal-skin (E, F) at T = 0 from the analytic expansion.

    The expansion parameter is sqrt(c / (sigma a)); both observables shrink
    relative to the ideal metal:

        E = E_ideal [1 - (405 sqrt(2) / (4 pi^4)) zeta(7/2) sqrt(c/(sigma a))]
        F = F_ideal [1 - (945 sqrt(2) / (8 pi^4)) zeta(7/2) sqrt(c/(sigma a))]
    """
    e_ideal, f_ideal = ideal_closed_forms(a)
    root = math.sqrt(CODATA.c / (material.sigma * a))
    small = root / math.sqrt(8.0 * math.pi)
    if small >= _NORMAL_SKIN_PARAM_MAX:
        raise ValueError(
            f"normal-skin expansion parameter {small:.3g} is out of range "
            f"(requires < {_NORMAL_SKIN_PARAM_MAX}); use the numerical route"
        )
    z72 = _ZETA_7_2
    e_coeff = 405.0 * math.sqrt(2.0) / (4.0 * math.pi**4) * z72
    f_coeff = 945.0 * math.sqrt(2.0) / (8.0 * math.pi**4) * z72
    return e_ideal * (1.0 - e_coeff * root), f_ideal * (1.0 - f_coeff * root)
