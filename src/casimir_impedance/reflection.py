"""Surface impedance models and the reflection factors built from them.

The boundary condition at each plate enters the mode sums only through two
polarization factors x_par(y, xi) and x_perp(y, xi), both in [0, 1].  They can
be formed in two ways from the same impedance function Z(i zeta):

* ``Formalism.IMPEDANCE`` uses the impedance boundary condition directly,
  evaluating Z at the frequency of the mode regardless of its transverse wave
  number.
* ``Formalism.LIFSHITZ`` substitutes the impedance into the permittivity-based
  reflection coefficients, where the wave number inside the metal retains its
  transverse part through s = sqrt(xi^2 + (y^2 - xi^2) Z^2).

The two prescriptions coincide on the light cone y = xi, and their difference
off the cone is exactly the deviation this package quantifies.

Each formula exists once, as a private function of checked arguments: Z of a
kind from its scale w_p or sigma_r, the running factors and the static
(xi = 0) factors.  The public ``impedance``, ``reflection_factors`` and
``static_reflection_factors`` check their arguments and call them;
``_plate_factors`` resolves a model at one separation once, for the plate
integrand, and checks only the points of each call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .constants import CODATA
from .materials import Material

__all__ = [
    "ImpedanceKind",
    "Formalism",
    "ImpedanceModel",
    "impedance",
    "reflection_factors",
    "static_reflection_factors",
]


class ImpedanceKind(enum.Enum):
    """Functional form of the surface impedance along imaginary frequency."""

    IDEAL_METAL = "ideal"
    PLASMA_EXACT = "plasma-exact"
    PLASMA_APPROX = "plasma-approx"
    NORMAL_SKIN = "normal-skin"


class Formalism(enum.Enum):
    IMPEDANCE = "impedance"
    LIFSHITZ = "lifshitz"


@dataclass(frozen=True)
class ImpedanceModel:
    """A boundary-condition choice: impedance kind plus reflection formalism."""

    kind: ImpedanceKind
    formalism: Formalism = Formalism.IMPEDANCE


def _scale(kind: ImpedanceKind, a: float, material: Material | None):
    """The model's scale at the checked separation a: the reduced plasma
    frequency w_p = 2 a omega_p / c of both plasma forms, the reduced
    conductivity sigma_r = 2 a sigma / c of normal skin, None for the ideal
    metal."""
    if not (a > 0.0):
        raise ValueError(f"separation must be positive, got {float(a)!r}")
    if kind is ImpedanceKind.IDEAL_METAL:
        return None
    if material is None:
        raise ValueError(f"impedance kind {kind.value!r} requires a material")
    rate = material.sigma if kind is ImpedanceKind.NORMAL_SKIN else material.omega_p
    return 2.0 * a * rate / CODATA.c


def _impedance(kind: ImpedanceKind, xi, scale):
    """Z at xi >= 0 of a kind other than the ideal metal, from its ``_scale``."""
    if kind is ImpedanceKind.PLASMA_EXACT:
        return xi / np.sqrt(scale * scale + xi * xi)
    if kind is ImpedanceKind.PLASMA_APPROX:
        return xi / scale
    if kind is ImpedanceKind.NORMAL_SKIN:
        return np.sqrt(xi / (4.0 * np.pi * scale))
    raise ValueError(f"unknown impedance kind {kind!r}")  # pragma: no cover


def _check_xi(xi) -> None:
    if np.any(xi < 0.0):
        raise ValueError("reduced frequency xi must be >= 0")


def _check_points(Zs, y, xi) -> None:
    for Z in Zs:
        if np.any(Z < 0.0):
            raise ValueError("impedance must be >= 0 on the imaginary axis")
    if np.any(xi < 0.0) or np.any(y < 0.0):
        raise ValueError("reduced variables must be >= 0")
    if np.any(y < xi):
        raise ValueError("domain requires y >= xi")


def impedance(kind: ImpedanceKind, xi, a: float, material: Material | None = None):
    """Surface impedance Z at reduced imaginary frequency xi for gap width a.

    Vectorized over xi at one separation a > 0.  The reduced plasma
    frequency is w_p = 2 a omega_p / c and the reduced conductivity
    sigma_r = 2 a sigma / c, so that

    * ideal metal:   Z = 0
    * exact plasma:  Z = xi / sqrt(w_p^2 + xi^2)
    * approximate:   Z = xi / w_p          (infrared range xi << w_p)
    * normal skin:   Z = sqrt(xi / (4 pi sigma_r))

    The approximate plasma form is evaluated as written for every xi; beyond
    xi ~ w_p it exceeds its validity range (and eventually 1), which is
    precisely the defect probed by comparing it with the exact form.
    """
    scale = _scale(kind, a, material)
    xi = np.asarray(xi, dtype=float)
    _check_xi(xi)
    if scale is None:
        out = np.zeros(xi.shape)
    else:
        out = _impedance(kind, xi, scale)
    return float(out) if out.ndim == 0 else out


def _guarded_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den with the 0/0 corners resolved to 0 (vanishing numerator wins)."""
    out = np.zeros(np.broadcast(num, den).shape)
    mask = num != 0.0
    if out.ndim == 0:
        return num / den if mask else out
    np.divide(num, den, out=out, where=mask)
    return out


def _factors(Z, y, xi, formalism: Formalism):
    """(x_par, x_perp) at checked points."""
    if formalism is Formalism.IMPEDANCE:
        num = 4.0 * xi * y * Z
        return (
            _guarded_ratio(num, np.square(y + xi * Z)),
            _guarded_ratio(num, np.square(xi + y * Z)),
        )
    if formalism is Formalism.LIFSHITZ:
        s = np.sqrt(np.square(xi) + (np.square(y) - np.square(xi)) * np.square(Z))
        num = 4.0 * y * Z * s
        return (
            _guarded_ratio(num, np.square(y + Z * s)),
            _guarded_ratio(num, np.square(y * Z + s)),
        )
    raise ValueError(f"unknown formalism {formalism!r}")  # pragma: no cover


def reflection_factors(Z, y, xi, formalism: Formalism = Formalism.IMPEDANCE):
    """Polarization factors (x_par, x_perp) for impedance Z at the point (y, xi).

    Both factors lie in [0, 1]; 0 reproduces the ideal metal and 1 kills the
    mode entirely.  Vectorized over broadcastable Z, y, xi.  The point
    y = xi = 0 is defined as (0, 0) by continuity for every model; exact
    zero-frequency values of a specific model should be taken from
    :func:`static_reflection_factors`, which resolves the xi -> 0 limit using
    the model's low-frequency slope.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    xi = np.asarray(xi, dtype=float)
    _check_points((Z,), y, xi)
    x_par, x_perp = _factors(Z, y, xi, formalism)
    if x_par.ndim == 0:
        return float(x_par), float(x_perp)
    return x_par, x_perp


# Why a normal-skin Lifshitz model has no l = 0 Matsubara term; the CLI cites it.
_NO_STATIC_LIMIT = (
    "the zero-frequency reflection of a dissipative (normal-skin) metal "
    "is not defined under the permittivity formalism"
)


def _static_factors(model: ImpedanceModel, y: np.ndarray, scale):
    """(x_par, x_perp) at xi = 0 and y >= 0 with the model's ``_scale``."""
    zeros = np.zeros_like(y)
    if model.kind in (ImpedanceKind.PLASMA_EXACT, ImpedanceKind.PLASMA_APPROX):
        q = scale if model.formalism is Formalism.IMPEDANCE else np.hypot(y, scale)
        return zeros, _guarded_ratio(4.0 * y * q, np.square(y + q))
    if model.kind is ImpedanceKind.IDEAL_METAL or model.formalism is Formalism.IMPEDANCE:
        return zeros, zeros.copy()
    raise ValueError(_NO_STATIC_LIMIT)


def static_reflection_factors(
    model: ImpedanceModel,
    y,
    a: float,
    material: Material | None = None,
):
    """Zero-frequency (xi -> 0) limit of the reflection factors.

    The ideal metal has both factors zero.  Both plasma forms share the slope
    Z'(0) = lim Z/xi = 1/w_p, which leaves x_par = 0 but a finite
    perpendicular factor

        x_perp(y, 0) = 4 y q / (y + q)^2,

    with q = w_p under the impedance formalism and q = sqrt(y^2 + w_p^2)
    under the permittivity formalism.  The normal-skin impedance has
    Z/xi -> inf at zero frequency.  Under the impedance formalism both its
    factors then vanish, x_perp like sqrt(xi); the permittivity formalism
    admits no unambiguous limit, and that combination is rejected here.
    The separation and the material are checked as by :func:`impedance`.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ValueError("reduced variable y must be >= 0")
    x_par, x_perp = _static_factors(model, y, _scale(model.kind, a, material))
    if x_par.ndim == 0:
        return float(x_par), float(x_perp)
    return x_par, x_perp


def _plate_factors(
    models: list[ImpedanceModel], a: float, material: Material | None, static: bool
):
    """The reflection factors of each model at separation a as one function
    of the points, f(xi, y) -> [(x_par, x_perp) of each model], with the
    kinds, the material and the scales resolved here, once.

    Each call checks its points once, as :func:`impedance` and
    :func:`reflection_factors` do, with their messages, and computes Z once
    per kind.  The ideal metal's factors are the scalars (0.0, 0.0), so a
    bracket of them is computed once per value of y.  With ``static=True``
    points at xi = 0 take the static factors.
    """
    kinds = []
    for model in models:
        if model.kind not in kinds:
            kinds.append(model.kind)
    scales = [_scale(kind, a, material) for kind in kinds]
    plan = [(kinds.index(model.kind), model) for model in models]
    # The ideal metal's static factors are its factors, 0.
    static = static and any(scale is not None for scale in scales)

    def factors(xi: np.ndarray, y: np.ndarray):
        _check_xi(xi)
        Zs = [0.0 if s is None else _impedance(kind, xi, s) for kind, s in zip(kinds, scales)]
        _check_points(Zs, y, xi)
        at = ()
        if static:
            zero = xi == 0.0
            if zero.any():
                # Index the axes along which xi varies: the y rule's column
                # of lower bounds puts xi = 0 (l = 0) in whole rows.
                at = tuple(
                    i if n > 1 else slice(None) for i, n in zip(np.nonzero(zero), zero.shape)
                )
        out = []
        for k, model in plan:
            if scales[k] is None:
                out.append((0.0, 0.0))
                continue
            x_par, x_perp = _factors(Zs[k], y, xi, model.formalism)
            if at:
                x_par[at], x_perp[at] = _static_factors(
                    model, np.broadcast_to(y, x_par.shape)[at], scales[k]
                )
            out.append((x_par, x_perp))
        return out

    return factors
