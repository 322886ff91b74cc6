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
kind from its scale w_p or sigma_r, the running factors (both computed in
place) and the static (xi = 0) factors.  The public ``impedance``,
``reflection_factors`` and ``static_reflection_factors`` check their
arguments and call them; ``_plate_factors`` resolves a model at one
separation once, for the plate integrand, and checks none of its points:
the quadrature rules build each inside the domain 0 <= xi <= y.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .constants import CODATA
from .geometry import _check_length
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
    _check_length("separation", a)
    if kind is ImpedanceKind.IDEAL_METAL:
        return None
    if material is None:
        raise ValueError(f"impedance kind {kind.value!r} requires a material")
    rate = material.sigma if kind is ImpedanceKind.NORMAL_SKIN else material.omega_p
    return 2.0 * a * rate / CODATA.c


def _impedance(kind: ImpedanceKind, xi: np.ndarray, scale):
    """Z at xi >= 0 of a kind other than the ideal metal from its ``_scale``, in place."""
    Z = np.empty(xi.shape)
    if kind is ImpedanceKind.PLASMA_EXACT:
        np.sqrt(np.add(scale * scale, np.multiply(xi, xi, out=Z), out=Z), out=Z)
        return np.divide(xi, Z, out=Z)
    if kind is ImpedanceKind.PLASMA_APPROX:
        return np.divide(xi, scale, out=Z)
    if kind is ImpedanceKind.NORMAL_SKIN:
        return np.sqrt(np.divide(xi, 4.0 * np.pi * scale, out=Z), out=Z)
    raise ValueError(f"unknown impedance kind {kind!r}")  # pragma: no cover


def _check_points(xi, Z=None, y=None) -> None:
    """Check xi >= 0 and, with y, Z >= 0, y >= 0 and y >= xi, in that order.
    A NaN fails no check, as it fails no comparison."""
    checks = [(xi, 0.0, "reduced frequency xi must be >= 0")]
    if y is not None:
        checks += [
            (Z, 0.0, "impedance must be >= 0 on the imaginary axis"),
            (y, 0.0, "reduced variables must be >= 0"),
            (y, xi, "domain requires y >= xi"),
        ]
    for v, bound, message in checks:
        if np.less(v, bound).any():
            raise ValueError(message)


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
    _check_points(xi)
    out = np.zeros(xi.shape) if scale is None else _impedance(kind, xi, scale)
    return float(out) if out.ndim == 0 else out


def _ratios(num, *dens):
    """num/den written into each den, 0 where num is (the 0/0 corners), unless
    the least num is positive (fmin skips a NaN, which the mask leaves)."""
    with np.errstate(invalid="ignore"):
        for den in dens:
            np.divide(num, den, out=den)
    if not np.fmin.reduce(num, axis=None, initial=np.inf) > 0.0:
        zero = num == 0.0
        for den in dens:
            den[zero] = 0.0
    return dens


def _factors(Z, y, xi, formalism: Formalism):
    """(x_par, x_perp) at checked points, each step written into new arrays,
    a broadcast y first spread into x_perp."""
    shape = np.broadcast_shapes(Z.shape, y.shape, xi.shape)
    num, x_par, x_perp = np.empty(shape), np.empty(shape), np.empty(shape)
    if y.shape != shape:
        # A broadcast operand sends a ufunc through a 64 KiB buffer, row by
        # row: y, a column in the wedge, waits in x_perp for its own product.
        np.copyto(x_perp, y)
        y = x_perp
    if formalism is Formalism.IMPEDANCE:
        # num = 4 xi y Z; x_par = (y + xi Z)^2; x_perp = (xi + y Z)^2.
        np.multiply(np.multiply(np.multiply(4.0, xi, out=num), y, out=num), Z, out=num)
        np.square(np.add(y, np.multiply(xi, Z, out=x_par), out=x_par), out=x_par)
        np.square(np.add(xi, np.multiply(y, Z, out=x_perp), out=x_perp), out=x_perp)
        return _ratios(num, x_par, x_perp)
    if formalism is Formalism.LIFSHITZ:
        # s = sqrt(xi^2 + (y^2 - xi^2) Z^2), xi^2 in num, y^2 and Z^2 in x_par.
        s = np.empty(shape)
        xi2 = np.square(xi, out=num)
        np.subtract(np.square(y, out=x_par), xi2, out=s)
        np.multiply(s, np.square(Z, out=x_par), out=s)
        np.sqrt(np.add(xi2, s, out=s), out=s)
        # num = 4 y Z s; x_par = (y + Z s)^2; x_perp = (y Z + s)^2.
        np.multiply(np.multiply(np.multiply(4.0, y, out=num), Z, out=num), s, out=num)
        np.square(np.add(y, np.multiply(Z, s, out=x_par), out=x_par), out=x_par)
        np.square(np.add(np.multiply(y, Z, out=x_perp), s, out=x_perp), out=x_perp)
        return _ratios(num, x_par, x_perp)
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
    _check_points(xi, Z, y)
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
        return zeros, *_ratios(4.0 * y * q, np.asarray(np.square(y + q)))
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

    The points are not checked: the rules build each inside 0 <= xi <= y,
    where every Z is >= 0.  Each call computes Z once per kind.  Every model
    gets factor arrays of its own, which the caller may overwrite.  The
    ideal metal's are zeros of y's shape, so a bracket of them is computed
    once per value of y.  With ``static=True`` points at xi = 0 take the
    static factors.
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
        Zs = [None if s is None else _impedance(kind, xi, s) for kind, s in zip(kinds, scales)]
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
                out.append((np.zeros(y.shape), np.zeros(y.shape)))
                continue
            x_par, x_perp = _factors(Zs[k], y, xi, model.formalism)
            if at:
                x_par[at], x_perp[at] = _static_factors(
                    model, np.broadcast_to(y, x_par.shape)[at], scales[k]
                )
            out.append((x_par, x_perp))
        return out

    return factors
