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


def _require_material(kind: ImpedanceKind, material: Material | None) -> Material:
    if material is None:
        raise ValueError(f"impedance kind {kind.value!r} requires a material")
    return material


def impedance(
    kind: ImpedanceKind | ImpedanceModel,
    xi,
    a,
    material: Material | None = None,
):
    """Surface impedance Z at reduced imaginary frequency xi for gap width a.

    Vectorized over xi and over gap widths a that broadcast against it.  The
    reduced plasma frequency is w_p = 2 a omega_p / c and the reduced
    conductivity sigma_r = 2 a sigma / c, so that

    * ideal metal:   Z = 0
    * exact plasma:  Z = xi / sqrt(w_p^2 + xi^2)
    * approximate:   Z = xi / w_p          (infrared range xi << w_p)
    * normal skin:   Z = sqrt(xi / (4 pi sigma_r))

    The approximate plasma form is evaluated as written for every xi; beyond
    xi ~ w_p it exceeds its validity range (and eventually 1), which is
    precisely the defect probed by comparing it with the exact form.
    """
    if isinstance(kind, ImpedanceModel):
        kind = kind.kind
    a = np.asarray(a, dtype=float)
    bad = ~(a > 0.0)
    if bad.any():
        raise ValueError(f"separation must be positive, got {float(a[bad][0])!r}")
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0.0):
        raise ValueError("reduced frequency xi must be >= 0")

    if kind is ImpedanceKind.IDEAL_METAL:
        out = np.zeros(np.broadcast(xi, a).shape)
    elif kind is ImpedanceKind.PLASMA_EXACT:
        m = _require_material(kind, material)
        w_p = 2.0 * a * m.omega_p / CODATA.c
        out = xi / np.sqrt(w_p * w_p + xi * xi)
    elif kind is ImpedanceKind.PLASMA_APPROX:
        m = _require_material(kind, material)
        w_p = 2.0 * a * m.omega_p / CODATA.c
        out = xi / w_p
    elif kind is ImpedanceKind.NORMAL_SKIN:
        m = _require_material(kind, material)
        sigma_r = 2.0 * a * m.sigma / CODATA.c
        out = np.sqrt(xi / (4.0 * np.pi * sigma_r))
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown impedance kind {kind!r}")
    return float(out) if out.ndim == 0 else out


def _guarded_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den with the 0/0 corners resolved to 0 (vanishing numerator wins)."""
    out = np.zeros(np.broadcast(num, den).shape)
    mask = num != 0.0
    if out.ndim == 0:
        return num / den if mask else out
    np.divide(num, den, out=out, where=mask)
    return out


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
    if np.any(Z < 0.0):
        raise ValueError("impedance must be >= 0 on the imaginary axis")
    if np.any(xi < 0.0) or np.any(y < 0.0):
        raise ValueError("reduced variables must be >= 0")
    if np.any(y < xi):
        raise ValueError("domain requires y >= xi")

    if formalism is Formalism.IMPEDANCE:
        num = 4.0 * xi * y * Z
        x_par = _guarded_ratio(num, np.square(y + xi * Z))
        x_perp = _guarded_ratio(num, np.square(xi + y * Z))
    elif formalism is Formalism.LIFSHITZ:
        s = np.sqrt(np.square(xi) + (np.square(y) - np.square(xi)) * np.square(Z))
        num = 4.0 * y * Z * s
        x_par = _guarded_ratio(num, np.square(y + Z * s))
        x_perp = _guarded_ratio(num, np.square(y * Z + s))
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown formalism {formalism!r}")

    if x_par.ndim == 0:
        return float(x_par), float(x_perp)
    return x_par, x_perp


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
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ValueError("reduced variable y must be >= 0")
    zeros = np.zeros_like(y)

    if model.kind in (ImpedanceKind.PLASMA_EXACT, ImpedanceKind.PLASMA_APPROX):
        m = _require_material(model.kind, material)
        w_p = 2.0 * a * m.omega_p / CODATA.c
        q = w_p if model.formalism is Formalism.IMPEDANCE else np.hypot(y, w_p)
        x_par = zeros
        x_perp = _guarded_ratio(4.0 * y * q, np.square(y + q))
    elif model.kind is ImpedanceKind.IDEAL_METAL or model.formalism is Formalism.IMPEDANCE:
        x_par, x_perp = zeros, zeros.copy()
    else:
        raise ValueError(
            "the zero-frequency reflection of a dissipative (normal-skin) metal "
            "is not defined under the permittivity formalism"
        )

    if x_par.ndim == 0:
        return float(x_par), float(x_perp)
    return x_par, x_perp
