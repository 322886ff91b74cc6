"""Power series of the zero-temperature force in the penetration depth.

For small d = delta_0 / a the plate force admits the expansion

    F(a) = F0(a) * [c0 + c1 d + c2 d^2 + c3 d^3 + c4 d^4 + ...]

around the ideal value F0 = -pi^2 hbar c / (240 a^4).  Three coefficient
families are provided.  They share c0 = 1, c1 = -16/3, c2 = 24 and differ
from third order on:

    LifshitzPlasma   c3 = -(640/7)(1 - pi^2/210)     c4 = (2800/9)(1 - 163 pi^2/7350)
    ImpedanceExact   c3 = -(640/7)(1 + pi^2/280)     c4 = (2800/9)(1 + 5 pi^2/294)
    ImpedanceApprox  c3 = -(11520/(7 pi^4)) [zeta(3) + zeta(5)/8]
                     c4 = (14000/(3 pi^4)) [zeta(3) + zeta(5)/2]

All are stored as closed forms, not rounded decimals.  ImpedanceExact belongs
to the plasma impedance evaluated with its exact frequency dependence and
LifshitzPlasma to the permittivity route.  ImpedanceApprox holds the
published coefficients quoted for the constant low-frequency impedance
Z = xi / w_p; they are NOT the series of that model.  Expanding its force
termwise in delta_0/a gives instead

    Z = xi / w_p     c3 = -(640/7)(1 + pi^2/84)      c4 = (2800/9)(1 + pi^2/21)

(about -102.171 and 457.327); a fit to direct quadrature of that model lands
within 2% of this c3 (see README).  The published set is kept because the comparison curves in the
validation suite are drawn from it.

``series_force`` evaluates the quartic polynomial times F0, refusing
delta_0/a >= 0.3 and warning above 0.1.  The closed forms are checked against
the quadrature engine by least-squares fits of sampled force ratios in the
test suite (acceptance check C4) and in ``demos/series_coefficients.py``.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .materials import Material
from .quadrature import _ZETA_3, _ZETA_5
from .zero_temperature import ideal_closed_forms

__all__ = ["CoefficientVariant", "CoefficientSet", "coefficients", "series_force"]

# Beyond this ratio the quartic polynomial is meaningless.
_SERIES_RATIO_MAX = 0.3
# Above this the truncation error is no longer small; warn but proceed.
_SERIES_RATIO_WARN = 0.1


class CoefficientVariant(enum.Enum):
    """Which closed-form coefficient family the series uses."""

    LIFSHITZ_PLASMA = "lifshitz-plasma"
    IMPEDANCE_EXACT = "impedance-exact"
    IMPEDANCE_APPROX = "impedance-approx"


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients c0..c4 of the force series for one variant."""

    variant: CoefficientVariant
    c: tuple[float, float, float, float, float]


def coefficients(variant: CoefficientVariant) -> CoefficientSet:
    """Exact closed-form series coefficients for the requested variant.

    ``IMPEDANCE_APPROX`` returns the published coefficients, not the series
    of Z = xi / w_p, whose c3 and c4 are the closed forms in the module
    docstring.
    """
    c0, c1, c2 = 1.0, -16.0 / 3.0, 24.0
    pi2 = math.pi**2
    if variant is CoefficientVariant.LIFSHITZ_PLASMA:
        c3 = -640.0 / 7.0 * (1.0 - pi2 / 210.0)
        c4 = 2800.0 / 9.0 * (1.0 - 163.0 * pi2 / 7350.0)
    elif variant is CoefficientVariant.IMPEDANCE_EXACT:
        c3 = -640.0 / 7.0 * (1.0 + pi2 / 280.0)
        c4 = 2800.0 / 9.0 * (1.0 + 5.0 * pi2 / 294.0)
    elif variant is CoefficientVariant.IMPEDANCE_APPROX:
        z3, z5 = _ZETA_3, _ZETA_5
        c3 = -11520.0 / (7.0 * math.pi**4) * (z3 + z5 / 8.0)
        c4 = 14000.0 / (3.0 * math.pi**4) * (z3 + z5 / 2.0)
    else:
        raise ValueError(f"unknown coefficient variant: {variant!r}")
    return CoefficientSet(variant=variant, c=(c0, c1, c2, c3, c4))


def _series_factor(d: float, variant: CoefficientVariant) -> float:
    """Quartic polynomial factor F/F0 at d = delta_0/a."""
    if not (0.0 <= d < _SERIES_RATIO_MAX):
        raise ValueError(
            f"delta_0/a = {d:.3g} is outside the series domain [0, {_SERIES_RATIO_MAX})"
        )
    if d > _SERIES_RATIO_WARN:
        warnings.warn(
            f"delta_0/a = {d:.3g} exceeds {_SERIES_RATIO_WARN}; the truncated "
            "series is only qualitative here",
            # Past series_force, to its caller.
            stacklevel=3,
        )
    c = coefficients(variant).c
    return float(np.polynomial.polynomial.polyval(d, c))


def series_force(a: float, material: Material, variant: CoefficientVariant) -> float:
    """Quartic series approximation to the zero-T plate pressure, in Pa."""
    f0 = ideal_closed_forms(a)[1]
    return f0 * _series_factor(material.delta_0 / a, variant)
