"""Geometry, the effective temperature of a gap, and the reduced variables.

All integrals are evaluated in reduced variables: frequencies are scaled as
xi = 2 a zeta / c and transverse quantities as y = 2 R a, where a is the gap.
Temperature enters through the effective temperature k_B T_eff = hbar c / (2a)
of the gap, as the ratio t = T_eff / T.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import CODATA

__all__ = ["Geometry", "effective_temperature"]

# Proximity treatment of the sphere is good to relative order a/R; past this
# ratio the leading-order mapping is no longer quantitatively trustworthy.
_PROXIMITY_RATIO_WARN = 0.01


def _check_length(name: str, value: float) -> None:
    """Raise unless 0 < value < inf; a NaN fails."""
    if not (0.0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {float(value)!r}")


@dataclass(frozen=True)
class Geometry:
    """Plate separation, optionally with a sphere radius above the plate."""

    separation: float
    sphere_radius: float | None = None

    def __post_init__(self) -> None:
        _check_length("separation", self.separation)
        if self.sphere_radius is not None:
            _check_length("sphere_radius", self.sphere_radius)
            ratio = self.separation / self.sphere_radius
            if ratio > _PROXIMITY_RATIO_WARN:
                warnings.warn(
                    f"separation/sphere_radius = {ratio:.3g} exceeds "
                    f"{_PROXIMITY_RATIO_WARN}; the sphere-plate mapping has an "
                    "error of this order",
                    # Past the __init__ that dataclasses generates, to its caller.
                    stacklevel=3,
                )


def effective_temperature(a: float) -> float:
    """Effective temperature of a gap of width a: k_B T_eff = hbar c / (2 a)."""
    _check_length("separation", a)
    return CODATA.hbar * CODATA.c / (2.0 * a * CODATA.k_B)
