"""Physical constants used throughout the package (SI units)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PhysicalConstants", "CODATA"]


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants, fixed at construction.

    Every computation reads the one instance, ``CODATA``, so that derived
    quantities (skin depth, effective temperature, reduced frequencies) stay
    mutually consistent.
    """

    hbar: float = 1.054571817e-34  # reduced Planck constant, J s
    c: float = 2.99792458e8        # speed of light in vacuum, m / s
    k_B: float = 1.380649e-23      # Boltzmann constant, J / K

    def __post_init__(self) -> None:
        for name in ("hbar", "c", "k_B"):
            value = getattr(self, name)
            if not (value > 0.0):
                raise ValueError(f"constant {name} must be positive, got {value!r}")


# Default 2018 CODATA values; hbar and c are exact in the SI.
CODATA = PhysicalConstants()
