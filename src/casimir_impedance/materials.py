"""Metal parameters: plasma frequency, relaxation frequency, derived scales."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .constants import CODATA

__all__ = ["Material", "ALUMINUM", "PRESETS", "load_material"]


@dataclass(frozen=True)
class Material:
    """Drude-type metal described by plasma and relaxation frequencies.

    Both frequencies are angular (rad/s).  The static conductivity is the
    Gaussian-unit combination sigma = omega_p^2 / (4 pi gamma), itself in
    rad/s, and delta_0 = c / omega_p is the zero-frequency skin depth of the
    collisionless plasma.
    """

    omega_p: float
    gamma: float
    name: str = ""
    sigma: float = field(init=False)
    delta_0: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.omega_p > 0.0):
            raise ValueError(f"omega_p must be positive, got {self.omega_p!r}")
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        if self.gamma >= self.omega_p:
            raise ValueError(
                "gamma must be below omega_p for a metal: "
                f"gamma={self.gamma!r}, omega_p={self.omega_p!r}"
            )
        object.__setattr__(self, "sigma", self.omega_p**2 / (4.0 * math.pi * self.gamma))
        object.__setattr__(self, "delta_0", CODATA.c / self.omega_p)


# Aluminum preset used throughout the validation suite.
ALUMINUM = Material(omega_p=1.9e16, gamma=9.6e13, name="Al")

PRESETS: dict[str, Material] = {"Al": ALUMINUM}

# Recognized keys of a material parameter file.
_FILE_KEYS = {"omega_p_rad_s", "gamma_rad_s", "name"}


def load_material(path: str | Path) -> Material:
    """Read a material from a plain-text ``key=value`` file.

    Required keys: ``omega_p_rad_s`` and ``gamma_rad_s``.  An optional
    ``name`` labels the material in output provenance.  Unknown keys are an
    error rather than being silently ignored.
    """
    path = Path(path)
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FILE_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    for required in ("omega_p_rad_s", "gamma_rad_s"):
        if required not in values:
            raise ValueError(f"{path}: missing required key {required!r}")
    return Material(
        omega_p=float(values["omega_p_rad_s"]),
        gamma=float(values["gamma_rad_s"]),
        name=values.get("name", path.stem),
    )
