"""Casimir energy and force between real metals.

The package computes the Casimir interaction of parallel metal plates (and a
sphere above a plate, through the proximity mapping) with the metal described
by its surface impedance on the imaginary frequency axis.  Three impedance
regimes are provided, infrared plasma in exact and constant-impedance form
plus the normal skin effect, along with the permittivity-based route for the
same physics, so the two descriptions can be compared quantitatively at zero
and finite temperature.
"""

from .constants import CODATA, PhysicalConstants
from .finite_temperature import (
    delta_T_energy_pert,
    delta_T_force_pert,
    energy_ppT,
    force_ppT,
    ideal_energy_T,
    sphere_plate_T,
)
from .geometry import Geometry, effective_temperature
from .materials import ALUMINUM, PRESETS, Material, load_material
from .quadrature import (
    DEFAULT_CONFIG,
    IntegrandError,
    QuadratureConfig,
    QuadratureResult,
    dilog,
    integrate_xi_y,
    log1mexp,
)
from .reflection import (
    Formalism,
    ImpedanceKind,
    ImpedanceModel,
    impedance,
    reflection_factors,
    static_reflection_factors,
)
from .series import CoefficientSet, CoefficientVariant, coefficients, series_force
from .zero_temperature import (
    Observable,
    ObservableKind,
    energy_pp0,
    force_pp0,
    force_sphere0,
    ideal_closed_forms,
    normal_skin_pert0,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CODATA",
    "PhysicalConstants",
    "Material",
    "ALUMINUM",
    "PRESETS",
    "load_material",
    "Geometry",
    "effective_temperature",
    "QuadratureConfig",
    "QuadratureResult",
    "DEFAULT_CONFIG",
    "IntegrandError",
    "integrate_xi_y",
    "log1mexp",
    "dilog",
    "Formalism",
    "ImpedanceKind",
    "ImpedanceModel",
    "impedance",
    "reflection_factors",
    "static_reflection_factors",
    "ObservableKind",
    "Observable",
    "ideal_closed_forms",
    "energy_pp0",
    "force_pp0",
    "force_sphere0",
    "normal_skin_pert0",
    "ideal_energy_T",
    "energy_ppT",
    "force_ppT",
    "sphere_plate_T",
    "delta_T_energy_pert",
    "delta_T_force_pert",
    "CoefficientVariant",
    "CoefficientSet",
    "coefficients",
    "series_force",
]
