"""Least-squares recovery of the force series coefficients from samples.

Acceptance check C4 and ``test_series`` use it to check the closed-form
coefficients of :mod:`casimir_impedance.series` against the quadrature
engine: sample F/F0 deep in the asymptotic regime and fit the polynomial in
delta_0/a, reporting how well conditioned the fit was.
"""

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from casimir_impedance import Material

# Fits are only accepted deep in the asymptotic regime.
FIT_RATIO_MAX = 0.05
FIT_CONDITION_LIMIT = 1e10


@dataclass(frozen=True)
class CoefficientFit:
    """Least-squares estimate of series coefficients from force samples.

    ``sensitivity[k]`` bounds the change of ``estimates[k]`` per unit 2-norm
    perturbation of the sampled ratios; ``condition_number`` is that of the
    scaled Vandermonde matrix actually solved.
    """

    order: int
    estimates: tuple[float, ...]
    condition_number: float
    sensitivity: tuple[float, ...]
    residual_norm: float


def recover_coefficients(
    samples: Sequence[tuple[float, float]],
    material: Material,
    order: int = 4,
) -> CoefficientFit:
    """Fit c0..c_order from (separation, force/F0 ratio) samples.

    The fit runs on the scaled variable x/x_max, where x = delta_0/a, which
    keeps the Vandermonde condition number moderate over a decade of x.
    Conditioning above 1e10 is reported with a warning, not an error.
    """
    if not (0 <= order <= 4):
        raise ValueError(f"series order must lie in 0..4, got {order!r}")
    if len(samples) < order + 2:
        raise ValueError(
            f"need at least order + 2 = {order + 2} samples, got {len(samples)}"
        )
    a_vals = np.asarray([s[0] for s in samples], dtype=float)
    ratios = np.asarray([s[1] for s in samples], dtype=float)
    if np.any(a_vals <= 0.0):
        raise ValueError("all separations must be positive")
    x = material.delta_0 / a_vals
    if np.max(x) >= FIT_RATIO_MAX:
        raise ValueError(
            f"samples must stay below delta_0/a = {FIT_RATIO_MAX}; "
            f"largest is {np.max(x):.3g}"
        )
    if np.max(x) / np.min(x) < 10.0:
        raise ValueError("samples must span at least a decade in delta_0/a")

    x_max = float(np.max(x))
    V = np.vander(x / x_max, N=order + 1, increasing=True)
    beta = np.linalg.lstsq(V, ratios, rcond=None)[0]
    cond = float(np.linalg.cond(V))
    if cond > FIT_CONDITION_LIMIT:
        warnings.warn(
            f"Vandermonde condition number {cond:.3g} exceeds "
            f"{FIT_CONDITION_LIMIT:.0e}; coefficient estimates are unreliable",
            stacklevel=2,
        )
    scale = x_max ** np.arange(order + 1)
    estimates = beta / scale
    pinv = np.linalg.pinv(V)
    sens = np.linalg.norm(pinv, axis=1) / scale
    fitted = V @ beta
    return CoefficientFit(
        order=order,
        estimates=tuple(float(b) for b in estimates),
        condition_number=cond,
        sensitivity=tuple(float(s) for s in sens),
        residual_norm=float(np.linalg.norm(ratios - fitted)),
    )
