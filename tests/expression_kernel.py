"""The plate integrand written as numpy expressions, one temporary per step.

A frozen reference for the package's in-place kernel: the impedance, the
reflection factors with a guarded ratio, the static factors and both
brackets as expressions, and ``plate_integrand``, which assembles them as
``zero_temperature._integrand`` does, with no point checks, as the kernel
makes none.  Every operation is the kernel's, in the kernel's order, so the
two agree bit for bit; an in-place step that reorders one operation shows
up as a differing bit.  Only the model's scale comes from the package.  Not
collected by pytest; the tests and ``kernel_timing.py`` import it.
"""

from __future__ import annotations

import numpy as np

from casimir_impedance import Formalism, ImpedanceKind, log1mexp
from casimir_impedance.reflection import _scale
from casimir_impedance.zero_temperature import ObservableKind


def impedance(kind, xi, scale):
    if kind is ImpedanceKind.PLASMA_EXACT:
        return xi / np.sqrt(scale * scale + xi * xi)
    if kind is ImpedanceKind.PLASMA_APPROX:
        return xi / scale
    return np.sqrt(xi / (4.0 * np.pi * scale))


def guarded_ratio(num, den):
    """num/den with the 0/0 corners resolved to 0 (vanishing numerator wins)."""
    out = np.zeros(np.broadcast(num, den).shape)
    mask = num != 0.0
    if out.ndim == 0:
        return num / den if mask else out
    np.divide(num, den, out=out, where=mask)
    return out


def factors(Z, y, xi, formalism):
    if formalism is Formalism.IMPEDANCE:
        num = 4.0 * xi * y * Z
        return guarded_ratio(num, np.square(y + xi * Z)), guarded_ratio(num, np.square(xi + y * Z))
    s = np.sqrt(np.square(xi) + (np.square(y) - np.square(xi)) * np.square(Z))
    num = 4.0 * y * Z * s
    return guarded_ratio(num, np.square(y + Z * s)), guarded_ratio(num, np.square(y * Z + s))


def static_factors(model, y, scale):
    zeros = np.zeros_like(y)
    if model.kind in (ImpedanceKind.PLASMA_EXACT, ImpedanceKind.PLASMA_APPROX):
        q = scale if model.formalism is Formalism.IMPEDANCE else np.hypot(y, scale)
        return zeros, guarded_ratio(4.0 * y * q, np.square(y + q))
    if model.kind is ImpedanceKind.IDEAL_METAL or model.formalism is Formalism.IMPEDANCE:
        return zeros, zeros.copy()
    raise ValueError("no static limit")


def energy_bracket(x_par, x_perp, y, ideal=True):
    em1 = np.expm1(y)
    logs = np.log1p(x_par / em1)
    if ideal:
        logs = 2.0 * log1mexp(y) + logs
    return logs + np.log1p(x_perp / em1)


def force_bracket(x_par, x_perp, y):
    em1 = np.expm1(y)
    return (1.0 - x_par) / (em1 + x_par) + (1.0 - x_perp) / (em1 + x_perp)


def plate_integrand(requests, a, material, ideal=True, static=False):
    """g(xi, y) -> one array per (ObservableKind, model) request, as
    ``zero_temperature._integrand`` builds it, from the expressions above."""
    models = list(dict.fromkeys(model for _, model in requests))
    kinds = list(dict.fromkeys(model.kind for model in models))
    scales = [_scale(kind, a, material) for kind in kinds]
    static = static and any(scale is not None for scale in scales)

    def g(xi, y):
        Zs = [0.0 if s is None else impedance(kind, xi, s) for kind, s in zip(kinds, scales)]
        at = ()
        if static:
            zero = xi == 0.0
            if zero.any():
                at = tuple(
                    i if n > 1 else slice(None) for i, n in zip(np.nonzero(zero), zero.shape)
                )
        fs = {}
        for model in models:
            k = kinds.index(model.kind)
            if scales[k] is None:
                fs[model] = (0.0, 0.0)
                continue
            x_par, x_perp = factors(Zs[k], y, xi, model.formalism)
            if at:
                x_par[at], x_perp[at] = static_factors(
                    model, np.broadcast_to(y, x_par.shape)[at], scales[k]
                )
            fs[model] = (x_par, x_perp)
        return tuple(
            y * energy_bracket(*fs[model], y, ideal)
            if kind is ObservableKind.ENERGY_PER_AREA
            else y * y * force_bracket(*fs[model], y)
            for kind, model in requests
        )

    return g
