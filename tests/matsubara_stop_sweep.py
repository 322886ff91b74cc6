"""Sweep of the term-by-term Matsubara sums over the dimensionless plane.

Not collected by pytest (like ``series_fit.py``); run it as

    PYTHONPATH=src python tests/matsubara_stop_sweep.py

A plate sum depends on the separation only through w_p = 2 a omega_p / c
(plasma kinds) or sigma_r (normal skin), and on the temperature only through
the Matsubara step xi_1 = 2 pi T / T_eff.  So a grid of separations for one
material and of steps covers every material and temperature.  For each
(kind, formalism, w_p or sigma_r, step, observable, rel_tol) the script runs
``finite_temperature._matsubara_correction`` and prints:

- ``tail/B``: the true tail past the stop L, the same terms summed to
  xi = 80, over the reported truncation B(L);
- ``err/est``: |value - ref| over ``abs_error_estimate``, ref the primed sum
  to xi = 80 of terms integrated at rel_tol 1e-13;
- its integrand points next to those of the former stop on the same terms:
  from L = max(3, ceil(36 / step)) on, a geometric tail below 1e-12 of the
  sum, with the terms asked for in blocks (the first to that L, then 8, 16,
  32 and 64 at a time).

It ends with the worst case of each column and the cases that failed a
gate: not converged, tail/B > 1 or err/est > 1, or at rel_tol 1e-9 more
points than the former stop.  Last it takes every grid point that has both
sums once more as one (energy, force) row, one reduction, and counts the
results that differ from the two sums taken alone; any is a failure.
``tests/test_finite_temperature.py`` runs a stratified slice of the grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from casimir_impedance import ALUMINUM, Formalism, ImpedanceKind, ImpedanceModel
from casimir_impedance import QuadratureConfig, QuadratureResult, effective_temperature
from casimir_impedance import finite_temperature
from casimir_impedance.reflection import _scale
from casimir_impedance.zero_temperature import ObservableKind, _integrand

# Every (kind, formalism) pair that has a Matsubara sum at T > 0.
PAIRS = [
    (ImpedanceKind.IDEAL_METAL, Formalism.IMPEDANCE),
    (ImpedanceKind.PLASMA_EXACT, Formalism.IMPEDANCE),
    (ImpedanceKind.PLASMA_EXACT, Formalism.LIFSHITZ),
    (ImpedanceKind.PLASMA_APPROX, Formalism.IMPEDANCE),
    (ImpedanceKind.PLASMA_APPROX, Formalism.LIFSHITZ),
    (ImpedanceKind.NORMAL_SKIN, Formalism.IMPEDANCE),
]
# Separations for aluminum: w_p from 0.127 (1 nm) to 1,270 (10 um), with
# the plasma dips at 150 nm (w_p = 19) and 280 nm (35.5); sigma_r from 2e5
# (100 um) to 2e7 (1 cm).
PLASMA_A = (1e-9, 1e-8, 3e-8, 1e-7, 1.5e-7, 2.8e-7, 1e-6, 3e-6, 1e-5)
NORMAL_A = (1e-4, 1e-3, 3e-3, 1e-2)
STEPS = (0.19, 0.3, 0.5, 1.0, 1.65, 5.0, 15.0, 40.0)
REL_TOLS = (1e-6, 1e-9, 1e-12)
KINDS = (ObservableKind.ENERGY_PER_AREA, ObservableKind.FORCE_PER_AREA)
REF_CONFIG = QuadratureConfig(rel_tol=1e-13)


@dataclass(frozen=True)
class Case:
    kind: ImpedanceKind
    formalism: Formalism
    a: float
    step: float
    observable: ObservableKind
    rel_tol: float

    def label(self) -> str:
        scale = _scale(self.kind, self.a, ALUMINUM)
        if scale is None:
            name = "ideal"
        else:
            symbol = "sigma_r" if self.kind is ImpedanceKind.NORMAL_SKIN else "w_p"
            name = f"{symbol}={scale:.3g}"
        return (
            f"{self.kind.value:13s} {self.formalism.value:9s} {name:16s} "
            f"step={self.step:<5g} {self.observable.value[:6]:6s} tol={self.rel_tol:g}"
        )


@dataclass(frozen=True)
class Outcome:
    result: QuadratureResult
    converged: bool
    tail_over_bound: float
    err_over_estimate: float
    points: int
    former_converged: bool
    former_err_over_estimate: float
    former_points: int


def cases():
    """The whole grid, in a fixed order."""
    for kind, formalism in PAIRS:
        if kind is ImpedanceKind.IDEAL_METAL:
            separations = (1e-6,)
        elif kind is ImpedanceKind.NORMAL_SKIN:
            separations = NORMAL_A
        else:
            separations = PLASMA_A
        for a in separations:
            for step in STEPS:
                for observable in KINDS:
                    if kind is ImpedanceKind.IDEAL_METAL and observable is KINDS[0]:
                        continue  # the ideal energy is a closed series
                    for rel_tol in REL_TOLS:
                        yield Case(kind, formalism, a, step, observable, rel_tol)


def _terms(case: Case, step: float, config: QuadratureConfig):
    """The primed sum's terms to xi = 80, and at least 12 of them, from the
    sum's own integrand, as ``_integrate_y_batch`` returns them: values,
    errors, points, flags."""
    g = _integrand(
        ((case.observable, ImpedanceModel(case.kind, case.formalism)),),
        case.a, ALUMINUM, ideal=False, static=True,
    )
    lowers = step * np.arange(max(math.ceil(80.0 / step) + 1, 12))
    return [col[0] for col in finite_temperature._integrate_y_batch(g, lowers, config)]


def _primed(f) -> float:
    return math.fsum([0.5 * f[0], *f[1:].tolist()])


def _former(f, errs, evals, conv, step: float):
    """The former ratio stop on the terms ``f``: its value, estimate,
    convergence and points, every term of the blocks it asks for plus those
    terms."""
    first = max(3, math.ceil(36.0 / step))
    summed, prev, zeros, stop, tail = [0.5 * f[0]], 0.0, 0, None, 0.0
    for l in range(1, f.size):
        summed.append(f[l])
        mag = abs(f[l])
        if mag == 0.0:
            zeros += 1
            if zeros >= 2:
                stop, tail = l, 0.0
                break
            prev = 0.0
            continue
        zeros = 0
        if l >= first and prev > 0.0 and mag < prev:
            r = mag / prev
            tail = mag * r / (1.0 - r)
            if tail <= max(1e-12 * abs(math.fsum(summed)), 1e-300):
                stop = l
                break
        prev = mag
    if stop is None:
        raise RuntimeError("the former stop needs terms past xi = 80")
    handed, size = first + 1, 8
    while handed <= stop:
        handed, size = handed + size, min(2 * size, 64)
    handed = min(handed, f.size)
    estimate = tail + math.fsum(errs[:stop + 1].tolist())
    return (math.fsum(summed), estimate, bool(conv[:stop + 1].all()),
            handed + int(evals[:handed].sum()))


def _sums(case: Case, observables) -> list[QuadratureResult]:
    """The sums of ``observables`` at case's grid point, one reduction."""
    T = case.step * effective_temperature(case.a) / (2.0 * math.pi)
    model = ImpedanceModel(case.kind, case.formalism)
    requests = tuple((observable, model) for observable in observables)
    config = QuadratureConfig(rel_tol=case.rel_tol)
    return finite_temperature._matsubara_correction(case.a, T, requests, ALUMINUM, config)


def run(case: Case) -> Outcome:
    config = QuadratureConfig(rel_tol=case.rel_tol)
    T = case.step * effective_temperature(case.a) / (2.0 * math.pi)
    # The step as the sum computes it, which may differ from case.step by
    # an ulp.
    step = 2.0 * math.pi * (1.0 / finite_temperature._t(case.a, T))
    (res,) = _sums(case, (case.observable,))
    f, errs, evals, conv = _terms(case, step, config)
    # The stop L: the partial sum the result reports.
    partial = [_primed(f[:n]) for n in range(1, f.size + 1)]
    L = partial.index(res.value)
    n_pow = 1 if case.observable is ObservableKind.ENERGY_PER_AREA else 2
    bound = float(finite_temperature._tail_bound(n_pow, step, L))
    tail = math.fsum(f[L + 1:].tolist())
    ref = _primed(_terms(case, step, REF_CONFIG)[0])
    value, estimate, converged, points = _former(f, errs, evals, conv, step)
    return Outcome(
        result=res,
        converged=res.converged,
        tail_over_bound=_ratio(tail, bound),
        err_over_estimate=_ratio(abs(res.value - ref), res.abs_error_estimate),
        points=res.evaluations,
        former_converged=converged,
        former_err_over_estimate=_ratio(abs(value - ref), estimate),
        former_points=points,
    )


def _ratio(x: float, y: float) -> float:
    return x / y if y > 0.0 else (0.0 if x == 0.0 else math.inf)


def failures(case: Case, out: Outcome) -> list[str]:
    """The gates a case fails."""
    bad = []
    if not out.converged:
        bad.append("not converged")
    if out.tail_over_bound > 1.0:
        bad.append("tail above its bound")
    if out.err_over_estimate > 1.0:
        bad.append("error above its estimate")
    if case.rel_tol == 1e-9 and out.points > out.former_points:
        bad.append("more points than the former stop")
    return bad


def main() -> int:
    worst = {"tail/B": (0.0, None), "err/est": (0.0, None), "points/former": (0.0, None)}
    failed, singles = [], {}
    total = former = 0
    for case in cases():
        out = run(case)
        point = (case.kind, case.formalism, case.a, case.step, case.rel_tol)
        singles.setdefault(point, (case, {}))[1][case.observable] = out.result
        ratio = out.points / out.former_points
        print(
            f"{case.label()}  tail/B {out.tail_over_bound:.6f}  "
            f"err/est {out.err_over_estimate:.6f} (former {out.former_err_over_estimate:.6f})  "
            f"points {out.points:7d} (former {out.former_points:7d})"
            f"{'' if out.converged else '  UNCONVERGED'}"
            f"{'' if out.former_converged else ' (former UNCONVERGED)'}"
        )
        for key, value in (("tail/B", out.tail_over_bound),
                           ("err/est", out.err_over_estimate), ("points/former", ratio)):
            if value > worst[key][0]:
                worst[key] = (value, case)
        if case.rel_tol == 1e-9:
            total, former = total + out.points, former + out.former_points
        failed += [(case, why) for why in failures(case, out)]
    print("\nworst cases:")
    for key, (value, case) in worst.items():
        print(f"  {key:14s} {value:.6g}  {case.label()}")
    print(f"points at rel_tol 1e-9: {total} against {former} for the former stop")
    differ = 0
    for case, alone in singles.values():
        if len(alone) == len(KINDS):
            differ += sum(r != alone[kind] for r, kind in zip(_sums(case, KINDS), KINDS))
    print(f"(energy, force) rows: {differ} results differ from the sums taken alone")
    for case, why in failed:
        print(f"FAILED {case.label()}: {why}")
    return 1 if failed or differ else 0


if __name__ == "__main__":
    sys.exit(main())
