"""Sweep of the Matsubara plate sums over the dimensionless plane.

Not collected by pytest (like ``series_fit.py``); run it as

    PYTHONPATH=src python tests/matsubara_stop_sweep.py

A plate sum depends on the separation only through w_p = 2 a omega_p / c
(plasma kinds) or sigma_r (normal skin), and on the temperature only through
the Matsubara step xi_1 = 2 pi T / T_eff.  So a grid of separations for one
material and of steps covers every material and temperature.  For each
(kind, formalism, w_p or sigma_r, step, observable, rel_tol) the script runs
``finite_temperature._matsubara_correction`` and prints:

- ``err/est``: |value - ref| over ``abs_error_estimate`` plus the error of
  ref, the primed sum to xi = 80 of terms integrated at rel_tol 1e-13,
  whichever way the sum ended;
- ``tail/B``: where the value equals a primed partial sum S_L of the terms
  at the sum's rel_tol, as that of a sum that stopped on the ideal metal's
  bound does, the true tail past the first such L (the same terms summed
  to xi = 80) over B(L); ``-`` where the sum ended on its Euler-Maclaurin
  tail (whose value may also equal an S_L far down the terms, where B(L)
  bounds the tail all the same);
- its integrand points next to those of the former rule on the same terms,
  the two paths that the one rule replaced: from step 0.19 up term by term
  on the bound, to the L that the ideal metal's sum demands and, if no
  partial sum met its target there, to the L that the last one demands;
  below it a head of 32 terms plus the Euler-Maclaurin tail, converged
  only if its truncation is within rel_tol of the sum.

It ends with the worst case of each column, the unconverged sums of the
former rule and of this one per (rel_tol, step), and the cases that failed
a gate: not converged where the former rule converged, tail/B > 1,
err/est > 1, or at rel_tol 1e-9 more points than the former rule plus,
where the former rule summed more than ``_HEAD`` terms, one first pass of
the tail (the head's terms and the wedge's first level; 16,911 points for
a plasma sum).  Last it takes every grid point that has both sums once
more as one (energy, force) row, one reduction, and counts the results that
differ from the two sums taken alone; any is a failure.
``tests/test_finite_temperature.py`` runs a stratified slice of the grid.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from casimir_impedance import ALUMINUM, Formalism, ImpedanceKind, ImpedanceModel
from casimir_impedance import QuadratureConfig, QuadratureResult, effective_temperature
from casimir_impedance import finite_temperature, quadrature
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
STEPS = (0.005, 0.03, 0.1, 0.19, 0.3, 0.5, 1.0, 1.65, 5.0, 15.0, 40.0)
REL_TOLS = (1e-6, 1e-9, 1e-12)
KINDS = (ObservableKind.ENERGY_PER_AREA, ObservableKind.FORCE_PER_AREA)
REF_CONFIG = QuadratureConfig(rel_tol=1e-13)
# The former rule: below this step a head of FORMER_HEAD terms and the tail,
# from it up the ideal metal's sum to the k = FORMER_IDEAL_K term.
FORMER_TAIL_STEP = 0.19
FORMER_HEAD = 32
FORMER_IDEAL_K = 64


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
    tail_over_bound: float | None
    err_over_estimate: float
    points: int
    allowed_points: int
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


def _request(case: Case):
    return ((case.observable, ImpedanceModel(case.kind, case.formalism)),)


def _terms(case: Case, step: float, config: QuadratureConfig):
    """The primed sum's terms to xi = 80, and at least 40 of them, from the
    sum's own integrand, as ``_integrate_y_batch`` returns them: values,
    errors, points, flags."""
    g = _integrand(_request(case), case.a, ALUMINUM, ideal=False, static=True)
    lowers = step * np.arange(max(math.ceil(80.0 / step) + 1, 40))
    return [col[0] for col in finite_temperature._integrate_y_batch(g, lowers, config)]


@functools.lru_cache(maxsize=None)
def _reference(case: Case, step: float) -> tuple[float, float]:
    """The primed sum to xi = 80 of the terms at rel_tol 1e-13, and its error;
    ``case`` at that rel_tol, so that every rel_tol shares it."""
    f, errs, _, _ = _terms(case, step, REF_CONFIG)
    return _primed(f), math.fsum(errs.tolist())


def _primed(f) -> float:
    return math.fsum([0.5 * f[0], *f[1:].tolist()])


def _ideal_total(n: int, step: float) -> float:
    """The ideal metal's sum S'_l b(xi_l) as the former rule took it: b(0) / 2
    = n! zeta(n + 1), the l >= 1 terms summed in closed form for each k of
    their k series up to ``FORMER_IDEAL_K``."""
    k = np.arange(1, FORMER_IDEAL_K + 1)
    q, g = np.exp(-k * step), -1.0 / np.expm1(-k * step)
    moments = (
        g,
        step * g + step * q * g**2,
        step * step * g + 2.0 * step * step * q * g**2 + step**2 * q * (1.0 + q) * g**3,
    )
    p = sum(math.factorial(n) // math.factorial(j) * moments[j] / k ** (n + 1 - j)
            for j in range(n + 1))
    head = (math.pi**2 / 6.0, 2.0 * quadrature._ZETA_3)[n - 1]
    return head + (2.0 * np.exp(-k * step) * p).sum()


def _former(case: Case, step: float, terms, config: QuadratureConfig):
    """The former rule on ``terms``: its value, estimate, convergence, points
    and the number of terms it summed."""
    f, errs, evals, conv = terms
    tol = config.rel_tol
    if step < FORMER_TAIL_STEP:
        head = FORMER_HEAD
        g = _integrand(_request(case), case.a, ALUMINUM, ideal=False)
        (wedge,) = finite_temperature.integrate_xi_y(g, config, lower=step * head)
        around = f[head - 3:head + 4]
        d1 = float(finite_temperature._D1 @ around)
        d3 = float(finite_temperature._D3 @ around)
        last = float(finite_temperature._D5 @ around) / 30240.0
        truncation = abs(last) + abs(float(finite_temperature._D1_GAP @ around)) / 12.0
        truncation += abs(float(finite_temperature._D3_GAP @ around)) / 720.0
        value = math.fsum([0.5 * f[0], *f[1:head].tolist(), wedge.value / step,
                           0.5 * f[head], -d1 / 12.0, d3 / 720.0, -last])
        n = head + 4
        ok = wedge.converged and truncation <= tol * abs(value)
        estimate = truncation + wedge.abs_error_estimate / step + math.fsum(errs[:n].tolist())
        points = n + int(evals[:n].sum()) + wedge.evaluations
        return value, estimate, bool(ok and conv[:n].all()), points, n
    n_pow = 1 if case.observable is ObservableKind.ENERGY_PER_AREA else 2
    total = _ideal_total(n_pow, step)
    for _ in range(2):
        target = quadrature._target(total, total, 0.5 * tol)
        L = max(1, finite_temperature._stop(n_pow, step, target, f.size - 1))
        partial = np.cumsum(f[:L + 1]) - 0.5 * f[0]
        bounds = finite_temperature._tail_bound(n_pow, step, np.arange(L + 1))
        passed = np.flatnonzero(bounds <= quadrature._target(partial, partial, 0.5 * tol))
        total = partial[-1]
        if passed.size:
            break
    n = passed[0] + 1 if passed.size else L + 1
    value = math.fsum([0.5 * f[0], *f[1:n].tolist()])
    estimate = float(bounds[n - 1]) + quadrature._ROUNDOFF * abs(value)
    estimate += math.fsum(errs[:n].tolist())
    points = L + 1 + int(evals[:L + 1].sum())
    return value, estimate, bool(passed.size and conv[:n].all()), points, n


def _sums(case: Case, observables) -> list[QuadratureResult]:
    """The sums of ``observables`` at case's grid point, one reduction."""
    T = case.step * effective_temperature(case.a) / (2.0 * math.pi)
    model = ImpedanceModel(case.kind, case.formalism)
    requests = tuple((observable, model) for observable in observables)
    config = QuadratureConfig(rel_tol=case.rel_tol)
    return finite_temperature._matsubara_correction(case.a, T, requests, ALUMINUM, config)


def _stop_on_bound(f, value: float) -> int | None:
    """The L whose primed partial sum of ``f`` is ``value``, or None."""
    partial = np.cumsum(f) - 0.5 * f[0]
    for L in np.flatnonzero(np.abs(partial - value) <= 1e-12 * abs(value)).tolist():
        if math.fsum([0.5 * f[0], *f[1:L + 1].tolist()]) == value:
            return L
    return None


def run(case: Case) -> Outcome:
    config = QuadratureConfig(rel_tol=case.rel_tol)
    T = case.step * effective_temperature(case.a) / (2.0 * math.pi)
    # The step as the sum computes it, which may differ from case.step by
    # an ulp.
    step = 2.0 * math.pi * (1.0 / finite_temperature._t(case.a, T))
    (res,) = _sums(case, (case.observable,))
    terms = _terms(case, step, config)
    f, _, evals, _ = terms
    L = _stop_on_bound(f, res.value)
    tail_over_bound = None
    if L is not None:
        n_pow = 1 if case.observable is ObservableKind.ENERGY_PER_AREA else 2
        bound = float(finite_temperature._tail_bound(n_pow, step, L))
        tail_over_bound = _ratio(math.fsum(f[L + 1:].tolist()), bound)
    ref, ref_err = _reference(replace(case, rel_tol=REF_CONFIG.rel_tol), step)
    value, estimate, converged, points, summed = _former(case, step, terms, config)
    head = finite_temperature._HEAD
    first_pass = head + 4 + int(evals[:head + 4].sum())
    first_pass += quadrature._first_pass_points(quadrature._WEDGE_T_LO).size
    return Outcome(
        result=res,
        converged=res.converged,
        tail_over_bound=tail_over_bound,
        err_over_estimate=_ratio(abs(res.value - ref), res.abs_error_estimate + ref_err),
        points=res.evaluations,
        allowed_points=points + (first_pass if summed > head else 0),
        former_converged=converged,
        former_err_over_estimate=_ratio(abs(value - ref), estimate + ref_err),
        former_points=points,
    )


def _ratio(x: float, y: float) -> float:
    return x / y if y > 0.0 else (0.0 if x == 0.0 else math.inf)


def failures(case: Case, out: Outcome) -> list[str]:
    """The gates a case fails."""
    bad = []
    if out.former_converged and not out.converged:
        bad.append("not converged where the former rule converged")
    if out.tail_over_bound is not None and out.tail_over_bound > 1.0:
        bad.append("tail above its bound")
    if out.err_over_estimate > 1.0:
        bad.append("error above its estimate")
    if case.rel_tol == 1e-9 and out.points > out.allowed_points:
        bad.append("more points than the former rule and one tail pass")
    return bad


def main() -> int:
    worst = {"tail/B": (0.0, None), "err/est": (0.0, None), "points/former": (0.0, None)}
    failed, singles = [], {}
    unconverged = {"former": Counter(), "one rule": Counter()}
    total = former = 0
    for case in cases():
        out = run(case)
        point = (case.kind, case.formalism, case.a, case.step, case.rel_tol)
        singles.setdefault(point, (case, {}))[1][case.observable] = out.result
        ratio = out.points / out.former_points
        tail = "-" if out.tail_over_bound is None else f"{out.tail_over_bound:.6f}"
        print(
            f"{case.label()}  tail/B {tail:8s}  "
            f"err/est {out.err_over_estimate:.6f} (former {out.former_err_over_estimate:.6f})  "
            f"points {out.points:7d} (former {out.former_points:7d})"
            f"{'' if out.converged else '  UNCONVERGED'}"
            f"{'' if out.former_converged else ' (former UNCONVERGED)'}"
        )
        for key, value in (("tail/B", out.tail_over_bound or 0.0),
                           ("err/est", out.err_over_estimate), ("points/former", ratio)):
            if value > worst[key][0]:
                worst[key] = (value, case)
        unconverged["former"][case.rel_tol, case.step] += not out.former_converged
        unconverged["one rule"][case.rel_tol, case.step] += not out.converged
        if case.rel_tol == 1e-9:
            total, former = total + out.points, former + out.former_points
        failed += [(case, why) for why in failures(case, out)]
    print("\nworst cases:")
    for key, (value, case) in worst.items():
        print(f"  {key:14s} {value:.6g}  {case.label()}")
    print(f"points at rel_tol 1e-9: {total} against {former} for the former rule")
    print("unconverged sums, former rule -> one rule:")
    for rel_tol in REL_TOLS:
        counts = [f"{step:g}: {unconverged['former'][rel_tol, step]} -> "
                  f"{unconverged['one rule'][rel_tol, step]}" for step in STEPS]
        print(f"  tol={rel_tol:g}  " + ", ".join(counts))
    print(f"  all: {sum(unconverged['former'].values())} -> "
          f"{sum(unconverged['one rule'].values())}")
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
