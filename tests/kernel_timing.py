"""Timing of one plate-integrand call: the expression forms against the kernel.

Not collected by pytest (like ``matsubara_stop_sweep.py``); run it as

    PYTHONPATH=src python tests/kernel_timing.py [--repeats 9] [--calls 20]

For each (kind, formalism, observable) it builds the package's plate
integrand, ``zero_temperature._integrand``, and the same integrand written
as numpy expressions, ``expression_kernel.plate_integrand``, and calls both
on two shapes: the T = 0 wedge's first pass (99 rows of xi against a
column of y, 12,375 points) and a 36-term y-rule batch at step 0.37 (a
column of lower bounds against 125 nodes each, the l = 0 row with the
static factors).  The two forms take turns in one process, block by block,
so both see the same state of the host and of the heap.  Each row gives the
best time per call over ``--repeats`` blocks of ``--calls`` calls and the
minor page faults per call over all blocks (``resource.getrusage``), which
count the heap pages that the allocator returned and the next call touched
again.  Calls run under ``np.errstate(all="ignore")``, as the rules make
them.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

import numpy as np

import expression_kernel
from casimir_impedance import ALUMINUM, Formalism, ImpedanceKind, ImpedanceModel
from casimir_impedance import quadrature
from casimir_impedance.zero_temperature import ObservableKind, _integrand

PAIRS = [(kind, formalism) for kind in ImpedanceKind for formalism in Formalism]
OBSERVABLES = (ObservableKind.ENERGY_PER_AREA, ObservableKind.FORCE_PER_AREA)


def shapes():
    """(name, xi, y, static) of the wedge's first pass and a y-rule batch."""
    y, u, *_ = quadrature._wedge_table(2, quadrature._WEDGE_T_LO)
    yield "wedge", u * y[:, None], y[:, None], False
    lowers = 0.37 * np.arange(36)[:, None]
    yield "y-rule", lowers, lowers + quadrature._y_nodes(2)[0], True


def block(g, xi, y, calls: int) -> tuple[float, int]:
    """Seconds per call and minor page faults over ``calls`` calls of g."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for _ in range(calls):
        g(xi, y)
    seconds = (time.perf_counter() - start) / calls
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--calls", type=int, default=20)
    args = parser.parse_args()
    print(f"{'kind':13s} {'formalism':9s} {'observable':7s} {'shape':6s}"
          f" {'expr us':>8s} {'kernel us':>9s} {'ratio':>6s}"
          f" {'expr flt':>8s} {'kernel flt':>10s}")
    for kind, formalism in PAIRS:
        model = ImpedanceModel(kind, formalism)
        a = 1e-3 if kind is ImpedanceKind.NORMAL_SKIN else 1e-6
        for observable in OBSERVABLES:
            for name, xi, y, static in shapes():
                # Normal skin has no static term under the Lifshitz formalism.
                static = static and model != ImpedanceModel(
                    ImpedanceKind.NORMAL_SKIN, Formalism.LIFSHITZ
                )
                request = ((observable, model),)
                forms = (
                    expression_kernel.plate_integrand(request, a, ALUMINUM, True, static),
                    _integrand(request, a, ALUMINUM, static=static),
                )
                best, faults = [np.inf, np.inf], [0, 0]
                with np.errstate(all="ignore"):
                    for g in forms:
                        g(xi, y)
                    for _ in range(args.repeats):
                        for i, g in enumerate(forms):
                            seconds, count = block(g, xi, y, args.calls)
                            best[i] = min(best[i], seconds)
                            faults[i] += count
                per_call = [count / (args.repeats * args.calls) for count in faults]
                print(f"{kind.value:13s} {formalism.value:9s} {observable.value[:6]:7s}"
                      f" {name:6s} {best[0] * 1e6:8.0f} {best[1] * 1e6:9.0f}"
                      f" {best[1] / best[0]:6.2f} {per_call[0]:8.1f} {per_call[1]:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
