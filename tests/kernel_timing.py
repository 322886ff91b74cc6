"""Timing of one plate-integrand call: the expression forms against the kernel.

Not collected by pytest (like ``matsubara_stop_sweep.py``); run it as

    PYTHONPATH=src python tests/kernel_timing.py [--repeats 9] [--calls 20]
    PYTHONPATH=src python tests/kernel_timing.py --workloads [--seconds 10]

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
again, and the tracemalloc peak of one kernel call in full-size arrays (8
bytes a point).  Calls run under ``np.errstate(all="ignore")``, as the
rules make them.

With ``--workloads`` it runs each perfbench workload instead, each in a
fresh interpreter, as ``perfbench/run.py`` times it (seed 9001): its
operations from ``perfbench/workloads.py`` and their oracles prepared,
one warm pass at minimum size, then passes for ``--seconds`` that keep
every outcome and latency, through ``run.py``'s own pass loop.  It prints the minor page faults and
the microseconds per operation of the timed passes.  For a given code the
fault count is deterministic; it tells whether glibc trims the heap
between operations, which decides much of their wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import expression_kernel
from casimir_impedance import ALUMINUM, Formalism, ImpedanceKind, ImpedanceModel
from casimir_impedance import quadrature
from casimir_impedance.zero_temperature import ObservableKind, _integrand

PAIRS = [(kind, formalism) for kind in ImpedanceKind for formalism in Formalism]
OBSERVABLES = (ObservableKind.ENERGY_PER_AREA, ObservableKind.FORCE_PER_AREA)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("zeroT-plates", "lowT-matsubara", "cli-scans")


def shapes():
    """(name, xi, y, static) of the wedge's first pass and a y-rule batch."""
    y = quadrature._wedge_table(2, quadrature._WEDGE_T_LO)[0]
    yield "wedge", quadrature._first_pass_points(quadrature._WEDGE_T_LO), y[:, None], False
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


def peak_arrays(g, xi, y) -> float:
    """The tracemalloc peak of one call of g, in arrays of the points' size."""
    tracemalloc.start()
    try:
        g(xi, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * np.broadcast(xi, y).size)


def workload(name: str, seconds: float) -> None:
    """A perfbench workload as ``perfbench/run.py`` times it, with its
    passes; prints faults and microseconds per operation of the timed ones."""
    sys.path.insert(0, str(PERFBENCH))
    import run
    import workloads

    # The CLI's warnings go to stderr on every pass.
    with tempfile.TemporaryDirectory() as workdir, open(os.devnull, "w") as null, \
            contextlib.redirect_stderr(null):
        ops = workloads.build(name, 9001, Path(workdir))
        for op in ops:
            op.prepare()
        run.run_pass(workloads.build(name, 9001, Path(workdir), min_size=True))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        passes = run.closed_loop(seconds, lambda k: run.run_pass(ops))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    count, wall = len(passes) * len(ops), sum(p[2] for p in passes)
    print(f"{name:15s} {count:8d} {faults / count:10.1f} {wall / count * 1e6:8.0f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--workloads", action="store_true",
                        help="faults and time per operation of each perfbench workload")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workload", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload:
        workload(args.workload, args.seconds)
        return 0
    if args.workloads:
        # A fresh interpreter each: the CLI sets its heap policy per process.
        print(f"{'workload':15s} {'ops':>8s} {'flt/op':>10s} {'us/op':>8s}", flush=True)
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seconds", str(args.seconds)], check=True)
        return 0
    print(f"{'kind':13s} {'formalism':9s} {'observable':7s} {'shape':6s}"
          f" {'expr us':>8s} {'kernel us':>9s} {'ratio':>6s}"
          f" {'expr flt':>8s} {'kernel flt':>10s} {'peak':>5s}")
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
                    peak = peak_arrays(forms[1], xi, y)
                per_call = [count / (args.repeats * args.calls) for count in faults]
                print(f"{kind.value:13s} {formalism.value:9s} {observable.value[:6]:7s}"
                      f" {name:6s} {best[0] * 1e6:8.0f} {best[1] * 1e6:9.0f}"
                      f" {best[1] / best[0]:6.2f} {per_call[0]:8.1f} {per_call[1]:10.1f}"
                      f" {peak:5.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
