"""Interleaved A/B timing of two source trees of the package in one process.

Not collected by pytest (like ``kernel_timing.py``); run it as

    python tests/ab_timing.py PARENT CHANGE [--blocks 41] [--calls 5] [--only TEXT]

PARENT and CHANGE are checkouts of this repository (for example both made
with ``git archive``).  Each tree's ``src/casimir_impedance`` is imported
under a name of its own, ``casimir_a`` and ``casimir_b``, so both packages
live side by side in one interpreter and see the same state of the host.
A fixed list of public calls (the plate force of the plasma-exact impedance
model at 1 um across Matsubara steps 0.03-5, each operation kind of the
lowT-matsubara and zeroT-plates benchmark workloads, the CLI rows
``point --T`` and ``thermal-ratio`` and the cli-scans commands ``figure1``,
``figure2`` and ``scan`` over 100 nm-2 um) is timed block by block: in each
block every call runs ``--calls`` times under one tree, then under the
other, the order of the trees alternating from block to block.  Each row
prints the median over the blocks of the time per call for both trees,
their ratio CHANGE / PARENT, the ratio's quartiles over the blocks, and the
deterministic counts: the integrand points of an observable's
``evaluations`` and the relative move of its value or, for a CLI row,
whether both trees print the same CSV bytes and else the largest relative
move in each column that moved.

An A/A run (the same tree twice) reads the host's resolution: a ratio
between the quartiles of an A/A row is noise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import math
import statistics
import sys
import time
from pathlib import Path


def load(tree: Path, name: str):
    """The package of the checkout ``tree``, imported as ``name``."""
    package = tree / "src" / "casimir_impedance"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _step_T(ci, a: float, step: float) -> float:
    return step * ci.effective_temperature(a) / (2.0 * math.pi)


def calls(ci):
    """(label, call) pairs; a call returns an Observable or the CLI's CSV text."""
    K, F = ci.ImpedanceKind, ci.Formalism
    al = ci.ALUMINUM
    plasma = ci.ImpedanceModel(K.PLASMA_EXACT, F.IMPEDANCE)
    out = []
    for step in (0.03, 0.1, 0.15, 0.19, 0.3, 0.5, 0.7, 0.9, 1.0, 2.0, 5.0):
        T = _step_T(ci, 1e-6, step)
        out.append((f"force_ppT plasma-exact/impedance 1um step {step:g}",
                    lambda T=T: ci.force_ppT(1e-6, T, plasma, al)))
    # The lowT-matsubara operation kinds at a*T = 1e-6 and 1e-5 m K.
    for name, kind, formalism in (
        ("force_ppT", K.PLASMA_EXACT, F.IMPEDANCE),
        ("force_ppT", K.PLASMA_EXACT, F.LIFSHITZ),
        ("energy_ppT", K.PLASMA_EXACT, F.IMPEDANCE),
        ("energy_ppT", K.PLASMA_EXACT, F.LIFSHITZ),
        ("force_ppT", K.IDEAL_METAL, F.IMPEDANCE),
    ):
        model = ci.ImpedanceModel(kind, formalism)
        material = None if kind is K.IDEAL_METAL else al
        for a, aT in ((3e-7, 1e-6), (1e-6, 1e-5)):
            out.append((f"{name} {kind.value}/{formalism.value} a={a:g} aT={aT:g}",
                        lambda f=getattr(ci, name), a=a, T=aT / a, m=model, mat=material:
                        f(a, T, m, mat)))
    # The zeroT-plates operation kinds at 1 um (normal skin at 1 mm), the
    # sphere's radius 200 a as there.
    for kind in K:
        for formalism in F:
            model = ci.ImpedanceModel(kind, formalism)
            material = None if kind is K.IDEAL_METAL else al
            a = 1e-3 if kind is K.NORMAL_SKIN else 1e-6
            for name in ("force_pp0", "energy_pp0", "force_sphere0"):
                args = (a, 200.0 * a) if name == "force_sphere0" else (a,)
                out.append((f"{name} {kind.value}/{formalism.value} a={a:g}",
                            lambda f=getattr(ci, name), args=args, m=model, mat=material:
                            f(*args, m, mat)))
    for argv in (["point", "--a", "1um", "--T", "300"], ["point", "--a", "1um", "--T", "1"],
                 ["thermal-ratio", "--a", "1um", "--T", "300"],
                 ["thermal-ratio", "--a", "1um", "--T", "36"],
                 # The cli-scans commands and grid sizes.
                 ["figure1", "--grid", "100nm:2um:10:log"],
                 ["figure2", "--grid", "100nm:2um:6:log"],
                 ["scan", "--grid", "100nm:2um:8:log"]):
        out.append((" ".join(argv), lambda argv=argv: _cli(ci, argv)))
    return out


def _cli(ci, argv: list[str]) -> str:
    """The CSV that the tree's ``casimir`` command prints for ``argv``; its
    warnings are dropped."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
        importlib.import_module(ci.__name__ + ".cli").main([*argv, "--material", "Al"])
    return text.getvalue()


def _counts(a, b) -> str:
    """The deterministic comparison of one call's results under both trees."""
    if isinstance(a, str):
        if a == b:
            return "CSV same"
        columns = next(ln for ln in a.splitlines() if ln.startswith("# columns = "))
        moves = {}
        for la, lb in zip(a.splitlines(), b.splitlines()):
            if la.startswith("#"):
                continue
            for name, x, y in zip(columns[12:].split(","), la.split(","), lb.split(",")):
                x, y = float(x), float(y)
                move = abs(y - x) / abs(x) if x else abs(y)
                moves[name] = max(moves.get(name, 0.0), move)
        return "CSV moves " + ", ".join(f"{k} {v:.2e}" for k, v in moves.items() if v)
    qa, qb = a.quadrature, b.quadrature
    move = abs(qb.value - qa.value) / abs(qa.value) if qa.value else 0.0
    return (f"points {qa.evaluations:7d} -> {qb.evaluations:7d}, "
            f"converged {qa.converged} -> {qb.converged}, move {move:.2e}")


def _time(call, n: int) -> float:
    start = time.perf_counter()
    for _ in range(n):
        call()
    return (time.perf_counter() - start) / n


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--blocks", type=int, default=41)
    parser.add_argument("--calls", type=int, default=5)
    parser.add_argument("--only", help="time only the calls whose label contains this")
    args = parser.parse_args(argv)
    if args.blocks < 2:
        parser.error("--blocks must be at least 2")
    trees = load(args.parent, "casimir_a"), load(args.change, "casimir_b")
    rows = [list(zip(*pair)) for pair in zip(calls(trees[0]), calls(trees[1]))]
    rows = [(labels[0], fs) for labels, fs in rows if not args.only or args.only in labels[0]]
    print(f"{'call':52s} {'A us':>9s} {'B us':>9s} {'B/A':>6s} {'quartiles':>13s}  counts")
    for label, fs in rows:
        results = [f() for f in fs]  # also builds the node tables of both trees
        times = ([], [])
        for block in range(args.blocks):
            for side in ((0, 1) if block % 2 == 0 else (1, 0)):
                times[side].append(_time(fs[side], args.calls))
        ratios = [b / a for a, b in zip(*times)]
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        a_us, b_us = (1e6 * statistics.median(t) for t in times)
        print(f"{label:52s} {a_us:9.1f} {b_us:9.1f} {statistics.median(ratios):6.3f} "
              f"{q1:6.3f}-{q3:<6.3f}  {_counts(*results)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
