"""Seeded workloads of the benchmark and the oracle checks of each operation.

A workload is a fixed list of operations (one *pass*) that the benchmark
repeats in a closed loop.  Inputs are drawn in fixed strata: the seed moves
each input only inside the middle fifth of its stratum (on a log scale) and
shuffles the order, so every seed costs about the same and the median and
tail of a pass are set by the same strata on every seed.

Every operation carries an oracle check.  References are computed by
``prepare()`` before the timed loop and ``check()`` runs after it, so neither
is timed.  ``check()`` takes the observed outcome, so a test can feed it a
perturbed value and see it rejected.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import casimir_impedance as ci
from casimir_impedance import cli
from casimir_impedance import Formalism as Fm
from casimir_impedance import ImpedanceKind as Kind

AL = ci.ALUMINUM

# Each input sits in the middle 2 * JITTER of its stratum.
JITTER = 0.1

# Oracle tolerances.  IDEAL_ZERO_T is the tier-1 C1 bound and NORMAL_SKIN the
# C6 bound.  IDEAL_THERMAL: measured agreement 1e-12.  Lifshitz thermal
# corrections against the second-order expansion: measured worst 1.7e-5
# (energy, 1 um and 1 K) and 7.7e-4 (force, 300 nm and 10 K); the force is
# only compared from 10 K on, where the correction is far above rel_tol.
IDEAL_ZERO_T = 1e-7
IDEAL_THERMAL = 1e-9
SPHERE_MAPPING = 1e-12
NORMAL_SKIN = 0.05
LIFSHITZ_DELTA_E = 1e-4
LIFSHITZ_DELTA_F = 3e-3
LIFSHITZ_DELTA_F_MIN_T = 10.0
PERT_RATIO_MAX = 0.1  # delta_0 / a below which the thermal expansion holds


@dataclass
class Outcome:
    """What one operation produced, as the checks see it."""

    values: tuple[float, ...]
    converged: bool
    evaluations: int = 0
    status: int = 0
    text: str = ""
    error: str = ""


@dataclass
class Op:
    """One operation: a timed ``call`` and untimed ``observe``/``check``."""

    label: str
    kind: str  # span name of the operation in the trace
    call: Callable[[], object]
    observe: Callable[[object], Outcome]
    check: Callable[[Outcome], list[str]] = lambda out: []
    prepare: Callable[[], None] = lambda: None
    ref: dict = field(default_factory=dict)


def strata(lo: float, hi: float, n: int, rng: random.Random) -> list[float]:
    """n log-spaced points in [lo, hi], one per stratum, jittered by the seed."""
    step = (math.log(hi) - math.log(lo)) / n
    return [
        math.exp(math.log(lo) + step * (i + 0.5 + rng.uniform(-JITTER, JITTER)))
        for i in range(n)
    ]


def _observable(obs) -> Outcome:
    q = obs.quadrature
    return Outcome((obs.value,), q.converged, q.evaluations)


def _rel(value: float, ref: float) -> float:
    return abs(value / ref - 1.0)


def _basic(out: Outcome) -> list[str]:
    """Raised, did not converge, non-finite or non-attractive."""
    if out.error:
        return [f"raised {out.error}"]
    fails = []
    if not out.converged:
        fails.append("not converged")
    v = out.values[0]
    if not math.isfinite(v):
        fails.append(f"non-finite value {v!r}")
    elif not v < 0.0:
        fails.append(f"value {v!r} is not negative")
    return fails


# ---------------------------------------------------------------- zeroT-plates

PAIRS = [
    (Kind.IDEAL_METAL, Fm.IMPEDANCE),
    (Kind.IDEAL_METAL, Fm.LIFSHITZ),
    (Kind.PLASMA_EXACT, Fm.IMPEDANCE),
    (Kind.PLASMA_EXACT, Fm.LIFSHITZ),
    (Kind.PLASMA_APPROX, Fm.IMPEDANCE),
    (Kind.PLASMA_APPROX, Fm.LIFSHITZ),
    (Kind.NORMAL_SKIN, Fm.IMPEDANCE),
]
PLATE_RANGE = (1e-7, 2e-6)
NORMAL_SKIN_RANGE = (5e-4, 5e-3)  # the ohmic regime where normal skin holds
SPHERE_RATIO = 200.0  # R = 200 a keeps a/R under the proximity warning


def _zero_t_op(name: str, model, a: float) -> Op:
    material = None if model.kind is Kind.IDEAL_METAL else AL
    R = SPHERE_RATIO * a
    if name == "force_sphere0":
        def call():
            return ci.force_sphere0(a, R, model, material)
    else:
        fn = getattr(ci, name)

        def call():
            return fn(a, model, material)

    op = Op(f"{name} {model.kind.value}/{model.formalism.value} a={a:.4g}",
            name, call, _observable)
    index = 1 if name == "force_pp0" else 0
    scale = 2.0 * math.pi * R if name == "force_sphere0" else 1.0

    def prepare():
        op.ref["ideal"] = scale * ci.ideal_closed_forms(a)[index]
        if model.kind is Kind.NORMAL_SKIN:
            op.ref["pert"] = scale * ci.normal_skin_pert0(a, AL)[index]
        if name == "force_sphere0":
            op.ref["mapped"] = scale * ci.energy_pp0(a, model, material).value

    def check(out: Outcome) -> list[str]:
        fails = _basic(out)
        if fails:
            return fails
        v, ref = out.values[0], op.ref
        if model.kind is Kind.IDEAL_METAL:
            if _rel(v, ref["ideal"]) > IDEAL_ZERO_T:
                fails.append(f"ideal closed form off by {_rel(v, ref['ideal']):.3g}")
        elif abs(v) > abs(ref["ideal"]):
            fails.append("|Q| exceeds the ideal-metal value")
        if "pert" in ref and _rel(v, ref["pert"]) > NORMAL_SKIN:
            fails.append(f"normal-skin expansion off by {_rel(v, ref['pert']):.3g}")
        if "mapped" in ref and _rel(v, ref["mapped"]) > SPHERE_MAPPING:
            fails.append(f"sphere force != 2 pi R E_pp (off by {_rel(v, ref['mapped']):.3g})")
        return fails

    op.prepare, op.check = prepare, check
    return op


def zero_t_plates(seed: int, n_strata: int = 3) -> list[Op]:
    """force_pp0, energy_pp0 and force_sphere0 for all 7 (kind, formalism)."""
    rng = random.Random(seed)
    ops = []
    for kind, formalism in PAIRS:
        model = ci.ImpedanceModel(kind, formalism)
        lo, hi = NORMAL_SKIN_RANGE if kind is Kind.NORMAL_SKIN else PLATE_RANGE
        for a in strata(lo, hi, n_strata, rng):
            for name in ("force_pp0", "energy_pp0", "force_sphere0"):
                ops.append(_zero_t_op(name, model, a))
    rng.shuffle(ops)
    return ops


# -------------------------------------------------------------- lowT-matsubara

AT_RANGE = (1e-6, 1e-5)  # a*T in m K; 1e-6 holds (100 nm, 10 K) and (1 um, 1 K)
# Two separation bands: delta_0/a above 0.1, and well below it.
A_BANDS = ((1e-7, 10**-6.85), (10**-6.45, 1e-6))
LOW_T_OPS = (
    ("force_ppT", Kind.PLASMA_EXACT, Fm.IMPEDANCE),
    ("force_ppT", Kind.PLASMA_EXACT, Fm.LIFSHITZ),
    ("energy_ppT", Kind.PLASMA_EXACT, Fm.IMPEDANCE),
    ("energy_ppT", Kind.PLASMA_EXACT, Fm.LIFSHITZ),
    ("force_ppT", Kind.IDEAL_METAL, Fm.IMPEDANCE),
)
# a*T stratum of each operation in each band: every operation meets two
# strata, and the Lifshitz force of the upper band lands above 10 K, where
# its expansion check holds.
LOW_T_STRATA = ((0, 1, 2, 3, 4), (2, 4, 3, 0, 1))


def _low_t_op(name: str, model, a: float, T: float) -> Op:
    material = None if model.kind is Kind.IDEAL_METAL else AL
    fn = getattr(ci, name)

    def call():
        return fn(a, T, model, material)

    op = Op(f"{name} {model.kind.value}/{model.formalism.value} a={a:.4g} T={T:.4g}",
            name, call, _observable)
    force = name == "force_ppT"
    lifshitz_pert = (
        model.formalism is Fm.LIFSHITZ
        and AL.delta_0 / a < PERT_RATIO_MAX
        and (not force or T >= LIFSHITZ_DELTA_F_MIN_T)
    )

    def prepare():
        if force:
            op.ref["ideal"] = ci.ideal_closed_forms(a)[1] + ci.delta_T_force_pert(a, T)
        else:
            op.ref["ideal"] = ci.ideal_energy_T(a, T)
        if lifshitz_pert:
            zero = (ci.force_pp0 if force else ci.energy_pp0)(a, model, material).value
            delta = (ci.delta_T_force_pert if force else ci.delta_T_energy_pert)
            op.ref["zero"] = zero
            op.ref["delta"] = delta(a, T, AL)

    def check(out: Outcome) -> list[str]:
        fails = _basic(out)
        if fails:
            return fails
        v, ref = out.values[0], op.ref
        if model.kind is Kind.IDEAL_METAL:
            if _rel(v, ref["ideal"]) > IDEAL_THERMAL:
                fails.append(f"ideal thermal force off by {_rel(v, ref['ideal']):.3g}")
        elif abs(v) > abs(ref["ideal"]):
            fails.append("|Q| exceeds the ideal-metal value at T")
        if "delta" in ref:
            off = _rel(v - ref["zero"], ref["delta"])
            tol = LIFSHITZ_DELTA_F if force else LIFSHITZ_DELTA_E
            if off > tol:
                fails.append(f"thermal correction off the expansion by {off:.3g}")
        return fails

    op.prepare, op.check = prepare, check
    return op


def low_t_matsubara(seed: int, min_size: bool = False) -> list[Op]:
    """force_ppT/energy_ppT, plasma-exact both formalisms, ideal force_ppT.

    The minimum size puts every operation in the cheapest a*T stratum.
    """
    rng = random.Random(seed)
    step = math.log10(AT_RANGE[1] / AT_RANGE[0]) / 5
    ops = []
    for band, order in zip(A_BANDS, LOW_T_STRATA):
        for (name, kind, formalism), s in zip(LOW_T_OPS, order):
            if min_size:
                s = 4
            aT = AT_RANGE[0] * 10 ** (step * (s + 0.5 + rng.uniform(-JITTER, JITTER)))
            (a,) = strata(*band, 1, rng)
            ops.append(_low_t_op(name, ci.ImpedanceModel(kind, formalism), a, aT / a))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------- cli-scans

# Command and grid size; the sizes narrow the spread of the commands' costs.
CLI_COMMANDS = (("figure1", 10), ("figure2", 6), ("scan", 8))
CLI_RANGE = (1e-7, 2e-6)


def data_rows(text: str) -> int:
    """Rows of a CSV file, not counting the #-prefixed header."""
    return sum(1 for ln in text.splitlines() if ln and not ln.startswith("#"))


def _read_csv(path: Path) -> tuple[str, list[list[float]], list[str]]:
    text = path.read_text()
    columns: list[str] = []
    rows = []
    for line in text.splitlines():
        if line.startswith("# columns = "):
            columns = line[len("# columns = "):].split(",")
        elif line and not line.startswith("#"):
            rows.append([float(v) for v in line.split(",")])
    return text, rows, columns


def _cli_op(command: str, lo: float, hi: float, count: int, out: Path) -> Op:
    argv = [command, "--material", "Al", "--grid", f"{lo!r}:{hi!r}:{count}:log",
            "--out", str(out)]
    op = Op(f"casimir {' '.join(argv[:-2])}", "cli.main", lambda: cli.main(argv), None)

    def observe(status) -> Outcome:
        text, rows, columns = _read_csv(out) if out.exists() else ("", [], [])
        conv = [c for c in columns if c.endswith("converged")]
        flags = [row[columns.index(c)] for row in rows for c in conv]
        values = tuple(v for row in rows for v in row)
        out.unlink(missing_ok=True)
        return Outcome(values, bool(flags) and all(f == 1.0 for f in flags),
                       status=status, text=text)

    def check(res: Outcome) -> list[str]:
        if res.error:
            return [f"raised {res.error}"]
        fails = []
        if res.status != 0:
            fails.append(f"exit status {res.status}")
        n_rows = data_rows(res.text)
        if n_rows != count:
            fails.append(f"{n_rows} rows, expected {count}")
        if not res.converged:
            fails.append("a converged column is not 1")
        if not all(math.isfinite(v) for v in res.values):
            fails.append("non-finite value in the CSV")
        return fails

    op.observe, op.check = observe, check
    return op


def cli_scans(seed: int, workdir: Path, min_size: bool = False) -> list[Op]:
    """figure1, figure2 and T=0 scan through cli.main, CSV to a file."""
    rng = random.Random(seed)
    ops = []
    for command, count in CLI_COMMANDS:
        (lo,) = strata(CLI_RANGE[0], CLI_RANGE[0] * 1.2, 1, rng)
        (hi,) = strata(CLI_RANGE[1] / 1.2, CLI_RANGE[1], 1, rng)
        ops.append(_cli_op(command, lo, hi, 2 if min_size else count,
                           workdir / f"{command}.csv"))
    rng.shuffle(ops)
    return ops


def repeat_failures(first: Outcome, out: Outcome) -> list[str]:
    """A repeated operation must give the same values, counts and bytes."""
    if (out.values, out.evaluations, out.text) != (first.values, first.evaluations, first.text):
        return ["differs from the first run of the same operation"]
    return []


def build(name: str, seed: int, workdir: Path, min_size: bool = False) -> list[Op]:
    if name == "zeroT-plates":
        return zero_t_plates(seed, 1 if min_size else 3)
    if name == "lowT-matsubara":
        return low_t_matsubara(seed, min_size)
    if name == "cli-scans":
        return cli_scans(seed, workdir, min_size)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("zeroT-plates", "lowT-matsubara", "cli-scans")
