"""Command-line frontend: point values, separation scans, deviation curves.

Commands
--------
point          energy and force at one (a, T)
scan           energy and force over a separation grid
figure1        force deviation curves: direct impedance quadrature and the
               constant-impedance series, both against the permittivity-route
               reference
figure2        energy deviation curves, both impedance kinds directly
coefficients   the three closed-form series coefficient families
thermal-ratio  real-to-ideal energy and force ratios at temperature T

Output is CSV: ``#``-prefixed provenance header (constants, material, model,
tolerances, tool version, column names), then purely numeric rows in
scientific notation with 17 significant digits.  Rows derived from quadrature
carry the error estimate and a converged flag.  Grid commands compute one
separation after another and write the rows in grid order.  Each row is one
call of the plate core: all of a row's observables and formalisms (energy
and force, or the Lifshitz and impedance forms of each plasma kind) are the
components of one reduction, a wedge integral at T = 0 and a set of
Matsubara sums at T > 0.  Identical configurations produce
byte-identical files.  Warnings raised while the
rows are computed are collapsed into one stderr line per source with a count.

Exit status: 0 on success, 1 on configuration errors (the message names the
offending field), 2 when any output row failed to converge.

Once per process, before it parses, ``main()`` sets glibc's heap policy with
``mallopt``: a 64 MiB trim threshold and a 4 MiB mmap threshold.  The wedge
integral behind each output row allocates and frees numpy temporaries of about
100 KB; with glibc's defaults that memory goes back to the OS and is faulted
in again on the next call.  Keeping it raised the throughput of
``perfbench/``'s cli-scans workload (figure1, figure2 and scan) by 30-45% on a
2-vCPU host, and resident memory stays at its peak for the rest of the run.
``run()`` and library calls leave the allocator alone; a long-running Python
caller gets the same effect from glibc's own ``MALLOC_TRIM_THRESHOLD_``
environment variable.  Where the C library has no ``mallopt`` (macOS, Windows)
nothing is set.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .constants import CODATA
from .finite_temperature import _SERIES_TAIL_TOL, _thermal_ratios
from .geometry import Geometry, effective_temperature
from .materials import PRESETS, Material, load_material
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .reflection import _NO_STATIC_LIMIT, Formalism, ImpedanceKind, ImpedanceModel
from .series import _SERIES_RATIO_MAX, CoefficientVariant, coefficients, series_force
from .zero_temperature import ObservableKind, _deviation, _plates, _sphere_plate

__all__ = [
    "RunSpec",
    "SpecError",
    "parse_config",
    "parse_length",
    "parse_grid",
    "run",
    "main",
]

_LENGTH_SUFFIXES = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3}


class SpecError(ValueError):
    """Configuration problem; the message names the offending field."""


@dataclass(frozen=True)
class RunSpec:
    """A fully described run: command, physics choices, grid, output."""

    command: str
    material: str | None = None
    model: str = "plasma-exact"
    formalism: str = "impedance"
    a: float | None = None
    grid: tuple[float, float, int, bool] | None = None
    T: float = 0.0
    R: float | None = None
    rel_tol: float | None = None
    out: str | None = None


def parse_length(text: str | float, key: str = "a") -> float:
    """A length in meters; strings may carry an nm/um/mm suffix."""
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        text = text.strip()
        scale = 1.0
        for suffix, mult in _LENGTH_SUFFIXES.items():
            if text.endswith(suffix):
                text, scale = text[: -len(suffix)], mult
                break
        try:
            value = float(text) * scale
        except ValueError:
            raise SpecError(f"{key}: cannot parse length {text!r}") from None
    if not (value > 0.0) or not math.isfinite(value):
        raise SpecError(f"{key}: length must be positive and finite, got {value!r}")
    return value


def parse_grid(text) -> tuple[float, float, int, bool]:
    """A separation grid MIN:MAX:COUNT[:log|lin], lengths with suffixes."""
    parts = str(text).strip().split(":")
    if len(parts) not in (3, 4):
        raise SpecError(f"grid: expected MIN:MAX:COUNT[:log|lin], got {text!r}")
    lo = parse_length(parts[0], "grid")
    hi = parse_length(parts[1], "grid")
    try:
        count = int(parts[2])
    except ValueError:
        raise SpecError(f"grid: count must be an integer, got {parts[2]!r}") from None
    log = False
    if len(parts) == 4:
        if parts[3] not in ("log", "lin"):
            raise SpecError(f"grid: spacing must be 'log' or 'lin', got {parts[3]!r}")
        log = parts[3] == "log"
    if not (lo < hi):
        raise SpecError(f"grid: min must be below max, got {lo!r} >= {hi!r}")
    if count < 2:
        raise SpecError(f"grid: count must be at least 2, got {count}")
    return (lo, hi, count, log)


# Per-key coercers from raw file/flag values to RunSpec field values.
_PARSERS = {
    "command": lambda v: str(v),
    "material": lambda v: str(v),
    "model": lambda v: str(v),
    "formalism": lambda v: str(v),
    "a": lambda v: parse_length(v, "a"),
    "grid": parse_grid,
    "T": lambda v: float(v),
    "R": lambda v: parse_length(v, "R"),
    "rel_tol": lambda v: float(v),
    "out": lambda v: str(v),
}


def _validate(spec: RunSpec) -> Material | None:
    """Check every field of ``spec`` and return its material, resolved."""
    if spec.command not in _COMMANDS:
        raise SpecError(
            f"command: must be one of {', '.join(_COMMANDS)}, got {spec.command!r}"
        )
    try:
        kind = ImpedanceKind(spec.model)
    except ValueError:
        raise SpecError(f"model: unknown impedance kind {spec.model!r}") from None
    try:
        formalism = Formalism(spec.formalism)
    except ValueError:
        raise SpecError(f"formalism: unknown formalism {spec.formalism!r}") from None
    if spec.material is None and spec.command in ("figure1", "figure2"):
        raise SpecError(f"material: required for command {spec.command!r}")
    if (
        spec.command != "coefficients"
        and kind is not ImpedanceKind.IDEAL_METAL
        and spec.material is None
    ):
        raise SpecError(f"material: required for model {spec.model!r}")
    if spec.command in ("point", "thermal-ratio") and spec.a is None:
        raise SpecError(f"a: required for command {spec.command!r}")
    if spec.command in ("scan", "figure1", "figure2") and spec.grid is None:
        raise SpecError(f"grid: required for command {spec.command!r}")
    if not (0.0 <= spec.T < math.inf):
        raise SpecError(f"T: temperature must be non-negative and finite, got {spec.T!r}")
    if spec.command == "thermal-ratio" and spec.T == 0.0:
        raise SpecError("T: thermal-ratio requires T > 0")
    if spec.command in ("figure1", "figure2", "coefficients") and spec.T != 0.0:
        raise SpecError(f"T: {spec.command} is computed at T = 0 only, got {spec.T!r}")
    if kind is ImpedanceKind.NORMAL_SKIN and formalism is Formalism.LIFSHITZ and spec.T > 0.0:
        raise SpecError(f"formalism: {_NO_STATIC_LIMIT}; the Matsubara sum at T > 0 needs it")
    if spec.rel_tol is not None and not (0.0 < spec.rel_tol < 1.0):
        raise SpecError(f"rel_tol: must lie in (0, 1), got {spec.rel_tol!r}")
    material = _resolve_material(spec)
    if spec.command == "figure1":
        # The series curve is defined only for delta_0/a below the domain bound.
        delta_0, lo = material.delta_0, spec.grid[0]
        if delta_0 / lo >= _SERIES_RATIO_MAX:
            raise SpecError(
                f"grid: figure1's series curve needs delta_0/a < {_SERIES_RATIO_MAX}, "
                f"got {delta_0 / lo:.3g} at a = {lo:.3g} m; start the grid above "
                f"{delta_0 / _SERIES_RATIO_MAX:.3g} m"
            )
    return material


def parse_config(path: str | Path | None, flags: dict | None = None) -> RunSpec:
    """Build a validated RunSpec from a config file plus flag overrides.

    The file may be JSON or key=value lines (# comments allowed); CLI flag
    values take precedence over file values.  Either source may be empty as
    long as the merge is complete.
    """
    spec = _merged_spec(path, flags)
    _validate(spec)
    return spec


def _merged_spec(path: str | Path | None, flags: dict | None) -> RunSpec:
    """The RunSpec of ``parse_config``, not yet validated."""
    raw: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecError(f"config: {exc}") from None
        if text.lstrip().startswith("{"):
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SpecError(f"config: invalid JSON ({exc})") from None
        else:
            for ln, line in enumerate(text.splitlines(), start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise SpecError(f"config: line {ln} is not key=value: {line!r}")
                key, _, value = line.partition("=")
                raw[key.strip()] = value.strip()
    for key, value in (flags or {}).items():
        if value is not None:
            raw[key] = value
    merged = {}
    for key, value in raw.items():
        if key not in _PARSERS:
            raise SpecError(f"{key}: unknown configuration key")
        try:
            merged[key] = _PARSERS[key](value)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{key}: {exc}") from None
    if "command" not in merged:
        raise SpecError("command: required")
    return RunSpec(**merged)


def _resolve_material(spec: RunSpec) -> Material | None:
    if spec.material is None:
        return None
    if spec.material in PRESETS:
        return PRESETS[spec.material]
    path = Path(spec.material)
    if not path.exists():
        raise SpecError(
            f"material: {spec.material!r} is neither a preset "
            f"({', '.join(sorted(PRESETS))}) nor a file"
        )
    try:
        return load_material(path)
    except (OSError, ValueError) as exc:
        raise SpecError(f"material: {exc}") from None


def _config(spec: RunSpec) -> QuadratureConfig:
    if spec.rel_tol is None:
        return DEFAULT_CONFIG
    return QuadratureConfig(rel_tol=spec.rel_tol)


def _grid_points(grid: tuple[float, float, int, bool]) -> list[float]:
    import numpy as np

    lo, hi, count, log = grid
    if log:
        return np.geomspace(lo, hi, count).tolist()
    return np.linspace(lo, hi, count).tolist()


def _render(spec: RunSpec, material: Material | None, columns: list[str], rows) -> str:
    """The CSV text: provenance lines, then one numeric line per row."""
    lines = [
        f"# tool = casimir-impedance {__version__}",
        f"# command = {spec.command}",
        f"# hbar_Js = {CODATA.hbar!r}",
        f"# c_m_s = {CODATA.c!r}",
        f"# k_B_J_K = {CODATA.k_B!r}",
        f"# material = {material.name if material else 'none'}",
        f"# omega_p_rad_s = {material.omega_p!r}" if material else "# omega_p_rad_s = nan",
        f"# gamma_rad_s = {material.gamma!r}" if material else "# gamma_rad_s = nan",
        f"# model = {spec.model}",
        f"# formalism = {spec.formalism}",
        f"# T_K = {spec.T!r}",
        f"# rel_tol = {_config(spec).rel_tol!r}",
        f"# series_tail_tol = {_SERIES_TAIL_TOL!r}",
    ]
    if spec.command == "point":
        lines.append("# kind = 0 energy, 1 force, 2 sphere")
    lines.append(f"# columns = {','.join(columns)}")
    lines += [",".join(f"{v:.16e}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _entry(ob) -> tuple[float, float, float]:
    """An observable's value, error estimate and converged flag."""
    return ob.value, ob.quadrature.abs_error_estimate, float(ob.quadrature.converged)


def _energy_force(a: float, spec: RunSpec, material, model, config):
    """The plate (energy, force) at separation a and the run's temperature,
    from one call of the plate core: one reduction at every T."""
    kinds = (ObservableKind.ENERGY_PER_AREA, ObservableKind.FORCE_PER_AREA)
    return _plates(a, spec.T, tuple((kind, model) for kind in kinds), material, config)


def _point_rows(spec: RunSpec, material, model, config):
    """One row per observable: kind index, value, error, converged."""
    obs = _energy_force(spec.a, spec, material, model, config)
    if spec.R is not None:
        obs.append(_sphere_plate(Geometry(separation=spec.a, sphere_radius=spec.R), obs[0]))
    return [(spec.a, spec.T, float(index), *_entry(ob)) for index, ob in enumerate(obs)]


def _scan_rows(spec: RunSpec, material, model, config):
    rows = []
    for a in _grid_points(spec.grid):
        e, f = _energy_force(a, spec, material, model, config)
        rows.append((a, *_entry(e), *_entry(f)))
    return rows


def _figure1_rows(spec: RunSpec, material, model, config):
    rows = []
    for a in _grid_points(spec.grid):
        ((reference, d_exact, err, conv),) = _deviation(
            ObservableKind.FORCE_PER_AREA, (ImpedanceKind.PLASMA_EXACT,), a, material, config
        )
        approx = series_force(a, material, CoefficientVariant.IMPEDANCE_APPROX)
        rows.append((a, d_exact, (reference - approx) / reference, err, float(conv)))
    return rows


def _figure2_rows(spec: RunSpec, material, model, config):
    kinds = (ImpedanceKind.PLASMA_EXACT, ImpedanceKind.PLASMA_APPROX)
    rows = []
    for a in _grid_points(spec.grid):
        (_, d_exact, err_exact, ok_exact), (_, d_approx, err_approx, ok_approx) = _deviation(
            ObservableKind.ENERGY_PER_AREA, kinds, a, material, config
        )
        ok = float(ok_exact and ok_approx)
        rows.append((a, d_exact, d_approx, err_exact + err_approx, ok))
    return rows


def _coefficient_rows(spec: RunSpec, material, model, config):
    """k, then c_k of each family in the order CoefficientVariant lists them."""
    sets = [coefficients(v).c for v in CoefficientVariant]
    return [(float(k), *(c[k] for c in sets)) for k in range(5)]


def _thermal_ratio_rows(spec: RunSpec, material, model, config):
    e_ratio, f_ratio, err, conv = _thermal_ratios(spec.a, spec.T, model, material, config)
    return [(spec.a, spec.T, effective_temperature(spec.a), e_ratio, f_ratio, err, float(conv))]


# Each command's CSV columns and the function that computes its rows from
# (spec, material, model, config); grid commands give one row per separation,
# in grid order.
_COMMANDS = {
    "point": (["a_m", "T_K", "kind", "value", "abs_error", "converged"], _point_rows),
    "scan": (
        [
            "a_m",
            "energy_J_m2",
            "energy_abs_error",
            "energy_converged",
            "force_Pa",
            "force_abs_error",
            "force_converged",
        ],
        _scan_rows,
    ),
    "figure1": (
        ["a_m", "deltaF_exact", "deltaF_approx", "abs_error", "converged"],
        _figure1_rows,
    ),
    "figure2": (
        ["a_m", "deltaE_exact", "deltaE_approx", "abs_error", "converged"],
        _figure2_rows,
    ),
    "coefficients": (
        ["k", "lifshitz_plasma", "impedance_exact", "impedance_approx"],
        _coefficient_rows,
    ),
    "thermal-ratio": (
        [
            "a_m",
            "T_K",
            "T_eff_K",
            "energy_ratio",
            "force_ratio",
            "abs_error",
            "converged",
        ],
        _thermal_ratio_rows,
    ),
}


def _warning_summary(command: str, caught: list[warnings.WarningMessage]) -> None:
    """One stderr line per warning site: its first message and a count."""
    sites: dict[tuple, list[warnings.WarningMessage]] = {}
    for w in caught:
        sites.setdefault((w.category, w.filename, w.lineno), []).append(w)
    for records in sites.values():
        print(
            f"warning: {command}: {records[0].message} "
            f"({len(records)} warning{'s' if len(records) > 1 else ''} like this)",
            file=sys.stderr,
        )


def run(spec: RunSpec) -> int:
    """Validate and execute a RunSpec, CSV to ``spec.out`` or stdout; returns the exit status."""
    material = _validate(spec)
    model = ImpedanceModel(ImpedanceKind(spec.model), Formalism(spec.formalism))
    columns, compute_rows = _COMMANDS[spec.command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = compute_rows(spec, material, model, _config(spec))
    _warning_summary(spec.command, caught)

    text = _render(spec, material, columns, rows)
    if spec.out is not None:
        Path(spec.out).write_text(text)
    else:
        sys.stdout.write(text)

    flags = [i for i, name in enumerate(columns) if name.endswith("converged")]
    if any(row[i] == 0.0 for row in rows for i in flags):
        return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir",
        description="Casimir energy and force between real metals, "
        "surface-impedance boundary conditions.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="key=value or JSON file with defaults")
    parser.add_argument("--material", help="preset name (Al) or parameter file")
    parser.add_argument(
        "--model", help="ideal | plasma-exact | plasma-approx | normal-skin"
    )
    parser.add_argument("--formalism", help="impedance | lifshitz")
    parser.add_argument("--a", help="separation, meters or with nm/um/mm suffix")
    parser.add_argument("--grid", help="separation grid MIN:MAX:COUNT[:log|lin]")
    parser.add_argument("--T", help="temperature in K (0 = zero-temperature)")
    parser.add_argument("--R", help="sphere radius, meters or with suffix")
    parser.add_argument("--rel-tol", dest="rel_tol", help="quadrature tolerance")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    return parser


# glibc's mallopt parameters (malloc.h) and the values main() gives them.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 4 << 20


def _libc() -> ctypes.CDLL:
    """The C symbols the process has loaded; no ``find_library`` lookup."""
    return ctypes.CDLL(None)


@functools.cache
def _process_parser() -> argparse.ArgumentParser:
    """main()'s once-per-process step: the heap policy, then the parser.

    The module docstring says why the trim threshold is raised.  Setting it
    turns off glibc's dynamic mmap threshold, so the mmap threshold is set
    as well, above the integrand's temporaries.
    """
    try:
        mallopt = _libc().mallopt
    except (OSError, TypeError, AttributeError):
        # OSError: no loader; TypeError: CDLL(None) on Windows;
        # AttributeError: a C library without mallopt.
        pass
    else:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    return _build_parser()


def main(argv: list[str] | None = None) -> int:
    flags = vars(_process_parser().parse_args(argv))
    try:
        # run() validates the spec and resolves its material, once.
        return run(_merged_spec(flags.pop("config"), flags))
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
