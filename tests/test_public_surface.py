"""The package's public surface: every name the benchmark calls exists, and
the package exports exactly what its submodules export."""

import importlib.util
import re
from pathlib import Path

import casimir_impedance as ci
from casimir_impedance import (
    constants,
    finite_temperature,
    geometry,
    materials,
    quadrature,
    reflection,
    series,
    zero_temperature,
)

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_TRACING = _WORKLOADS.with_name("tracing.py")

# The benchmark tracer's boundaries that no module imports any more.  The
# CLI takes each row's energy and force, or its deviations, from one call
# of the plate core, so it no longer calls energy_pp0 and force_pp0.
_ABSENT_BOUNDARIES = {
    "cli.energy_pp0",
    "cli.force_pp0",
    "zero_temperature.impedance",
    "zero_temperature.reflection_factors",
    "finite_temperature.integrate_y_from",
    "finite_temperature.sum_matsubara_primed",
    "finite_temperature.impedance",
    "finite_temperature.reflection_factors",
    "finite_temperature.static_reflection_factors",
}


def test_every_name_the_benchmark_calls_exists():
    # The benchmark counts an operation that raises as failed, so a removed
    # name it still calls would fail it.
    names = set(re.findall(r"\bci\.([A-Za-z_]\w*)", _WORKLOADS.read_text()))
    assert names
    assert sorted(name for name in names if not hasattr(ci, name)) == []


def test_the_tracer_loses_no_boundary():
    # The tracer times a layer by wrapping a name one module imports from the
    # next; a name that goes is reported absent and its time unattributed.
    # The absent set may shrink but not grow.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.remove()
    assert set(tracer.absent) <= _ABSENT_BOUNDARIES


def test_package_exports_the_union_of_its_submodules():
    modules = (
        constants, materials, geometry, quadrature, reflection, zero_temperature,
        finite_temperature, series,
    )
    submodule_names = set().union(*(m.__all__ for m in modules))
    assert set(ci.__all__) == submodule_names | {"__version__", "DEFAULT_CONFIG"}
    assert len(ci.__all__) == len(set(ci.__all__))
    assert all(hasattr(ci, name) for name in ci.__all__)


def test_every_public_name_has_a_product_use():
    # A public name that the README, the CLI, a demo and the benchmark all
    # leave out is a second entry to a computation that nothing documents.
    root = Path(__file__).resolve().parents[1]
    files = [
        root / "README.md",
        root / "src" / "casimir_impedance" / "cli.py",
        *(root / "demos").glob("*.py"),
        *(root / "perfbench").glob("*.py"),
        *(root / "perfbench").glob("*.md"),
    ]
    text = "\n".join(path.read_text() for path in files)
    unused = [name for name in ci.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []
