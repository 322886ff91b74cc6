"""Shared fixtures: the aluminum preset, commonly used model choices, the y
rule on a single lower bound and the integral form of the ideal-metal energy
at T."""

import math

import numpy as np
import pytest

from casimir_impedance import (
    ALUMINUM,
    CODATA,
    Formalism,
    ImpedanceKind,
    ImpedanceModel,
    QuadratureConfig,
    QuadratureResult,
    effective_temperature,
    log1mexp,
)
from casimir_impedance.quadrature import DEFAULT_CONFIG, _integrate_y_batch

# One summary line per acceptance check, echoed after the run so the
# verdicts are visible regardless of output capturing.
_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def record_acceptance():
    def record(number: int, label: str, passed: bool, details: str) -> None:
        verdict = "PASS" if passed else "FAIL"
        _ACCEPTANCE_LINES.append(f"ACCEPTANCE {number} {label}: {verdict} ({details})")

    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def aluminum():
    return ALUMINUM


@pytest.fixture
def ideal_model():
    return ImpedanceModel(ImpedanceKind.IDEAL_METAL)


@pytest.fixture
def plasma_impedance():
    return ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.IMPEDANCE)


@pytest.fixture
def plasma_lifshitz():
    return ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.LIFSHITZ)


@pytest.fixture
def fast_config():
    """Looser tolerance for property-style tests where speed matters."""
    return QuadratureConfig(rel_tol=1e-7)


@pytest.fixture
def y_integral():
    """int_lower^inf f(y) dy from the engine's y rule on one lower bound, as
    a QuadratureResult; ``f`` takes y alone."""

    def integrate(f, lower: float, config: QuadratureConfig = DEFAULT_CONFIG):
        values, errors, evaluations, converged = _integrate_y_batch(
            lambda _xi, y: f(y), [lower], config
        )
        return QuadratureResult(
            value=float(values[0]),
            abs_error_estimate=float(errors[0]),
            evaluations=int(evaluations[0]),
            converged=bool(converged[0]),
        )

    return integrate


@pytest.fixture
def ideal_energy_T_integral():
    """Ideal-metal energy at T from the primed sum of mode integrals,

        E = k_B T / (4 pi a^2) * S'_l int_{xi_l} dy y ln(1 - e^-y),

    an oracle independent of the closed series of ``ideal_energy_T``.  It
    sums every term to xi_l = 80, past which they are below 1e-30 of the
    sum, so it shares no stop rule with the package."""

    def energy(a: float, T: float, config: QuadratureConfig = DEFAULT_CONFIG) -> float:
        step = 2.0 * math.pi * T / effective_temperature(a)
        lowers = step * np.arange(math.ceil(80.0 / step) + 1)
        terms = _integrate_y_batch(lambda _xi, y: y * log1mexp(y), lowers, config)[0]
        total = math.fsum([0.5 * terms[0], *terms[1:].tolist()])
        return CODATA.k_B * T / (4.0 * math.pi * a**2) * total

    return energy
