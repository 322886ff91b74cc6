"""Quadrature engine and the special-function helpers."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import casimir_impedance
from casimir_impedance import (
    ALUMINUM,
    ImpedanceKind,
    IntegrandError,
    QuadratureConfig,
    dilog,
    impedance,
    integrate_xi_y,
    log1mexp,
    reflection_factors,
)
from casimir_impedance import quadrature
from casimir_impedance.finite_temperature import _HEAD
from casimir_impedance.quadrature import (
    _ZETA_3,
    _ZETA_4,
    _ZETA_5,
    _ZETA_7_2,
    DEFAULT_CONFIG,
    _integrate_y_batch,
    _level_ordered,
)
from casimir_impedance.reflection import _impedance, _scale
from casimir_impedance.zero_temperature import force_bracket


def test_y_rule_from_zero(y_integral):
    res = y_integral(lambda y: y * np.exp(-y), 0.0)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12, abs=0)
    assert abs(res.value - 1.0) <= res.abs_error_estimate


def test_y_rule_offset_lower_bound(y_integral):
    # int_a^inf y e^-y dy = (1 + a) e^-a
    res = y_integral(lambda y: y * np.exp(-y), 2.0)
    assert res.value == pytest.approx(3.0 * math.exp(-2.0), rel=1e-12, abs=0)


def test_y_rule_cubic_moment(y_integral):
    res = y_integral(lambda y: y**3 * np.exp(-y), 0.0)
    assert res.value == pytest.approx(6.0, rel=1e-11, abs=0)


def test_y_rule_rejects_negative_lower(y_integral):
    with pytest.raises(ValueError, match=">= 0"):
        y_integral(lambda y: np.exp(-y), -1.0)


def test_y_rule_nonfinite_integrand(y_integral):
    def bad(y):
        out = np.exp(-y)
        out[y > 1.0] = np.nan
        return out

    with pytest.raises(IntegrandError, match="non-finite"):
        y_integral(bad, 0.0)


@pytest.mark.parametrize("points", [True, False], ids=["per-point", "per-row"])
def test_integrate_xi_y_nonfinite_integrand_names_both_coordinates(points):
    # A value of y alone may come back once per row; the check still names
    # a point where it is non-finite.
    def bad(xi, y):
        out = np.where(y > 1.0, np.nan, np.exp(-y))
        return out * np.ones_like(xi) if points else out

    with pytest.raises(IntegrandError, match=r"xi=.*y=") as info:
        integrate_xi_y(bad)
    # The message names the point; y is past the jump.
    assert float(re.search(r"y=([-+.\deE]+)", str(info.value)).group(1)) > 1.0


def test_wedge_names_a_single_nan_among_its_first_pass():
    # The values are searched only when their sum is not finite, and a NaN
    # makes it so: one NaN among the 12,375 values of the first pass is
    # named at its (xi, y).
    y = quadrature._wedge_table(2, quadrature._WEDGE_T_LO)[0]
    xi = quadrature._first_pass_points(quadrature._WEDGE_T_LO)

    def f(xi, y):
        out = np.exp(-y) * np.ones_like(xi)
        out[50, 60] = np.nan
        return out

    with pytest.raises(IntegrandError) as info:
        integrate_xi_y(f)
    assert str(info.value) == (
        f"integrand returned non-finite value at (xi={float(xi[50, 60])!r}, y={float(y[50])!r})"
    )


@pytest.mark.parametrize("lower", [0.0, 11.84])
def test_an_integrand_that_writes_into_its_xi_leaves_the_node_table_intact(lower):
    # At lower = 0 the wedge hands its integrand read-only slices of the
    # cached first-pass xi = u y, so writing into them raises; a shifted
    # wedge hands it xi + lower, an array of its own.  Either way the
    # cached points keep their values for the next call.
    table = quadrature._first_pass_points(quadrature._WEDGE_T_LO)
    before = table.copy()

    def f(xi, y):
        xi *= 0.5
        return np.exp(-y) * np.ones_like(xi)

    if lower == 0.0:
        with pytest.raises(ValueError, match="read-only"):
            integrate_xi_y(f)
    else:
        assert integrate_xi_y(f, lower=lower).converged
    assert not table.flags.writeable and table.tobytes() == before.tobytes()


def test_finite_values_whose_sum_overflows_are_not_rejected():
    # Finite values near the largest double overflow their sum; no value is
    # non-finite, so the rules return the overflowed integral unconverged.
    def f(xi, y):
        return np.full(np.broadcast_shapes(xi.shape, y.shape), 1e308)

    with np.errstate(over="ignore", invalid="ignore"):
        res = integrate_xi_y(f)
        values, _, _, converged = _integrate_y_batch(f, np.array([0.0, 1.0]), DEFAULT_CONFIG)
    assert res.value == math.inf and not res.converged
    assert (values == math.inf).all() and not converged.any()


def test_y_rule_deterministic(y_integral):
    f = lambda y: y**2 / np.expm1(y + 1e-9)
    a = y_integral(f, 0.0)
    b = y_integral(f, 0.0)
    assert a.value == b.value and a.evaluations == b.evaluations


def test_wedge_integral_ideal_mode_density():
    # int_0^inf dxi int_xi^inf 2 y ln(1 - e^-y) dy = -4 zeta(4)
    res = integrate_xi_y(lambda xi, y: 2.0 * y * log1mexp(y))
    assert res.converged
    assert res.value == pytest.approx(-4.0 * _ZETA_4, rel=1e-9, abs=0)


def test_wedge_integral_exponential():
    # inner integral e^-xi, outer gives exactly 1; from a lower corner
    # xi_0 it gives e^-xi_0
    for lower in (0.0, 2.5):
        res = integrate_xi_y(lambda xi, y: np.exp(-y) * np.ones_like(xi), lower=lower)
        assert res.value == pytest.approx(math.exp(-lower), rel=1e-10, abs=0)


def _plate_integrand(kind, a):
    """The impedance-formalism force integrand of aluminum plates at a."""
    def f(xi, y):
        Z = impedance(kind, xi, a, ALUMINUM)
        return y * y * force_bracket(*reflection_factors(Z, y, xi), y)
    return f


@pytest.mark.parametrize("f", [
    lambda xi, y: 2.0 * y * log1mexp(y),
    _plate_integrand(ImpedanceKind.PLASMA_EXACT, 1e-6),
    _plate_integrand(ImpedanceKind.NORMAL_SKIN, 1e-3),
], ids=["ideal-energy", "plasma-exact", "normal-skin"])
def test_error_estimate_bounds_tolerance_refinement(f):
    # tightening the tolerance moves a converged value by less than the
    # previously reported estimate
    coarse = integrate_xi_y(f, QuadratureConfig(rel_tol=1e-6))
    fine = integrate_xi_y(f, QuadratureConfig(rel_tol=1e-12))
    assert coarse.converged and fine.converged
    assert abs(coarse.value - fine.value) <= coarse.abs_error_estimate


def test_wedge_rule_stops_unconverged_at_its_level_cap():
    # A jump along y = 1 defeats the double-exponential rule, which converges
    # only like h there; the last level is returned, flagged unconverged.
    sizes = []

    def step(xi, y):
        sizes.append(np.broadcast(xi, y).size)
        # Every level up to the cap keeps its points in 0 <= lower <= xi <= y.
        _assert_in_domain(0.0, xi, y)
        return np.where(y < 1.0, 1.0, 0.0)

    res = integrate_xi_y(step)
    assert not res.converged
    assert res.value == pytest.approx(0.5, rel=2e-2, abs=0)
    assert res.evaluations == sum(sizes) == 794_523
    assert max(sizes) <= quadrature._EVAL_MAX


def _assert_in_domain(lower, xi, y):
    """lower <= xi <= y, and Z >= 0 at xi for every impedance kind (the
    ideal metal's is 0), as the plate integrand relies on."""
    assert np.all((lower <= xi) & (xi <= y))
    for kind in ImpedanceKind:
        scale = _scale(kind, 1e-6, ALUMINUM)
        if scale is not None:
            assert np.all(_impedance(kind, xi, scale) >= 0.0)


def test_shifted_wedge_points_stay_in_the_domain_up_to_the_level_cap():
    # The plate integrand relies on 0 <= lower <= xi <= y; a jump at
    # y = lower + 1 keeps the rule refining to its cap.  The points are
    # checked as they come, not stored.  The lowers include step * L of the
    # Euler-Maclaurin tail's wedges.
    for lower in (2.5, 0.16, 23.0, 32.0):

        def step(xi, y):
            _assert_in_domain(lower, xi, y)
            return np.where(y < lower + 1.0, 1.0, 0.0)

        res = integrate_xi_y(step, lower=lower)
        assert not res.converged and res.evaluations == 794_523, lower


def test_y_rule_points_stay_in_the_domain_up_to_the_level_cap():
    # The plate integrand relies on y >= xi >= 0: xi is a column of the
    # lower bounds, 0 among them, and y >= xi on each row at every level up
    # to the cap.  The lowers include the Matsubara batches at the head.
    cap = _nodes(quadrature._DE_H0 / 2**quadrature._DE_LEVELS)
    for lowers in (
        np.array([0.0, 0.5, 2.5]),
        *(step * np.arange(_HEAD + 4) for step in (0.005, 0.19, 40.0)),
    ):

        def jump(xi, y):
            assert np.all(np.isin(xi, lowers))
            _assert_in_domain(0.0, xi, y)
            return np.where(y < xi + 1.0, np.exp(xi - y), 0.0)

        _, _, evals, conv = _integrate_y_batch(jump, lowers, DEFAULT_CONFIG)
        assert not conv.any() and np.all(evals == cap), lowers[1]


def _counted(f, sizes):
    """f, recording the number of points of every call."""
    def counted(xi, y):
        sizes.append(np.broadcast(xi, y).size)
        return f(xi, y)
    return counted


@pytest.mark.parametrize("lower", [0.0, 2.5])
def test_wedge_evaluations_count_the_points_handed_to_the_integrand(lower):
    # The wedge passes xi as rows of nodes and y as a column; evaluations
    # counts the points they broadcast to.  A wedge that converges in the
    # first pass makes one integrand call on every node of the second
    # halving, 99 nodes of t against 125 of s.
    sizes = []
    f = _plate_integrand(ImpedanceKind.PLASMA_EXACT, 1e-6)
    res = integrate_xi_y(_counted(f, sizes), lower=lower)
    assert res.converged and res.evaluations == sum(sizes)
    assert sizes == [12_375]


@pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-8, 1e-7, 1e-5, 1e-3])
def test_wedge_error_estimate_covers_a_boundary_peak_in_u(eps):
    # sqrt(xi / (xi + eps y)) rises from 0 to 1 within u ~ eps of u = 0, a
    # boundary layer like that of the normal-skin Lifshitz integrand.  The
    # wedge of e^-y times it is exactly
    # sqrt(1 + eps) - eps ln((1 + sqrt(1 + eps)) / sqrt(eps)).  Both steps
    # halve together, so the level differences see the layer.  A rule that
    # took u at twice the y step, with a geometric tail of its u halvings,
    # was off by 4.3e-13 at eps = 1e-8, 38 times its estimate.
    root = math.sqrt(1.0 + eps)
    exact = root - eps * math.log((1.0 + root) / math.sqrt(eps))
    for rel_tol in (1e-6, 1e-9, 1e-12):
        res = integrate_xi_y(
            lambda xi, y: np.exp(-y) * np.sqrt(xi / (xi + eps * y)),
            QuadratureConfig(rel_tol=rel_tol),
        )
        assert res.converged
        assert abs(res.value - exact) <= res.abs_error_estimate, rel_tol


def test_y_rule_evaluations_count_the_points_handed_to_the_integrand(monkeypatch):
    # The y rule passes xi as a column of lower bounds and y in full.  A
    # small point cap splits its first pass into chunks, and at rel_tol
    # 1e-14 later levels run.
    monkeypatch.setattr(quadrature, "_EVAL_MAX", 1_000)
    sizes = []
    f = _plate_integrand(ImpedanceKind.PLASMA_EXACT, 1e-6)
    lowers = np.linspace(0.0, 3.0, 20)
    evals = _integrate_y_batch(_counted(f, sizes), lowers, QuadratureConfig(rel_tol=1e-14))[2]
    assert len(sizes) > 3 and int(evals.sum()) == sum(sizes)


@pytest.mark.parametrize("lower", [0.0, 2.5])
def test_wedge_trim_below_x_1e_8_is_negligible(lower, monkeypatch):
    # The wedge's nodes start at x = 1e-8; the corner below moves the value
    # by far less than its estimate.
    f = lambda xi, y: np.exp(-y) * np.ones_like(xi)
    trimmed = integrate_xi_y(f, lower=lower)
    monkeypatch.setattr(quadrature, "_WEDGE_T_LO", quadrature._DE_T_LO)
    full = integrate_xi_y(f, lower=lower)
    assert trimmed.converged and full.converged
    assert full.evaluations > trimmed.evaluations
    diff = abs(trimmed.value - full.value)
    assert diff <= 1e-14 * abs(full.value) and diff <= trimmed.abs_error_estimate


def test_config_validation():
    with pytest.raises(ValueError, match="rel_tol"):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError, match="rel_tol"):
        QuadratureConfig(rel_tol=1.5)


def test_default_config_values():
    assert DEFAULT_CONFIG.rel_tol == 1e-9
    assert quadrature._Y_MARGIN == 45.0


def test_log1mexp_branches():
    # continuity across the ln 2 crossover
    eps = 1e-12
    lo = log1mexp(math.log(2.0) - eps)
    hi = log1mexp(math.log(2.0) + eps)
    assert abs(lo - hi) < 1e-11
    # both branches round-trip through exp
    for y in (1e-12, 1e-6, 0.1, 0.693, 0.694, 5.0, 30.0):
        assert math.exp(log1mexp(y)) == pytest.approx(-math.expm1(-y), rel=1e-13, abs=0)
    # large argument: naive log(1 - exp(-y)) would round to 0
    assert log1mexp(40.0) == pytest.approx(-math.exp(-40.0), rel=1e-10, abs=0)


def test_log1mexp_vectorized():
    y = np.array([0.01, 1.0, 10.0])
    out = log1mexp(y)
    assert out.shape == y.shape
    np.testing.assert_allclose(out, [log1mexp(v) for v in y], rtol=1e-15)


def test_zeta_constants_are_correctly_rounded():
    mpmath = pytest.importorskip("mpmath")
    constants = {3.0: _ZETA_3, 3.5: _ZETA_7_2, 4.0: _ZETA_4, 5.0: _ZETA_5}
    for s, value in constants.items():
        assert value == float(mpmath.zeta(s)), s


def test_dilog_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    x = np.concatenate([
        np.linspace(0.0, 1.0, 1001),
        np.logspace(-300, 0, 301),
        1.0 - np.logspace(-16, -0.31, 100),
        [np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 5e-324],
    ])
    values = dilog(x)
    for xk, value in zip(x.tolist(), values.tolist()):
        exact = mpmath.polylog(2, xk)
        assert abs(value - exact) <= 8.5e-16 * exact, xk
        assert dilog(xk) == value


def test_package_runs_without_scipy():
    # numpy is the one runtime dependency: a fresh interpreter that imports
    # the package and computes a force loads no scipy module.
    src = str(Path(casimir_impedance.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from casimir_impedance import ALUMINUM, ImpedanceKind, ImpedanceModel, force_pp0\n"
        "ob = force_pp0(1e-6, ImpedanceModel(ImpedanceKind.PLASMA_EXACT), ALUMINUM)\n"
        "assert ob.quadrature.converged\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert run.stdout.strip() == "[]"


def test_zeta_4_is_one_ulp_above_its_rounded_closed_form():
    # pi**4 / 90 rounds twice and lands one ulp below zeta(4).
    assert _ZETA_4 == pytest.approx(math.pi**4 / 90.0, rel=1e-15, abs=0)
    assert _ZETA_4 == math.nextafter(math.pi**4 / 90.0, math.inf)


def test_dilog_values():
    assert dilog(0.0) == 0.0
    assert dilog(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14, abs=0)
    assert dilog(0.5) == pytest.approx(
        math.pi**2 / 12.0 - 0.5 * math.log(2.0) ** 2, rel=1e-14, abs=0
    )
    with pytest.raises(ValueError, match="0 <= x <= 1"):
        dilog(1.5)


def _nodes(h):
    """Number of exp-sinh nodes at trapezoid step h."""
    return _level_ordered(h, quadrature._DE_T_LO, quadrature._DE_T_HI, 0)[0].size


def test_integrate_y_batch_groups_are_independent():
    # A smooth decay that converges in the first pass, a peak that needs one
    # or two more levels depending on its lower bound, and a noise-limited
    # integrand that never converges, each integral's picked by its lower
    # bound, which the rule passes as xi.
    lowers = np.array([0.0, 0.5, 0.1, 1.0, 2.0, 0.25, 3.0])
    kind = dict(zip(lowers.tolist(), [0, 1, 2] * 3))

    def f(xi, y):
        smooth = y**2 * np.exp(-y)
        peak = np.exp(-y) / ((y - 3.7) ** 2 + 0.3)
        noise = np.exp(-y) + 1e-9 * np.sin(1e12 * y)
        which = np.array([[kind[x]] for x in xi[:, 0].tolist()])
        return np.choose(which, [smooth, peak, noise])

    vals, errs, evals, conv = _integrate_y_batch(f, lowers, DEFAULT_CONFIG)
    for g, lower in enumerate(lowers):
        one = _integrate_y_batch(f, [lower], DEFAULT_CONFIG)
        assert vals[g] == one[0][0] and errs[g] == one[1][0]
        assert evals[g] == one[2][0]
        assert conv[g] == one[3][0]
    first_pass = _nodes(quadrature._DE_H0 / 4)
    cap = _nodes(quadrature._DE_H0 / 2**quadrature._DE_LEVELS)
    assert np.all(evals[0::3] == first_pass) and np.all(conv[0::3])
    # The two peaks stop at different levels, both before the cap.
    assert first_pass < evals[4] < evals[1] < cap and np.all(conv[1::3])
    # The noise-limited groups run to the level cap and report it.
    assert np.all(evals[2::3] == cap) and not np.any(conv[2::3])

    # A tuple integrand: one contiguous row per component, each bit for bit
    # its own call.  The smooth component converges in the first pass at
    # every lower bound and turns NaN afterwards: frozen, it is neither
    # checked nor counted again while the others run on.
    calls = []

    def components(xi, y):
        calls.append(1)
        smooth = y**2 * np.exp(-y) + 0.0 * xi
        noise = np.exp(-y) + 1e-9 * np.sin(1e12 * y)
        return smooth if len(calls) == 1 else smooth * np.nan, f(xi, y), noise

    rows = _integrate_y_batch(components, lowers, DEFAULT_CONFIG)
    assert len(calls) > 1
    for c in range(3):
        calls.clear()
        one = _integrate_y_batch(lambda xi, y, c=c: components(xi, y)[c], lowers, DEFAULT_CONFIG)
        for got, want in zip(rows, one):
            assert got.shape == (3, lowers.size) and got[c].flags.c_contiguous
            assert got[c].tolist() == want.tolist()
    assert np.all(rows[2][0] == first_pass) and np.all(rows[3][0])


def test_panel_evaluation_is_sliced_above_the_point_cap(monkeypatch):
    # 300 groups of 125 first-pass nodes: 37,500 points in the first pass.
    sizes = []

    def f(xi, y):
        sizes.append(y.size)
        return (1.0 + xi) * y**2 * np.exp(-y)

    lowers = np.linspace(0.0, 3.0, 300)
    cap = quadrature._EVAL_MAX
    sliced = _integrate_y_batch(f, lowers, DEFAULT_CONFIG)
    assert max(sizes) <= cap
    monkeypatch.setattr(quadrature, "_EVAL_MAX", 10**9)
    sizes.clear()
    whole = _integrate_y_batch(f, lowers, DEFAULT_CONFIG)
    assert sizes[0] > cap
    for a, b in zip(sliced, whole):
        np.testing.assert_array_equal(a, b)


def _smooth(xi, y):
    return np.exp(-y) * np.ones_like(xi)


def _peak(xi, y):
    # A peak across the wedge, at u = 1/2, that the rule resolves only past
    # its first pass.
    return np.exp(-y) / (1.0 + 100.0 * (xi / y - 0.5) ** 2)


def test_wedge_components_each_get_their_lone_result():
    # Components of one integrand have their own level sums and stop tests:
    # one that stops after the first pass is frozen there while another
    # refines on, and each gets the bits of its own call.  The call's own
    # accounting is the points of its deepest component.
    config = QuadratureConfig(rel_tol=1e-9)
    lone = [integrate_xi_y(g, config) for g in (_smooth, _peak)]
    assert (lone[0].evaluations, lone[1].evaluations) == (12_375, 49_447)
    both = integrate_xi_y(lambda xi, y: (_smooth(xi, y), _peak(xi, y)), config)
    assert list(both) == lone
    assert (both.evaluations, both.converged) == (lone[1].evaluations, True)
    (one,) = integrate_xi_y(lambda xi, y: (_smooth(xi, y),), config)
    assert one == lone[0]


def test_a_frozen_wedge_component_is_no_longer_evaluated():
    # Finite only on the rows of the first pass: alone it stops there, so
    # beside a component that refines on it is never checked again.
    rows = quadrature._wedge_table(2, quadrature._WEDGE_T_LO)[0]

    def first_pass_only(xi, y):
        return np.where(np.isin(y, rows), np.exp(-y), np.nan) * np.ones_like(xi)

    config = QuadratureConfig(rel_tol=1e-9)
    both = integrate_xi_y(lambda xi, y: (first_pass_only(xi, y), _peak(xi, y)), config)
    assert list(both) == [integrate_xi_y(g, config) for g in (first_pass_only, _peak)]


def test_a_non_finite_wedge_component_names_its_point():
    def bad(xi, y):
        return np.where(xi > 2.0, np.nan, np.exp(-y))

    with pytest.raises(IntegrandError, match=r"xi=.*y=") as info:
        integrate_xi_y(lambda xi, y: (_smooth(xi, y), bad(xi, y)))
    assert float(re.search(r"xi=([-+.\deE]+)", str(info.value)).group(1)) > 2.0
