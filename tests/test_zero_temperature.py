"""Zero-temperature observables: closed forms, quadrature routes, deviations."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from casimir_impedance import (
    ALUMINUM,
    CODATA,
    Formalism,
    ImpedanceKind,
    ImpedanceModel,
    ObservableKind,
    QuadratureConfig,
    energy_pp0,
    force_pp0,
    force_ppT,
    force_sphere0,
    ideal_closed_forms,
    impedance,
    normal_skin_pert0,
    reflection_factors,
    static_reflection_factors,
)
from casimir_impedance import quadrature, reflection, zero_temperature
from casimir_impedance.quadrature import DEFAULT_CONFIG
from casimir_impedance.zero_temperature import _integrand, energy_bracket, force_bracket

import expression_kernel as frozen


def test_ideal_closed_forms():
    a = 1e-6
    e, f = ideal_closed_forms(a)
    hc = CODATA.hbar * CODATA.c
    assert e == pytest.approx(-math.pi**2 * hc / (720.0 * a**3), rel=1e-15, abs=0)
    assert f == pytest.approx(-math.pi**2 * hc / (240.0 * a**4), rel=1e-15, abs=0)
    # F = -dE/da holds exactly for the power laws
    assert f == pytest.approx(3.0 * e / a, rel=1e-15, abs=0)
    with pytest.raises(ValueError, match="positive"):
        ideal_closed_forms(0.0)


def test_brackets_at_zero_reflection_factor():
    y = np.array([0.5, 2.0, 10.0])
    np.testing.assert_allclose(
        energy_bracket(0.0, 0.0, y), 2.0 * np.log(-np.expm1(-y)), rtol=1e-12
    )
    np.testing.assert_allclose(
        force_bracket(0.0, 0.0, y), 2.0 / np.expm1(y), rtol=1e-14
    )


def test_force_bracket_saturates_at_unit_factor():
    assert force_bracket(1.0, 1.0, 3.0) == 0.0


def test_ideal_quadrature_matches_closed_form(ideal_model):
    a = 1e-6
    e_closed, f_closed = ideal_closed_forms(a)
    e = energy_pp0(a, ideal_model)
    f = force_pp0(a, ideal_model)
    assert e.value == pytest.approx(e_closed, rel=1e-9, abs=0)
    assert f.value == pytest.approx(f_closed, rel=1e-9, abs=0)
    assert e.quadrature.converged and f.quadrature.converged


def test_lifshitz_ideal_matches_closed_form():
    a = 5e-7
    model = ImpedanceModel(ImpedanceKind.IDEAL_METAL, Formalism.LIFSHITZ)
    e = energy_pp0(a, model)
    assert e.value == pytest.approx(ideal_closed_forms(a)[0], rel=1e-9, abs=0)


def test_observable_metadata(aluminum, plasma_impedance, fast_config):
    a = 1e-6
    obs = energy_pp0(a, plasma_impedance, aluminum, fast_config)
    assert obs.kind is ObservableKind.ENERGY_PER_AREA
    assert obs.temperature == 0.0
    assert obs.geometry.separation == a
    assert obs.model is plasma_impedance
    assert obs.quadrature.value == obs.value
    assert abs(obs.quadrature.abs_error_estimate) < abs(obs.value)


def test_real_metal_binds_less_than_ideal(aluminum, plasma_impedance, fast_config):
    a = 1e-6
    e_ideal = ideal_closed_forms(a)[0]
    e = energy_pp0(a, plasma_impedance, aluminum, fast_config).value
    assert e < 0.0
    assert abs(e) < abs(e_ideal)


def test_attraction_weakens_with_separation(aluminum, plasma_impedance, fast_config):
    f1 = force_pp0(1e-7, plasma_impedance, aluminum, fast_config).value
    f2 = force_pp0(2e-7, plasma_impedance, aluminum, fast_config).value
    assert f1 < f2 < 0.0


def test_force_is_energy_gradient(aluminum, plasma_impedance, fast_config):
    # F = -dE/da via central difference on the full quadrature route
    a, h = 1e-6, 1e-8
    e_hi = energy_pp0(a + h, plasma_impedance, aluminum, fast_config).value
    e_lo = energy_pp0(a - h, plasma_impedance, aluminum, fast_config).value
    f = force_pp0(a, plasma_impedance, aluminum, fast_config).value
    assert f == pytest.approx(-(e_hi - e_lo) / (2.0 * h), rel=1e-3, abs=0)


def test_sphere_plate_mapping(aluminum, plasma_impedance, fast_config):
    a, R = 1e-6, 1e-4
    e = energy_pp0(a, plasma_impedance, aluminum, fast_config)
    f_sp = force_sphere0(a, R, plasma_impedance, aluminum, fast_config)
    assert f_sp.kind is ObservableKind.SPHERE_PLATE_FORCE
    assert f_sp.value == pytest.approx(2.0 * math.pi * R * e.value, rel=1e-14, abs=0)
    f_sp2 = force_sphere0(a, 2.0 * R, plasma_impedance, aluminum, fast_config)
    assert f_sp2.value == pytest.approx(2.0 * f_sp.value, rel=1e-14, abs=0)


@pytest.mark.parametrize("T", [0.0, 300.0])
def test_sphere_radius_is_checked_before_the_plate_sum(T, monkeypatch, aluminum, plasma_impedance):
    # An invalid R raises before any wedge or Matsubara sum is taken.
    from casimir_impedance import finite_temperature, zero_temperature

    def no_sum(*args, **kwargs):
        raise AssertionError("plate sum taken before R was checked")

    monkeypatch.setattr(zero_temperature, "integrate_xi_y", no_sum)
    monkeypatch.setattr(finite_temperature, "_matsubara_correction", no_sum)
    with pytest.raises(ValueError, match="sphere_radius"):
        if T == 0.0:
            force_sphere0(1e-6, -1e-4, plasma_impedance, aluminum)
        else:
            finite_temperature.sphere_plate_T(1e-6, -1e-4, T, plasma_impedance, aluminum)


def _deviation(observable, kind, a, material, config):
    """(Q_L - Q_imp) / Q_L as figure1 and figure2 print it."""
    force = observable is force_pp0
    kind_of = ObservableKind.FORCE_PER_AREA if force else ObservableKind.ENERGY_PER_AREA
    return zero_temperature._deviation(kind_of, (kind,), a, material, config)[0][1]


def test_deviation_pins_at_100nm(aluminum, fast_config):
    # frozen values for Al at a = 100 nm, both formalisms fully converged
    d_f = _deviation(force_pp0, ImpedanceKind.PLASMA_EXACT, 1e-7, aluminum, fast_config)
    assert d_f == pytest.approx(4.635e-3, rel=2e-3, abs=0)
    d_e = _deviation(energy_pp0, ImpedanceKind.PLASMA_EXACT, 1e-7, aluminum, fast_config)
    assert d_e == pytest.approx(3.0933e-3, rel=2e-3, abs=0)


def test_deviation_approx_kind(aluminum, fast_config):
    d_e = _deviation(energy_pp0, ImpedanceKind.PLASMA_APPROX, 1e-7, aluminum, fast_config)
    assert d_e == pytest.approx(3.030e-3, rel=2e-3, abs=0)


def test_deviation_shrinks_with_separation(aluminum, fast_config):
    d_near = _deviation(force_pp0, ImpedanceKind.PLASMA_EXACT, 1e-7, aluminum, fast_config)
    d_far = _deviation(force_pp0, ImpedanceKind.PLASMA_EXACT, 1e-6, aluminum, fast_config)
    assert 0.0 < abs(d_far) < abs(d_near)


def test_normal_skin_corrections(aluminum):
    a = 1e-3
    e, f = normal_skin_pert0(a, aluminum)
    e0, f0 = ideal_closed_forms(a)
    root = math.sqrt(CODATA.c / (aluminum.sigma * a))
    assert 1.0 - e / e0 == pytest.approx(1.6578e-3, rel=1e-3, abs=0)
    assert 1.0 - f / f0 == pytest.approx(1.9341e-3, rel=1e-3, abs=0)
    # the coefficients multiplying sqrt(c/(sigma a))
    assert (1.0 - e / e0) / root == pytest.approx(1.656273, rel=1e-5, abs=0)
    assert (1.0 - f / f0) / root == pytest.approx(1.932318, rel=1e-5, abs=0)


def test_normal_skin_domain(aluminum):
    with pytest.raises(ValueError, match="out of range"):
        normal_skin_pert0(1e-7, aluminum)


@pytest.mark.parametrize("a", [-1e-6, 0.0, math.nan, math.inf])
def test_normal_skin_pert0_names_a_bad_separation_before_its_domain(a, aluminum):
    with pytest.raises(ValueError, match=f"separation must be positive and finite, got {a!r}"):
        normal_skin_pert0(a, aluminum)


def _graded_edges(top):
    """Panel edges 0, 2^-40, 2^-39, ..., 1, then doubling up to top."""
    edges = [0.0] + [2.0**k for k in range(-40, 1)]
    while 2.0 * edges[-1] < top:
        edges.append(2.0 * edges[-1])
    return np.array(edges + [top])


def _gauss_legendre(edges, n):
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _normal_skin_oracle(energy, a, n):
    """Plate energy or pressure from the ideal closed form plus the real-metal
    correction (bracket minus ideal bracket) on a graded Gauss-Legendre
    product with xi = s^2 and y = xi + v, which makes Z ~ sqrt(xi) smooth."""
    s, ws = _gauss_legendre(_graded_edges(math.sqrt(90.0)), n)
    v, wv = _gauss_legendre(_graded_edges(90.0), n)
    total = 0.0
    for rows in np.array_split(np.arange(s.size), s.size // 32):
        xi = s[rows, None] ** 2
        y = xi + v[None, :]
        Z = impedance(ImpedanceKind.NORMAL_SKIN, xi, a, ALUMINUM)
        x_par, x_perp = reflection_factors(Z, y, xi)
        em1 = np.expm1(y)
        if energy:
            corr = y * (np.log1p(x_par / em1) + np.log1p(x_perp / em1))
        else:
            # (1 - x)/(em1 + x) - 1/em1 = -x e^y / ((em1 + x) em1)
            corr = y * y * (x_par / (em1 + x_par) + x_perp / (em1 + x_perp)) / np.expm1(-y)
        total += float(((2.0 * s[rows] * ws[rows])[:, None] * corr * wv[None, :]).sum())
    e_ideal, f_ideal = ideal_closed_forms(a)
    hc = CODATA.hbar * CODATA.c
    if energy:
        return e_ideal + hc / (32.0 * math.pi**2 * a**3) * total
    return f_ideal - hc / (32.0 * math.pi**2 * a**4) * total


@pytest.mark.parametrize("a", [1e-3, 3e-3])
@pytest.mark.parametrize("energy", [True, False], ids=["energy", "force"])
def test_normal_skin_matches_graded_oracle(aluminum, a, energy):
    oracle = _normal_skin_oracle(energy, a, 24)
    assert _normal_skin_oracle(energy, a, 16) == pytest.approx(oracle, rel=1e-15, abs=0)
    op = energy_pp0 if energy else force_pp0
    ob = op(a, ImpedanceModel(ImpedanceKind.NORMAL_SKIN), aluminum)
    assert ob.quadrature.converged
    assert abs(ob.value - oracle) <= ob.quadrature.abs_error_estimate


@pytest.mark.parametrize("kind", list(ImpedanceKind))
@pytest.mark.parametrize("formalism", list(Formalism))
def test_wedge_cost_is_bounded(kind, formalism):
    # The fixed wedge rule converges within two halvings of its step (12,375
    # points) on the separations the figures use at the default tolerance,
    # and within three (49,447) at the ends of the sweep at a tight one.  A
    # plasma force at 1 um is exact at 12,375 points, though that level
    # still differs from the one before by 1.9e-9 relative: the geometric
    # tail of the shrinking differences sees the convergence, a plain
    # difference test spent a third halving on it.
    model = ImpedanceModel(kind, formalism)
    material = None if kind is ImpedanceKind.IDEAL_METAL else ALUMINUM
    tight = QuadratureConfig(rel_tol=1e-12)
    if kind is ImpedanceKind.NORMAL_SKIN:
        cases = [(1e-3, DEFAULT_CONFIG), (1e-5, tight), (1e-1, tight)]
    else:
        cases = [(1e-7, DEFAULT_CONFIG), (1e-6, DEFAULT_CONFIG), (1e-9, tight), (1e-4, tight)]
    for a, config in cases:
        for op in (energy_pp0, force_pp0):
            ob = op(a, model, material, config)
            assert ob.quadrature.converged
            assert ob.quadrature.evaluations <= (12_375 if config is DEFAULT_CONFIG else 49_447)


@pytest.mark.parametrize("kind", list(ImpedanceKind))
@pytest.mark.parametrize("formalism", list(Formalism))
def test_wedge_error_estimate_covers_a_deeper_level(kind, formalism, monkeypatch):
    # The geometric-tail estimate never under-reports: every converged wedge
    # lies within its abs_error_estimate of the rule's third halving (49,447
    # points), taken with the stop test off.  Most values stop at the second
    # halving, where the ideal-metal and the normal-skin forces from 0.1 mm
    # up are exact to roundoff: only the estimate's roundoff floor covers
    # the difference there.
    model = ImpedanceModel(kind, formalism)
    material = None if kind is ImpedanceKind.IDEAL_METAL else ALUMINUM
    if kind is ImpedanceKind.NORMAL_SKIN:
        separations = [1e-5, 3e-4, 1e-2, 1e-1]
    else:
        separations = [1e-9, 3e-8, 1e-6, 1e-4]
    for a in separations:
        for op in (energy_pp0, force_pp0):
            with monkeypatch.context() as m:
                m.setattr(quadrature, "_DE_LEVELS", 3)
                m.setattr(quadrature, "_target", lambda *args: -1.0)
                deeper = op(a, model, material).quadrature
            assert deeper.evaluations == 49_447
            for rel_tol in (1e-6, 1e-9, 1e-12):
                q = op(a, model, material, QuadratureConfig(rel_tol=rel_tol)).quadrature
                assert q.converged
                assert abs(q.value - deeper.value) <= q.abs_error_estimate, (a, op.__name__, rel_tol)


@pytest.mark.parametrize("formalism", list(Formalism))
def test_normal_skin_wedge_estimate_covers_a_rule_dense_in_u(formalism, monkeypatch):
    # The normal-skin Lifshitz integrand has a boundary layer near u = 0.
    # At 3.16 cm every converged wedge lies within its abs_error_estimate of
    # the rule's fourth halving (both steps 0.0125, 198,182 points), taken
    # with the stop test off.  A rule that took u at twice the y step was
    # off by 1.14 times its estimate on the Lifshitz force here.
    model = ImpedanceModel(ImpedanceKind.NORMAL_SKIN, formalism)
    a = 10.0**-1.5
    for op in (energy_pp0, force_pp0):
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_DE_LEVELS", 4)
            m.setattr(quadrature, "_target", lambda *args: -1.0)
            dense = op(a, model, ALUMINUM).quadrature
        assert dense.evaluations == 198_182
        for rel_tol in (1e-6, 1e-9, 1e-12):
            q = op(a, model, ALUMINUM, QuadratureConfig(rel_tol=rel_tol)).quadrature
            assert q.converged
            assert abs(q.value - dense.value) <= q.abs_error_estimate, (op.__name__, rel_tol)


def _model_material(kind, formalism):
    model = ImpedanceModel(kind, formalism)
    return model, None if kind is ImpedanceKind.IDEAL_METAL else ALUMINUM


@pytest.mark.parametrize("kind", list(ImpedanceKind))
@pytest.mark.parametrize("formalism", list(Formalism))
def test_wedge_trim_below_x_1e_8_is_negligible(kind, formalism, monkeypatch):
    # The wedge's nodes start at x = 1e-8, where its measure x dx bounds the
    # dropped corner by 5e-17 max|g|: the nodes down to 1e-30 move no value
    # by more than 1e-14 of it, nor by more than its estimate.
    model, material = _model_material(kind, formalism)
    if kind is ImpedanceKind.NORMAL_SKIN:
        separations = [1e-3, 3e-3, 1e-2]
    else:
        separations = [3e-8, 3e-7, 3e-6, 1e-5]
    for a in separations:
        for op in (energy_pp0, force_pp0):
            trimmed = op(a, model, material).quadrature
            with monkeypatch.context() as m:
                m.setattr(quadrature, "_WEDGE_T_LO", quadrature._DE_T_LO)
                full = op(a, model, material).quadrature
            assert trimmed.converged and full.evaluations > trimmed.evaluations
            diff = abs(trimmed.value - full.value)
            assert diff <= 1e-14 * abs(full.value), (a, op.__name__)
            assert diff <= trimmed.abs_error_estimate, (a, op.__name__)


def _one(g):
    """The one array of a one-request plate integrand g."""
    return lambda xi, y: g(xi, y)[0]


# Every (kind, formalism) pair with a static term: all but normal skin under
# the Lifshitz formalism.
_STATIC_PAIRS = [
    (kind, formalism)
    for kind in ImpedanceKind
    for formalism in Formalism
    if (kind, formalism) != (ImpedanceKind.NORMAL_SKIN, Formalism.LIFSHITZ)
]


@pytest.mark.parametrize("kind, formalism", _STATIC_PAIRS)
@pytest.mark.parametrize(
    "kind_of",
    [ObservableKind.ENERGY_PER_AREA, ObservableKind.FORCE_PER_AREA],
    ids=["energy", "force"],
)
@pytest.mark.parametrize("static", [False, True], ids=["wedge", "terms"])
def test_integrand_on_factored_points_equals_its_flat_call(kind, formalism, kind_of, static):
    # The wedge hands the plate integrand y as a column against rows of xi,
    # the y rule xi as a column of lower bounds against rows of y.  Each
    # point gets the bits it gets from flat arrays, at xi = 0 too.
    model, material = _model_material(kind, formalism)
    a = 1e-3 if kind is ImpedanceKind.NORMAL_SKIN else 1e-6
    g = _one(_integrand(((kind_of, model),), a, material, ideal=not static, static=static))
    y = np.geomspace(1e-8, 90.0, 40)[:, None]
    u = np.linspace(0.0, 1.0, 17)
    lowers = np.array([0.0, 0.3, 2.5, 40.0])[:, None]
    for xi, yy in ((u * y, y), (lowers, lowers + np.geomspace(1e-30, 90.0, 40))):
        shape = np.broadcast(xi, yy).shape
        flat = g(np.broadcast_to(xi, shape).ravel(), np.broadcast_to(yy, shape).ravel())
        factored = np.broadcast_to(g(xi, yy), shape)
        assert np.isfinite(flat).all()
        assert factored.tobytes() == flat.reshape(shape).tobytes()


def _first_pass():
    """The rows y of the wedge's first pass and its points xi, rows by columns."""
    return (quadrature._wedge_table(2, quadrature._WEDGE_T_LO)[0],
            quadrature._first_pass_points(quadrature._WEDGE_T_LO))


def _first_passes():
    """(xi, y, static) on the first-pass nodes of the wedge, from lower 0 and
    1.7, and of the y rule, from lower bounds 0 (static) and step l."""
    y, xi = _first_pass()
    for lower in (0.0, 1.7):
        yy = y[:, None]
        yield xi + lower, yy + lower, False
    x = quadrature._y_nodes(2)[0]
    for lowers, static in ((np.array([[0.0]]), True), (0.37 * np.arange(1, 6)[:, None], False)):
        yield lowers, lowers + x, static


@pytest.mark.parametrize("kind, formalism", _STATIC_PAIRS)
@pytest.mark.parametrize(
    "kind_of, ideal",
    [
        (ObservableKind.ENERGY_PER_AREA, True),
        (ObservableKind.ENERGY_PER_AREA, False),
        (ObservableKind.FORCE_PER_AREA, True),
    ],
    ids=["energy", "energy-material", "force"],
)
def test_resolved_integrand_gives_the_public_formulas_bits(kind, formalism, kind_of, ideal):
    # The integrand resolves its model once; at the nodes the rules
    # evaluate, it gives y times the bracket of the public impedance and
    # reflection factors bit for bit, with the static factors at xi = 0.
    model, material = _model_material(kind, formalism)
    a = 1e-3 if kind is ImpedanceKind.NORMAL_SKIN else 1e-6
    for xi, y, static in _first_passes():
        xi_b, y_b = np.broadcast_arrays(xi, y)
        Z = impedance(kind, xi_b, a, material)
        x_par, x_perp = reflection_factors(Z, y_b, xi_b, formalism)
        zero = xi_b == 0.0
        if static:
            assert zero.any()
            x_par[zero], x_perp[zero] = static_reflection_factors(model, y_b[zero], a, material)
        if kind_of is ObservableKind.ENERGY_PER_AREA:
            expected = y_b * energy_bracket(x_par, x_perp, y_b, ideal)
        else:
            expected = y_b * y_b * force_bracket(x_par, x_perp, y_b)
        g = _one(_integrand(((kind_of, model),), a, material, ideal=ideal, static=static))
        assert np.array_equal(np.broadcast_to(g(xi, y), y_b.shape), expected)


def _rule_shapes():
    """(xi, y, static) of the 99 x 125 first pass of the T = 0 wedge (y a
    column), the 36 x 125 first pass of a y-rule batch at step 0.37 (xi a
    column, l = 0 its static row) and 2,000 flat points with y >= xi."""
    y, xi = _first_pass()
    yield xi, y[:, None], False
    lowers = 0.37 * np.arange(36)[:, None]
    yield lowers, lowers + quadrature._y_nodes(2)[0], True
    rng = np.random.default_rng(7)
    yy = 10.0 ** rng.uniform(-8.0, 2.0, 2000)
    yield yy * rng.uniform(0.0, 1.0, 2000), yy, False


def _kernel_shapes():
    """``_rule_shapes`` and the other shapes the kernel meets: the shifted
    wedge's first pass (lower = 32 * step at step 0.37, the
    Euler-Maclaurin tail), both blocks of level 3 (its new rows against
    every column, and the old rows against the new columns), and flat points with exact zero numerators
    (xi = 0, and xi = 5e-324, where a plasma Z rounds to 0; x_perp is 0/0
    at both) and with a NaN among positive numerators alone."""
    yield from _rule_shapes()
    y, xi = _first_pass()
    lower = 32 * 0.37
    yield xi + lower, y[:, None] + lower, False
    y, u, _, rows, cols = quadrature._wedge_table(3, quadrature._WEDGE_T_LO)
    yield u * y[rows[-2]:, None], y[rows[-2]:, None], False
    yield u[cols[-2]:] * y[:rows[-2], None], y[:rows[-2], None], False
    yy = np.geomspace(1e-3, 60.0, 200)
    flat = yy * np.linspace(0.0, 1.0, 200)
    flat[1::7], flat[3::7] = 0.0, 5e-324
    yield flat, yy, False
    flat = yy * np.linspace(0.01, 1.0, 200)
    flat[57] = np.nan
    yield flat, yy, False


def _bits_equal(got, want, shape):
    return np.broadcast_to(got, shape).tobytes() == np.broadcast_to(want, shape).tobytes()


@pytest.mark.parametrize("kind, formalism", [(k, f) for k in ImpedanceKind for f in Formalism])
def test_in_place_integrand_gives_the_expression_forms_bits(kind, formalism):
    # The kernel writes its factors and brackets into arrays it owns; every
    # bit equals that of the same operations written as expressions
    # (tests/expression_kernel.py), alone and in the CLI's groupings, where
    # a model's factors serve several requests and are overwritten by the
    # last, on every shape the rules hand it (``_kernel_shapes``).
    model, material = ImpedanceModel(kind, formalism), ALUMINUM
    a = 1e-3 if kind is ImpedanceKind.NORMAL_SKIN else 1e-6
    groupings = [((_E, model),), ((_F, model),), ((_F, model), (_E, model), (_F, model))]
    groupings += [requests for requests in _cli_groupings() if (_E, model) in requests]
    groupings += [requests for requests in _cli_groupings() if (_F, model) in requests]
    for requests in groupings:
        # Normal skin has no static term under the Lifshitz formalism.
        has_static = all(
            (m.kind, m.formalism) != (ImpedanceKind.NORMAL_SKIN, Formalism.LIFSHITZ)
            for _, m in requests
        )
        for ideal in (True, False):
            for xi, y, static in _kernel_shapes():
                static = static and has_static
                got = _integrand(requests, a, material, ideal=ideal, static=static)(xi, y)
                want = frozen.plate_integrand(requests, a, material, ideal, static)(xi, y)
                shape = np.broadcast_shapes(xi.shape, y.shape)
                assert len(got) == len(want) == len(requests)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and _bits_equal(g, w, shape), (requests, ideal)


@pytest.mark.parametrize("formalism", list(Formalism))
def test_public_kernel_gives_the_expression_bits_and_leaves_its_arguments(formalism):
    # The public impedance, factors and brackets run the in-place kernel on
    # arrays of their own: read-only arguments stay untouched, and the bits
    # are those of the expressions, for arrays and for scalars.
    model = ImpedanceModel(ImpedanceKind.PLASMA_EXACT, formalism)
    kinds = [kind for kind in ImpedanceKind if kind is not ImpedanceKind.IDEAL_METAL]
    for (xi, y, _), kind in itertools.product(_rule_shapes(), kinds):
        xi, y = (np.array(v) for v in np.broadcast_arrays(xi, y))
        xi.flags.writeable = y.flags.writeable = False
        Z = impedance(kind, xi, 1e-6, ALUMINUM)
        scale = reflection._scale(kind, 1e-6, ALUMINUM)
        assert _bits_equal(Z, frozen.impedance(kind, xi, scale), y.shape)
        Z.flags.writeable = False
        factors = reflection_factors(Z, y, xi, formalism)
        expected = frozen.factors(Z, y, xi, formalism)
        assert all(_bits_equal(f, e, y.shape) for f, e in zip(factors, expected))
        for v in factors:
            v.flags.writeable = False
        for ideal in (True, False):
            got = energy_bracket(*factors, y, ideal)
            assert _bits_equal(got, frozen.energy_bracket(*factors, y, ideal), y.shape)
        assert _bits_equal(force_bracket(*factors, y), frozen.force_bracket(*factors, y), y.shape)
    static = static_reflection_factors(model, y, 1e-6, ALUMINUM)
    scale = reflection._scale(model.kind, 1e-6, ALUMINUM)
    expected = frozen.static_factors(model, y, scale)
    assert all(_bits_equal(s, e, y.shape) for s, e in zip(static, expected))
    scalars = reflection_factors(0.3, 2.0, 0.5, formalism)
    assert scalars == tuple(float(v) for v in frozen.factors(0.3, 2.0, 0.5, formalism))
    assert energy_bracket(*scalars, 2.0) == frozen.energy_bracket(*scalars, 2.0)
    assert force_bracket(*scalars, 2.0) == frozen.force_bracket(*scalars, 2.0)


# The tracemalloc peak of one plate call, in arrays of the wedge's first
# pass (12,375 points of 8 bytes), at the counts of the contiguous kernel:
# 4.04 under the impedance formalism (Z and the factors' three arrays),
# 5.04 under Lifshitz (one more for s) and 6.07 for a force whose Matsubara
# sum takes an Euler-Maclaurin tail, whose shifted wedge owns its
# xi + lower.  The kernel before it read 5.69, 6.69 and 6.73: a per-call
# xi = u y and the 64 KiB buffer numpy takes for a ufunc with a broadcast
# column.  Half an array of slack: a new full-size temporary fails.
_WORKING_SETS = [
    (op, kind, a, formalism, 4.04 if formalism is Formalism.IMPEDANCE else 5.04)
    for op in (force_pp0, energy_pp0)
    for kind, a in ((ImpedanceKind.PLASMA_EXACT, 1e-6), (ImpedanceKind.NORMAL_SKIN, 1e-3))
    for formalism in Formalism
]


def _peak_arrays(call) -> float:
    """The tracemalloc peak of call(), in arrays of 12,375 points, after a
    first call has built the node tables."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / (12_375 * 8)


@pytest.mark.parametrize("op, kind, a, formalism, arrays", _WORKING_SETS)
def test_a_plate_call_keeps_its_working_set(op, kind, a, formalism, arrays):
    model = ImpedanceModel(kind, formalism)
    assert _peak_arrays(lambda: op(a, model, ALUMINUM)) < arrays + 0.5


def test_a_tail_path_force_keeps_its_working_set():
    # At 1 um and 10 K the Matsubara step is 0.055: 36 y-integrals and the
    # wedge shifted to the 32nd term.
    model = ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.LIFSHITZ)
    assert _peak_arrays(lambda: force_ppT(1e-6, 10.0, model, ALUMINUM)) < 6.07 + 0.5


@pytest.mark.parametrize("op", [force_pp0, energy_pp0])
@pytest.mark.parametrize("kind", [ImpedanceKind.IDEAL_METAL, ImpedanceKind.PLASMA_EXACT])
def test_ideal_metal_wedge_integrand_is_one_value_per_row(op, kind, monkeypatch):
    # The ideal metal's integrand depends on y alone, so on the wedge's first
    # pass it returns one value per row of y; the wedge still counts every
    # point.  A plasma integrand returns every point.
    shapes = []

    def recording(*args, **kwargs):
        g = _integrand(*args, **kwargs)

        def recorded(xi, y):
            out = g(xi, y)
            shapes.append(out[0].shape)
            return out

        return recorded

    monkeypatch.setattr(zero_temperature, "_integrand", recording)
    model, material = _model_material(kind, Formalism.IMPEDANCE)
    res = op(1e-6, model, material).quadrature
    assert res.converged and res.evaluations == 12_375
    assert shapes == [(99, 1) if kind is ImpedanceKind.IDEAL_METAL else (99, 125)]


@pytest.mark.parametrize("kind", list(ImpedanceKind))
@pytest.mark.parametrize("kind_of", [ObservableKind.ENERGY_PER_AREA, ObservableKind.FORCE_PER_AREA])
def test_plate_integrand_checks_its_model_and_its_points(kind, kind_of):
    # The model is checked once, when the integrand is built.  The rules
    # build every point inside the domain, so a call checks none of them;
    # the public reflection_factors checks them, with all four messages.
    model, material = _model_material(kind, Formalism.IMPEDANCE)
    for a in (-1e-6, 0.0, math.inf):
        with pytest.raises(ValueError, match=f"separation must be positive and finite, got {a!r}"):
            _integrand(((kind_of, model),), a, material)
    if material is not None:
        with pytest.raises(ValueError, match=f"impedance kind '{kind.value}' requires a material"):
            _integrand(((kind_of, model),), 1e-6, None)
    g = _integrand(((kind_of, model),), 1e-6, material, static=True)
    # One bad point deep inside a call shaped as the wedge's and one shaped
    # as the y rule's fails, alone and with a NaN in its row.
    for xi, yy, Z, message in _bad_points():
        with pytest.raises(ValueError, match=message):
            reflection_factors(Z, yy, xi)
    # A NaN fails no check: its value comes back NaN, for the rule to name.
    for xi, yy, at in _rule_points():
        (xi if xi.shape[1] > 1 else yy)[at] = np.nan
        (out,) = g(xi, yy)
        if kind is not ImpedanceKind.IDEAL_METAL:
            assert np.isnan(out[at]) and np.isnan(out).sum() == 1


def _rule_points():
    """Writable (xi, y, a point deep inside) of the wedge's and the y
    rule's first passes of ``_rule_shapes``."""
    for (xi, y, _), at in zip(_rule_shapes(), ((50, 60), (20, 60))):
        yield np.array(xi), np.array(y), at


def _bad_points():
    """(xi, y, Z, message) with one point of a rule-shaped call out of the
    domain, without and with a NaN in its row; Z has xi's shape, 0.5 but
    where xi is NaN."""
    for nan in (False, True):
        for case in range(4):
            for xi, y, at in _rule_points():
                wedge = xi.shape[1] > 1
                col = (at[0], 0)
                if nan:
                    (xi if wedge else y)[at[0], 100] = np.nan
                Z = np.where(np.isnan(xi), np.nan, 0.5)
                if case == 0:
                    xi[at if wedge else col] = -0.1
                    message = "reduced frequency xi must be >= 0"
                elif case == 1:
                    y[col if wedge else at] = -1.0
                    message = "reduced variables must be >= 0"
                elif case == 2:
                    if wedge:
                        xi[at] = 2.0 * y[col]
                    else:
                        y[at] = 0.5 * xi[col]
                    message = "domain requires y >= xi"
                else:
                    Z[at if wedge else col] = -0.1
                    message = "impedance must be >= 0 on the imaginary axis"
                yield xi, y, Z, message


_E, _F = ObservableKind.ENERGY_PER_AREA, ObservableKind.FORCE_PER_AREA
_PLASMA = (ImpedanceKind.PLASMA_EXACT, ImpedanceKind.PLASMA_APPROX)


def _cli_groupings():
    """The requests of one CLI row: energy and force of one model (point,
    scan), both formalisms of one kind (figure1 for the force) and both
    plasma kinds in both formalisms (figure2)."""
    models = [ImpedanceModel(kind, f) for kind in ImpedanceKind for f in Formalism]
    yield from (((_E, model), (_F, model)) for model in models)
    for kind in ImpedanceKind:
        for obs in (_E, _F):
            yield tuple((obs, ImpedanceModel(kind, f)) for f in Formalism)
    yield tuple((_E, ImpedanceModel(kind, f)) for kind in _PLASMA for f in Formalism)


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-12])
def test_grouped_plate_requests_get_their_lone_observables(rel_tol):
    # One wedge serves every request of a row, and each request gets the
    # Observable of its own call bit for bit: value, error estimate,
    # evaluations and converged flag.
    config = QuadratureConfig(rel_tol=rel_tol)
    for a in (1e-9, 1e-6, 1e-3, 1e-1):
        lone = {}
        for requests in _cli_groupings():
            grouped = zero_temperature._plates(a, 0.0, requests, ALUMINUM, config)
            for (obs, model), ob in zip(requests, grouped):
                if (obs, model) not in lone:
                    op = energy_pp0 if obs is _E else force_pp0
                    lone[obs, model] = op(a, model, ALUMINUM, config)
                assert ob == lone[obs, model], (a, obs, model)


def test_grouped_requests_stop_at_their_own_levels():
    # At rel_tol 1e-13 the 3 nm plasma-exact energy takes three halvings
    # and the force one: the force is frozen at its level inside the shared
    # wedge.
    model = ImpedanceModel(ImpedanceKind.PLASMA_EXACT)
    config = QuadratureConfig(rel_tol=1e-13)
    e, f = zero_temperature._plates(3e-9, 0.0, ((_E, model), (_F, model)), ALUMINUM, config)
    assert (e.quadrature.evaluations, f.quadrature.evaluations) == (49_447, 12_375)
    assert e == energy_pp0(3e-9, model, ALUMINUM, config)
    assert f == force_pp0(3e-9, model, ALUMINUM, config)


def test_figure2_row_equals_four_lone_calls():
    # figure2's row: both plasma kinds, each against its Lifshitz reference,
    # from one wedge.
    rows = zero_temperature._deviation(_E, _PLASMA, 1e-7, ALUMINUM, DEFAULT_CONFIG)
    for kind, (ref, deviation, err, conv) in zip(_PLASMA, rows):
        lif, imp = (
            energy_pp0(1e-7, ImpedanceModel(kind, f), ALUMINUM)
            for f in (Formalism.LIFSHITZ, Formalism.IMPEDANCE)
        )
        assert (ref, deviation) == (lif.value, (lif.value - imp.value) / lif.value)
        errors = lif.quadrature.abs_error_estimate + imp.quadrature.abs_error_estimate
        assert err == errors / abs(lif.value)
        assert conv is (lif.quadrature.converged and imp.quadrature.converged)
