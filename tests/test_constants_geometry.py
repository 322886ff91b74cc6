"""Constants, material parameters, geometry and the effective temperature of a gap."""

import math

import pytest

from casimir_impedance import (
    ALUMINUM,
    CODATA,
    Geometry,
    ImpedanceKind,
    ImpedanceModel,
    Material,
    PhysicalConstants,
    effective_temperature,
    energy_pp0,
    force_pp0,
    force_sphere0,
    load_material,
)


def test_codata_values_pinned():
    assert CODATA.hbar == 1.054571817e-34
    assert CODATA.c == 2.99792458e8
    assert CODATA.k_B == 1.380649e-23


def test_constants_reject_nonpositive():
    with pytest.raises(ValueError, match="hbar"):
        PhysicalConstants(hbar=0.0)


def test_aluminum_preset():
    assert ALUMINUM.omega_p == 1.9e16
    assert ALUMINUM.gamma == 9.6e13
    # sigma = omega_p^2 / (4 pi gamma), Gaussian units (rad/s)
    assert ALUMINUM.sigma == pytest.approx(1.9e16**2 / (4 * math.pi * 9.6e13), rel=1e-14, abs=0)
    # delta_0 = c / omega_p, about 15.8 nm
    assert ALUMINUM.delta_0 == pytest.approx(1.5778550421052632e-08, rel=1e-12, abs=0)


def test_material_validation():
    with pytest.raises(ValueError, match="omega_p"):
        Material(omega_p=-1.0, gamma=1.0)
    with pytest.raises(ValueError, match="gamma"):
        Material(omega_p=1e16, gamma=0.0)
    with pytest.raises(ValueError, match="below omega_p"):
        Material(omega_p=1e13, gamma=1e14)


def test_load_material_roundtrip(tmp_path):
    path = tmp_path / "metal.txt"
    path.write_text("omega_p_rad_s = 1.2e16\ngamma_rad_s = 5.0e13\nname = test\n")
    m = load_material(path)
    assert m.omega_p == 1.2e16
    assert m.gamma == 5.0e13
    assert m.name == "test"


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("omega_p_rad_s = 1.2e16\ngamma 5.0e13\n", ":2: expected key=value, got 'gamma 5.0e13'"),
        ("omega_p_rad_s = 1.2e16\ncolor = red\n", ":2: unknown key 'color'"),
        ("gamma_rad_s = 5e13\ngamma_rad_s = 6e13\n", ":2: duplicate key 'gamma_rad_s'"),
        ("# no plasma frequency\ngamma_rad_s = 5e13\n", ": missing required key 'omega_p_rad_s'"),
    ],
    ids=["no-equals", "unknown-key", "duplicate-key", "missing-key"],
)
def test_load_material_rejects_a_malformed_file(text, message, tmp_path):
    path = tmp_path / "metal.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_material(path)
    assert str(info.value) == f"{path}{message}"


def test_effective_temperature_definition():
    a = 2.3e-6
    T_eff = effective_temperature(a)
    assert CODATA.k_B * T_eff == pytest.approx(CODATA.hbar * CODATA.c / (2 * a), rel=1e-14, abs=0)


def test_effective_temperature_millimeter():
    # the 1 mm gap sits near 1.145 K
    assert effective_temperature(1e-3) == pytest.approx(1.145, rel=5e-3, abs=0)


def test_geometry_validation():
    for bad in (0.0, math.inf):
        with pytest.raises(ValueError, match=f"separation must be positive and finite, got {bad!r}"):
            Geometry(separation=bad)
    for bad in (-1.0, math.inf):
        with pytest.raises(ValueError, match=f"sphere_radius must be positive and finite, got {bad!r}"):
            Geometry(separation=1e-6, sphere_radius=bad)
    # An infinite separation or radius used to come back as 0 or -inf,
    # flagged converged.
    model = ImpedanceModel(ImpedanceKind.PLASMA_EXACT)
    for call, name in (
        (lambda: force_pp0(math.inf, model, ALUMINUM), "separation"),
        (lambda: energy_pp0(math.inf, model, ALUMINUM), "separation"),
        (lambda: force_sphere0(1e-6, math.inf, model, ALUMINUM), "sphere_radius"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite, got inf"):
            call()


def test_geometry_proximity_warning():
    with pytest.warns(UserWarning, match="sphere-plate mapping") as record:
        Geometry(separation=1e-6, sphere_radius=2e-5)
    # The warning names the line that built the geometry.
    assert record[0].filename == __file__
