"""Millimeter separations: the normal skin effect regime.

At a ~ 1 mm the relevant frequencies are so low that aluminum responds
like an ohmic conductor, Z proportional to sqrt(xi). The corrections to
the ideal-metal result are a few parts in 10^4 at T = 0, and thermal
effects at liquid-helium temperatures are of the same order, so both are
computed together here.
"""

import math

from casimir_impedance import (
    ALUMINUM,
    Formalism,
    ImpedanceKind,
    ImpedanceModel,
    effective_temperature,
    energy_pp0,
    energy_ppT,
    force_pp0,
    force_ppT,
    ideal_closed_forms,
    ideal_energy_T,
    normal_skin_pert0,
)

C = 299792458.0


def main():
    a = 1e-3
    model = ImpedanceModel(ImpedanceKind.NORMAL_SKIN, Formalism.IMPEDANCE)
    e0, f0 = ideal_closed_forms(a)

    e_num = energy_pp0(a, model, ALUMINUM).value
    f_num = force_pp0(a, model, ALUMINUM).value
    e_pert, f_pert = normal_skin_pert0(a, ALUMINUM)
    root = math.sqrt(C / (ALUMINUM.sigma * a))

    print(f"a = 1 mm, sigma(Al) = {ALUMINUM.sigma:.3e} rad/s, sqrt(c/sigma a) = {root:.4e}\n")
    print("zero temperature, fractional reduction below the ideal result:")
    print(f"  energy: quadrature {1 - e_num / e0:.4e}, first order {1 - e_pert / e0:.4e}")
    print(f"  force:  quadrature {1 - f_num / f0:.4e}, first order {1 - f_pert / f0:.4e}")
    print(f"  first-order coefficients: {(1 - e_pert / e0) / root:.6f} (energy), "
          f"{(1 - f_pert / f0) / root:.6f} (force)")

    t_eff = effective_temperature(a)
    print(f"\nfinite temperature (T_eff = {t_eff:.3f} K at 1 mm):")
    print(f"{'T [K]':>6} {'E(T,Z)/E(T,ideal)':>19} {'F(T,Z)/F(T,ideal)':>19}")
    ideal = ImpedanceModel(ImpedanceKind.IDEAL_METAL)
    for T in (0.5, 1.0, 2.0, 4.2):
        e_ratio = energy_ppT(a, T, model, ALUMINUM).value / ideal_energy_T(a, T)
        f_ratio = force_ppT(a, T, model, ALUMINUM).value / force_ppT(a, T, ideal).value
        print(f"{T:6.1f} {e_ratio:19.7f} {f_ratio:19.7f}")
    print("\nabove ~2 K the impedance correction is swamped by the thermal "
          "photons and the ratios return to 1.")


if __name__ == "__main__":
    main()
