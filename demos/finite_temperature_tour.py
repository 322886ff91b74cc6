"""Temperature dependence of the Casimir energy for ideal and real mirrors.

Three checkpoints:
  1. the closed ideal-metal series from T = 0 upward,
  2. the crossover from the T = 0 result to the classical high-T limit,
  3. the small-T perturbation formulas against full quadrature for aluminum.
"""

import numpy as np

from casimir_impedance import (
    ALUMINUM,
    Formalism,
    ImpedanceKind,
    ImpedanceModel,
    delta_T_energy_pert,
    effective_temperature,
    energy_ppT,
    ideal_energy_T,
    ideal_closed_forms,
)

K_B = 1.380649e-23


def main():
    a = 1e-6
    t_eff = effective_temperature(a)
    print(f"a = {a * 1e6:.1f} um, effective temperature T_eff = {t_eff:.1f} K\n")

    print("ideal mirrors: closed series")
    print(f"{'T [K]':>8} {'E(T) [J/m^2]':>14} {'E(T)/E(0)':>11}")
    e0 = ideal_closed_forms(a)[0]
    for T in (30.0, 300.0, 1200.0, 10 * t_eff):
        closed = ideal_energy_T(a, T)
        print(f"{T:8.0f} {closed:14.5e} {closed / e0:11.5f}")

    # high-T limit: E -> -zeta(3) k_B T / (8 pi a^2), linear in T
    T_hot = 50 * t_eff
    classical = -1.2020569031595943 * K_B * T_hot / (8 * np.pi * a**2)
    print(f"\nclassical limit at T = {T_hot:.0f} K: "
          f"E = {ideal_energy_T(a, T_hot):.5e}, "
          f"-zeta(3) k_B T / 8 pi a^2 = {classical:.5e}")

    print("\naluminum at room temperature: perturbation vs full quadrature")
    model = ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.LIFSHITZ)
    print(f"{'a [um]':>8} {'thermal part [J/m^2]':>21} {'pert/full - 1':>14}")
    for sep in (0.5e-6, 1e-6, 5e-6):
        full = energy_ppT(sep, 300.0, model, ALUMINUM, decompose=True)
        thermal = full.decomposition[1]
        pert = delta_T_energy_pert(sep, 300.0, ALUMINUM)
        print(f"{sep * 1e6:8.1f} {thermal:21.5e} {pert / thermal - 1:14.2e}")


if __name__ == "__main__":
    main()
