"""Expansion coefficients of the force in powers of delta_0/a.

Prints the closed-form coefficient table for the three model variants,
then re-derives the permittivity-route coefficients numerically: sample
the exact force ratio on a small-delta_0/a window and fit the quartic by
least squares. The fit reproduces c1..c3 to well under a percent; the
test suite makes the same cross-check of the table (acceptance check C4).
"""

import numpy as np

from casimir_impedance import (
    ALUMINUM,
    CoefficientVariant,
    Formalism,
    ImpedanceKind,
    ImpedanceModel,
    QuadratureConfig,
    coefficients,
    force_pp0,
    ideal_closed_forms,
)


def main():
    print("closed-form coefficients c_k, F/F0 = sum_k c_k (delta_0/a)^k:\n")
    variants = list(CoefficientVariant)
    print(f"{'k':>3}" + "".join(f" {v.value:>22}" for v in variants))
    table = {v: coefficients(v).c for v in variants}
    for k in range(5):
        print(f"{k:3d}" + "".join(f" {table[v][k]:22.6f}" for v in variants))

    print("\nnumeric recovery, permittivity formalism with the exact plasma model:")
    model = ImpedanceModel(ImpedanceKind.PLASMA_EXACT, Formalism.LIFSHITZ)
    config = QuadratureConfig(rel_tol=1e-11)
    x = np.geomspace(0.002, 0.02, 10)
    ratios = []
    for a in ALUMINUM.delta_0 / x:
        ratio = force_pp0(a, model, ALUMINUM, config).value / ideal_closed_forms(a)[1]
        ratios.append(ratio)
    # polyfit scales each column of the Vandermonde matrix to unit norm;
    # sv holds the singular values of that scaled matrix.
    fitted, (residual, _, sv, _) = np.polynomial.polynomial.polyfit(x, ratios, 4, full=True)

    reference = table[CoefficientVariant.LIFSHITZ_PLASMA]
    print(f"{'k':>3} {'fitted':>14} {'closed form':>14} {'rel err':>10}")
    for k, (est, ref) in enumerate(zip(fitted, reference)):
        print(f"{k:3d} {est:14.6f} {ref:14.6f} {abs(est / ref - 1.0):10.2e}")
    print(f"\nfit condition number {sv[0] / sv[-1]:.1e}, "
          f"residual norm {np.sqrt(residual[0]):.1e}")
    print("(the published constant-Z coefficients do NOT survive this check, "
          "but that model's own c3 = -(640/7)(1 + pi^2/84) does, to 2%; "
          "see the README's known-limitations note)")


if __name__ == "__main__":
    main()
