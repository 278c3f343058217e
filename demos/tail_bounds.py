"""Evaluate the tail bounds, derived constants, and feasibility checks.

Run: python3 demos/tail_bounds.py
"""

import math
from fractions import Fraction

from avdtotal import (binom_lower_tail_log, binom_upper_tail_log,
                      compute_c0, derive_constants, find_feasible_delta,
                      lll_asymmetric_check)


def main():
    print("binomial tails for n=100, p=1/10:")
    for m in (15, 20, 30):
        b = math.exp(binom_upper_tail_log(100, Fraction(1, 10), m))
        print(f"  Pr[X >= {m}] <= {b:.6g}")
    print("lower tail, n=100, p=1/2:")
    for m in (30, 40, 45):
        b = math.exp(binom_lower_tail_log(100, Fraction(1, 2), m))
        print(f"  Pr[X <= {m}] <= {b:.6g}")

    dc = derive_constants(8, 4, Fraction(1, 3), 100)
    print(f"\nderived constants at max degree 100: "
          f"lam={dc.lam:.4f} M={dc.M} p={dc.p:.4f}")

    c0 = compute_c0(8, Fraction(1, 3), dc.lam, dc.M)
    print(f"concentration constant c0={c0.value:.4g} "
          f"(dominant case: {c0.details['dominant']})")

    check = lll_asymmetric_check(8, 4, Fraction(1, 3), dc.lam, dc.M, delta=10)
    print(f"\nfeasibility at max degree 10: {check.feasible}")
    for note in check.notes:
        print(f"  note: {note}")

    # even with the compact override constants, feasibility needs a degree
    # whose logarithm is astronomically large: ln(max degree) ~ 4.25e57
    rep = find_feasible_delta(8, 4, Fraction(1, 3), 34.0, 81, math.log(2), 1e60)
    star = rep.details["ln_delta_star"]
    print(f"\noverride constants lam=34 M=81 become feasible at "
          f"ln(max degree) ~ {star:.3g} (10^{math.log10(star):.2f})")


if __name__ == "__main__":
    main()
