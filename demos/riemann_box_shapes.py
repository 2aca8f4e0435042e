# When is a reciprocal lattice sum a Riemann sum?
#
# For a cube the mode sum times the cell volume approaches the integral of
# the summand as L grows.  But the cell geometry matters: stretch one side
# as L1 = L2 * L3 and the sum picks up a persistent excess that no amount of
# refinement removes, because a single lattice site at k = (2 pi / L1, 0, 0)
# carries a cell-volume weight that does not shrink.

import math

from boxqed.coulomb import (
    inverse_quartic_summand,
    riemann_sum,
    screened_inverse_square_summand,
)

TWO_PI = 2.0 * math.pi


def main():
    summand = inverse_quartic_summand()
    target = summand.analytic_limit
    print(f"cube boxes, target integral {target:.5f}:")
    for L in (15.0, 30.0, 60.0):
        result = riemann_sum(summand, L)
        print(f"  L = {L:4.0f}: sum {result.value:9.5f}  "
              f"error {abs(result.value - target):7.4f}  "
              f"({result.n_points} points, tail <= {result.tail_bound:.1e})")

    print("\nflattened boxes (l^2, l, l), screened 1/|k|^2 summand:")
    screened = screened_inverse_square_summand()
    integral = screened.analytic_limit
    for ell in (4, 8, 16):
        box = (float(ell * ell), float(ell), float(ell))
        result = riemann_sum(screened, box)
        cellvol = TWO_PI ** 3 / (box[0] * box[1] * box[2])
        k1 = TWO_PI / box[0]
        site = cellvol * math.exp(-k1 * k1) / (k1 * k1)
        print(f"  l = {ell:3d}: excess {result.value - integral:8.3f}  "
              f"single-site bound {site:8.3f}")
    print("the excess grows with l instead of vanishing")


if __name__ == "__main__":
    main()
