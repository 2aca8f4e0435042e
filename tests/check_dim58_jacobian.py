"""The analytic phi-map Jacobian on the full criterion-5 context, against
central differences.

Not part of the test suite: the difference side takes minutes.  Run from the
root of a checkout:

    PYTHONPATH=src python3 tests/check_dim58_jacobian.py

The context is criterion 5's (box 2 pi, M = (1, 1, 1), two particles with
charges 1 and -0.5, sigma_psi 0.8, width_g 2; dim 58), the endpoints are
``sample_endpoints(default_rng(3), ctx, 3)`` as ``rho_star_search`` draws
them, rho = 0.25 and rel_tol = 1e-6.  The difference determinant takes
2 dim values-only quadratures at the steps +-1e-5 max(1, |entry|).  Both
determinants and their times are printed; the exit status is 1 unless they
agree to 1e-6 relative.
"""

import math
import sys
import time

import numpy as np

from boxqed import SimulationConfig
from boxqed.field import ModelContext
from boxqed.propagator import _phi_jacobian_det, _phi_values, sample_endpoints

RHO, REL_TOL, FD_SCALE = 0.25, 1e-6, 1e-5


def main() -> int:
    config = SimulationConfig(L=(2.0 * math.pi,) * 3, M=(1, 1, 1), n_particles=2,
                              masses=(1.0, 2.0), charges=(1.0, -0.5),
                              sigma_psi=0.8, width_g=2.0)
    ctx = ModelContext.from_config(config)
    (x, y, z), (X, Y, Z) = sample_endpoints(np.random.default_rng(3), ctx, 3)
    n = config.n_particles
    base = np.concatenate([z.reshape(-1), Z])
    dim = len(base)

    started = time.perf_counter()
    _, jac, jac_error = _phi_values(RHO, 0.0, x, y, z, X, Y, Z, ctx, REL_TOL,
                                    jacobian=True)
    det, bound = _phi_jacobian_det(jac, jac_error)
    analytic_s = time.perf_counter() - started
    print(f"dim {dim}: analytic det {det!r} (bound {bound:.3e}) in {analytic_s:.1f} s",
          flush=True)

    started = time.perf_counter()
    columns = []
    for col in range(dim):
        step = FD_SCALE * max(1.0, abs(base[col]))
        sides = []
        for sign in (1.0, -1.0):
            moved = base.copy()
            moved[col] += sign * step
            sides.append(_phi_values(RHO, 0.0, x, y, moved[:3 * n].reshape(n, 3),
                                     X, Y, moved[3 * n:], ctx, REL_TOL))
        columns.append((sides[0] - sides[1]) / (2.0 * step))
    fd_det = float(np.linalg.det(np.array(columns).T))
    fd_s = time.perf_counter() - started
    print(f"central-difference det {fd_det!r} in {fd_s:.1f} s", flush=True)

    relative = abs(det - fd_det) / abs(fd_det)
    print(f"relative difference {relative:.3e}; speed-up {fd_s / analytic_s:.1f}x")
    return 0 if relative <= 1e-6 else 1


if __name__ == "__main__":
    sys.exit(main())
