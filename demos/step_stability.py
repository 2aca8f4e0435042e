# Stability bookkeeping for the composed step: phi-map Jacobians, the
# largest certified step, and the fitted growth rate.

import math

import numpy as np

from boxqed import ModeSet, SimulationConfig
from boxqed.action import Subdivision
from boxqed.field import ModelContext
from boxqed.fock import OscillatorBasis, StateVector
from boxqed.propagator import (
    StepBackend,
    compose,
    fit_growth_rate,
    phi_maps,
    rho_star_search,
)

TWO_PI = 2.0 * math.pi
BOX = (TWO_PI, TWO_PI, TWO_PI)
ONE_MODE = ModeSet.from_s_triples([(0, 0, 1)], BOX)
EMPTY = ModeSet.from_s_triples([], BOX)


def main():
    config = SimulationConfig(L=BOX)
    ctx = ModelContext.custom(config, EMPTY, EMPTY, ONE_MODE)

    # the stationarity change of variables for one uncoupled step: the
    # Jacobian determinant carries (1 + rho^2 omega^2 / 6) per field variable
    rng = np.random.default_rng(1)
    rho = 0.4
    result = phi_maps(rho, 0.0, None, None, None,
                      rng.standard_normal(4), rng.standard_normal(4),
                      rng.standard_normal(4), ctx)
    predicted = (1.0 + rho ** 2 / 6.0) ** 4
    print(f"phi-map det at rho = {rho}: {result.jacobian_det:.8f} "
          f"(predicted {predicted:.8f})")

    # with no coupling the det never dips below 1/2, so the search runs
    # straight into its ceiling
    free = rho_star_search(config, sample_budget=2, ctx=ctx)
    print(f"free field: rho* = {float(free)} (ceiling hit: "
          f"{free.ceiling_hit}), sampled min det {free.min_det_at_value:.4f}")

    # a strongly coupled particle pulls the certified step into the interior
    charged = SimulationConfig(L=BOX, n_particles=1, masses=(1.0,),
                               charges=(20.0,), sigma_psi=1e6)
    cctx = ModelContext.custom(charged, EMPTY, ONE_MODE, ONE_MODE)
    tight = rho_star_search(charged, sample_budget=1, ctx=cctx,
                            bisect_iters=3)
    print(f"charge 20: rho* = {float(tight)} (ceiling hit: "
          f"{tight.ceiling_hit}), sampled min det "
          f"{tight.min_det_at_value:.4f}")
    for rho_probe, min_det, passed in tight.probes:
        print(f"  probe rho = {rho_probe:6.4f}: min det {min_det:8.4f}  "
              f"{'ok' if passed else 'rejected'}")

    # composed norms never grow in the decoupled case, so the growth bound
    # is not positive
    basis = OscillatorBasis(ONE_MODE, cap=4, volume=config.volume)
    backend = StepBackend("analytic-quadratic", basis, ctx)
    vec = rng.standard_normal(backend.state_dim) \
        + 1j * rng.standard_normal(backend.state_dim)
    state = StateVector(vec).normalized()
    sub = Subdivision.uniform(math.pi / 2, 16)
    _, norms = compose(state, sub, backend, collect_norms=True)
    rate = fit_growth_rate(sub.times[1:], norms)
    print(f"composed norms {norms[0]:.6f} -> {norms[-1]:.6f}, "
          f"growth bound {rate}")


if __name__ == "__main__":
    main()
