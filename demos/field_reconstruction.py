# Rebuild the vector potential from the independent field coordinates and
# verify transversality and the parity extension on a random draw.

import numpy as np

from boxqed import SimulationConfig, build_mode_set, build_polarization
from boxqed.field import FieldVector, extend_parity, potential_V2, reconstruct_A

config = SimulationConfig(L=(7.0, 7.0, 9.0), M=(1, 1, 2))
modes = build_mode_set(config, 3)
frame = build_polarization(modes)

rng = np.random.default_rng(42)
a = FieldVector(rng.standard_normal(4 * modes.N), modes)

if __name__ == "__main__":
    print(f"{modes.N} representative modes, {4 * modes.N} real coordinates")

    # A(x) is transverse mode by mode, so div A vanishes; check it with a
    # central difference at a few points
    h = 1e-6
    for x in rng.uniform(0.0, 7.0, size=(3, 3)):
        div = 0.0
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            plus = reconstruct_A(x + step, a, modes, frame, config)
            minus = reconstruct_A(x - step, a, modes, frame, config)
            div += (plus[axis] - minus[axis]) / (2.0 * h)
        print(f"div A at {np.round(x, 2)}: {div:.2e}")

    full = extend_parity(a)
    wv = modes.lam_prime[0]
    neg = wv.negated().s
    print(f"parity on {wv.s}: a1 {full[(1, wv.s, 1)]:+.4f} -> "
          f"{full[(1, neg, 1)]:+.4f}, a2 {full[(1, wv.s, 2)]:+.4f} -> "
          f"{full[(1, neg, 2)]:+.4f}")

    # the quadratic field energy is a weighted square sum, shifted so the
    # ground state sits at zero (each variable carries -hbar omega / 2)
    v2 = potential_V2(a.values, modes, config)
    omegas = np.repeat([np.linalg.norm(w.k) * config.c_light
                        for w in modes.lam_prime], 4)
    by_hand = float(np.sum(omegas ** 2 * a.values ** 2 / (2.0 * config.volume)
                           - config.hbar * omegas / 2.0))
    print(f"V2 = {v2:.6f}, direct sum {by_hand:.6f}, "
          f"difference {abs(v2 - by_hand):.2e}")
