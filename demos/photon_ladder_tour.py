# Photon states and ladder algebra on the truncated oscillator basis.

import math

import numpy as np

from boxqed import ModeSet, SimulationConfig
from boxqed.fock import (
    OscillatorBasis,
    complex_modes,
    h_rad,
    ladder_ops,
    number_op,
    photon_state,
    vacuum,
)

TWO_PI = 2.0 * math.pi
BOX = (TWO_PI, TWO_PI, TWO_PI)
K = (0, 0, 1)


def main():
    config = SimulationConfig(L=BOX, M=(1, 1, 1))
    modes = ModeSet.from_s_triples([K], BOX)
    basis = OscillatorBasis.from_config(config, modes, 4)
    print(f"one mode, cap {basis.cap}: {basis.n_vars} real variables, "
          f"dimension {basis.dim}")

    down, up = ladder_ops((1, K, 1), basis)
    comm = down.matrix @ up.matrix - up.matrix @ down.matrix
    diag = np.asarray(comm.todense()).diagonal().real
    interior = basis.occupation_table().max(axis=1) < basis.cap
    print(f"[a, a+] on interior states: "
          f"{np.unique(np.round(diag[interior], 12))}")
    print(f"[a, a+] on the cap boundary: "
          f"{np.unique(np.round(diag[~interior], 12))} (truncation artifact)")

    ann, _ = complex_modes(1, K, basis)
    print(f"complex-mode annihilator kills the vacuum: "
          f"norm {ann.apply(vacuum(basis)).norm}")

    h = h_rad(basis)
    n_tot = number_op(basis)
    spectrum = np.asarray(h.matrix.todense()).diagonal().real
    energies, counts = np.unique(np.round(spectrum, 12), return_counts=True)
    print("\nenergy   multiplicity")
    for e, c in zip(energies, counts):
        print(f"  {e:4.1f}    {c}")

    # a two-photon state split across +k and -k
    state = photon_state({(1, K): 1, (1, (0, 0, -1)): 1}, basis)
    energy = state.inner(h.apply(state)).real
    count = state.inner(n_tot.apply(state)).real
    print(f"\ntwo-photon state: <H> = {energy:.12f}, <N> = {count:.12f}, "
          f"norm = {state.norm:.12f}")


if __name__ == "__main__":
    main()
