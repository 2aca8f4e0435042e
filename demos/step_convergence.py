# Composed short-time steps against exact references.
#
# Quadratic case first: one field mode for a quarter period, with the exact
# spectrum as reference, halving the mesh five times.  Then the coupled
# one-particle one-mode system on the galerkin backend, against a dense
# matrix-exponential reference.  Both error columns fall roughly linearly
# in the mesh; the one-mode error flattens near its per-step contraction
# floor (omega T)^2 / (3 N) instead of reaching zero.

import math

import numpy as np

from boxqed import ModeSet, SimulationConfig
from boxqed.field import ModelContext
from boxqed.fock import (
    OscillatorBasis,
    StateVector,
    assemble_hamiltonian,
    reference_evolve,
)
from boxqed.propagator import StepBackend, convergence_study, residual_study

TWO_PI = 2.0 * math.pi
BOX = (TWO_PI, TWO_PI, TWO_PI)
ONE_MODE = ModeSet.from_s_triples([(0, 0, 1)], BOX)
EMPTY = ModeSet.from_s_triples([], BOX)


def field_only():
    config = SimulationConfig(L=BOX)
    ctx = ModelContext.custom(config, EMPTY, EMPTY, ONE_MODE)
    basis = OscillatorBasis(ONE_MODE, cap=4, volume=config.volume)
    backend = StepBackend("analytic-quadratic", basis, ctx)

    rng = np.random.default_rng(7)
    vec = rng.normal(size=backend.state_dim) + 1j * rng.normal(size=backend.state_dim)
    state = StateVector(vec).normalized()
    horizon = math.pi / 2
    occupations = np.array([sum(basis.occupations(i)) for i in range(basis.dim)])
    reference = np.exp(-1j * occupations * horizon) * state.coefficients

    study = convergence_study(state, backend, horizon, [4, 8, 16, 32, 64],
                              reference)
    print("field-only mode, quarter period:")
    print("  segments   relative error")
    for segments, err in study.rows:
        print(f"  {segments:8d}   {err:.6f}")
    print(f"  observed orders: {[f'{o:.2f}' for o in study.orders]}")

    resid = residual_study(state, backend, [2.0 ** -k for k in range(3, 10)])
    print(f"  generator residual slope: {resid.slope:.3f}")


def coupled():
    config = SimulationConfig(L=BOX, n_particles=1, masses=(1.0,),
                              charges=(0.9,), sigma_psi=1e6)
    ctx = ModelContext.custom(config, EMPTY, ONE_MODE, ONE_MODE)
    basis = OscillatorBasis(ONE_MODE, cap=2, volume=config.volume)
    backend = StepBackend("galerkin", basis, ctx)

    hamiltonian = assemble_hamiltonian(
        config, basis, ctx=ctx,
        wave_indices=np.array([(0, 0, m) for m in range(-3, 4)]))
    start = np.zeros(backend.state_dim, dtype=complex)
    start[3] = 1.0      # field vacuum, particle momentum zero
    state = StateVector(start)
    reference = reference_evolve(hamiltonian, state, 0.5)

    study = convergence_study(state, backend, 0.5, [1, 2, 4, 8], reference)
    print("\ncoupled particle + mode, galerkin backend:")
    print("  segments   relative error")
    for segments, err in study.rows:
        print(f"  {segments:8d}   {err:.6f}")


if __name__ == "__main__":
    field_only()
    coupled()
