"""Ladder algebra, photon states, H_rad, and Hamiltonian assembly checks.

The headline oracle here is coordinate-space: occupation states are mapped to
explicit Hermite wavefunctions and the differential form of the oscillator
Hamiltonian (mass 1/|V|, frequency c|k|, zero-point subtracted) is applied via
polynomial algebra.  The sparse occupation-basis operators must reproduce it
pointwise.  Everything else (commutators, parity identities, eigenvalue
bookkeeping, momentum conservation) is checked against independently built
matrices or exact integers.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import hermite as H
from scipy import sparse

from boxqed import fock
from boxqed.errors import BudgetError, ConfigError, InvariantViolation
from boxqed.fock import (
    OperatorMatrix,
    OscillatorBasis,
    StateVector,
    assemble_hamiltonian,
    complex_modes,
    h_rad,
    ladder_ops,
    momentum_op,
    number_op,
    photon_state,
    reference_evolve,
    vacuum,
)
from boxqed.field import ModelContext
from boxqed.lattice import ModeSet, SimulationConfig
from oracles import eigh_reference_evolve

TWO_PI = 2.0 * math.pi
K_REP = (0, 0, 1)
K_NEG = (0, 0, -1)


def base_config(**overrides):
    defaults = dict(L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1))
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture
def basis():
    config = base_config()
    return OscillatorBasis.from_config(
        config, ModeSet.from_s_triples([K_REP], config.L), 2)


def sup_abs(matrix):
    coo = sparse.coo_matrix(matrix)
    return float(np.max(np.abs(coo.data))) if coo.nnz else 0.0


# ----------------------------------------------------------------------------
# coordinate-space oracle machinery
# ----------------------------------------------------------------------------

def hermite_levels(cap, u):
    """Orthonormal oscillator eigenfunctions (Gaussian included) at points u."""
    out = np.zeros((cap + 1, len(u)))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    if cap >= 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for n in range(1, cap):
        out[n + 1] = (math.sqrt(2.0 / (n + 1)) * u * out[n]
                      - math.sqrt(n / (n + 1.0)) * out[n - 1])
    return out


def coordinate_values(state, basis, points):
    """Evaluate an occupation-basis state as a wavefunction of the a-variables.

    points has one row per sample, one column per flat variable.  The
    per-variable sqrt(lambda) normalizations are included.
    """
    lams = basis.lambdas()
    per_var = []
    for v in range(basis.n_vars):
        levels = hermite_levels(basis.cap, lams[v] * points[:, v])
        per_var.append(math.sqrt(lams[v]) * levels)
    table = basis.occupation_table()
    vals = np.zeros(len(points), dtype=complex)
    for idx, occs in enumerate(table):
        coeff = state.coefficients[idx]
        if coeff == 0.0:
            continue
        prod = np.ones(len(points))
        for v, n in enumerate(occs):
            prod = prod * per_var[v][n]
        vals += coeff * prod
    return vals


def single_variable_hamiltonian_action(coeffs, basis, points):
    """Apply the differential oscillator Hamiltonian to sum_n c_n phi_n(a).

    Works on one flat variable (the first) through Hermite-series calculus:
    psi = P(u) exp(-u^2/2) gives psi'' = (P'' - 2u P' + (u^2 - 1) P) times the
    same Gaussian.  Returns values of H psi at the sample points.
    """
    cap = basis.cap
    lam = basis.lambdas()[0]
    hbar, omega = basis.hbar, basis.omegas()[0]
    volume = basis.volume
    norms = np.array([1.0 / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
                      for n in range(cap + 1)])
    series = np.asarray(coeffs, dtype=complex) * norms
    d1 = H.hermder(series)
    d2 = H.hermder(series, 2)
    u_d1 = H.hermmulx(d1)
    u2_p = H.hermmulx(H.hermmulx(series))
    u = lam * points
    gauss = np.exp(-0.5 * u * u)
    psi = H.hermval(u, series) * gauss
    second = (H.hermval(u, d2) - 2.0 * H.hermval(u, u_d1)
              + H.hermval(u, u2_p) - H.hermval(u, series)) * gauss
    kinetic = -(volume * hbar ** 2 / 2.0) * lam ** 2 * second
    potential = (omega ** 2 / (2.0 * volume)) * points ** 2 * psi
    return math.sqrt(lam) * (kinetic + potential - 0.5 * hbar * omega * psi)


class TestDifferentialOracle:
    def test_h_rad_matches_differential_form_per_level(self, basis):
        points = np.linspace(-40.0, 40.0, 161)
        lam = basis.lambdas()[0]
        for n in range(basis.cap + 1):
            coeffs = np.zeros(basis.cap + 1)
            coeffs[n] = 1.0
            applied = single_variable_hamiltonian_action(coeffs, basis, points)
            expected = (n * basis.hbar * basis.omegas()[0] * math.sqrt(lam)
                        * hermite_levels(basis.cap, lam * points)[n])
            scale = max(np.max(np.abs(expected)), 1e-3)
            assert np.max(np.abs(applied - expected)) <= 1e-8 * scale

    def test_h_rad_matrix_agrees_with_differential_form(self, basis):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=basis.cap + 1) + 1j * rng.normal(size=basis.cap + 1)
        vec = np.zeros(basis.dim, dtype=complex)
        for n, c in enumerate(coeffs):
            vec[basis.index_of((n,) + (0,) * (basis.n_vars - 1))] = c
        state = StateVector(vec)
        out = h_rad(basis).apply(state)
        points = np.linspace(-30.0, 30.0, 121)
        grid = np.zeros((len(points), basis.n_vars))
        grid[:, 0] = points
        direct = single_variable_hamiltonian_action(coeffs, basis, points)
        ground = math.prod(math.sqrt(l) * math.pi ** -0.25
                           for l in basis.lambdas()[1:])
        via_matrix = coordinate_values(out, basis, grid)
        assert np.max(np.abs(via_matrix - ground * direct)) <= 1e-8

    def test_creator_on_vacuum_is_coordinate_multiplication(self, basis):
        _, creator = complex_modes(1, K_REP, basis)
        lifted = creator.apply(vacuum(basis))
        rng = np.random.default_rng(3)
        grid = rng.normal(scale=8.0, size=(40, basis.n_vars))
        lhs = coordinate_values(lifted, basis, grid)
        factor = math.sqrt(2.0 * basis.c_light * 1.0 / (basis.hbar * basis.volume))
        conj_coord = (grid[:, 0] + 1j * grid[:, 1]) / math.sqrt(2.0)
        rhs = factor * conj_coord * coordinate_values(vacuum(basis), basis, grid)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


# ----------------------------------------------------------------------------
# basis bookkeeping and ladder algebra
# ----------------------------------------------------------------------------

class TestBasis:
    def test_dimension_and_enumeration(self, basis):
        assert basis.n_vars == 4
        assert basis.dim == 81
        assert basis.occupations(0) == (0, 0, 0, 0)
        for idx in (0, 1, 17, 80):
            assert basis.index_of(basis.occupations(idx)) == idx
        with pytest.raises(ConfigError):
            basis.index_of((3, 0, 0, 0))

    def test_oversized_basis_is_rejected(self):
        config = base_config()
        from boxqed.lattice import build_mode_set
        with pytest.raises(BudgetError):
            OscillatorBasis.from_config(config, build_mode_set(config, 3), 4)

    def test_lambda_matches_mode_frequency(self, basis):
        lams = basis.lambdas()
        expected = math.sqrt(1.0 / (TWO_PI ** 3))
        assert np.allclose(lams, expected, rtol=1e-14)


class TestLadders:
    def test_annihilator_kills_vacuum_exactly(self, basis):
        down, _ = ladder_ops((1, K_REP, 1), basis)
        assert np.all(down.apply(vacuum(basis)).coefficients == 0.0)

    def test_commutator_on_interior_states(self, basis):
        down, up = ladder_ops((2, K_REP, 2), basis)
        comm = down.matrix @ up.matrix - up.matrix @ down.matrix
        for n in range(basis.cap):
            idx = basis.index_of((0, 0, 0, n))
            col = np.asarray(comm[:, idx].todense()).ravel()
            expected = np.zeros(basis.dim)
            expected[idx] = 1.0
            # sqrt(n+1)*sqrt(n+1) rounds away from n+1 by one ulp
            assert np.max(np.abs(col - expected)) <= 1e-14

    def test_creator_annihilates_cap_state(self, basis):
        _, up = ladder_ops((1, K_REP, 1), basis)
        top = np.zeros(basis.dim, dtype=complex)
        top[basis.index_of((basis.cap, 0, 0, 0))] = 1.0
        assert np.all((up.matrix @ top) == 0.0)

    def test_mode_outside_halved_set_is_rejected(self, basis):
        with pytest.raises(ConfigError):
            ladder_ops((1, K_NEG, 1), basis)


class TestComplexModes:
    def test_parity_identities_are_exact(self, basis):
        a_pos, _ = complex_modes(1, K_REP, basis)
        a_neg, _ = complex_modes(1, K_NEG, basis)
        a1, _ = ladder_ops((1, K_REP, 1), basis)
        a2, _ = ladder_ops((1, K_REP, 2), basis)
        assert sup_abs(a_pos.matrix - (a1.matrix - 1j * a2.matrix) / math.sqrt(2)) == 0.0
        assert sup_abs(a_neg.matrix - (-a1.matrix - 1j * a2.matrix) / math.sqrt(2)) == 0.0
        assert sup_abs((a_pos.matrix - a_neg.matrix) - math.sqrt(2) * a1.matrix) <= 1e-15

    def test_zero_and_foreign_modes_rejected(self, basis):
        with pytest.raises(ConfigError):
            complex_modes(1, (0, 0, 0), basis)
        with pytest.raises(ConfigError):
            complex_modes(1, (2, 0, 0), basis)

    def test_opposite_modes_commute_on_interior(self, basis):
        a_pos, up_pos = complex_modes(2, K_REP, basis)
        a_neg, up_neg = complex_modes(2, K_NEG, basis)
        cross = a_pos.matrix @ up_neg.matrix - up_neg.matrix @ a_pos.matrix
        same = a_pos.matrix @ up_pos.matrix - up_pos.matrix @ a_pos.matrix
        vac_col = np.zeros(basis.dim, dtype=complex)
        vac_col[0] = 1.0
        assert np.max(np.abs(cross @ vac_col)) <= 1e-14
        out = same @ vac_col
        out[0] -= 1.0
        assert np.max(np.abs(out)) <= 1e-14

    def test_commutator_with_squared_creator(self, basis):
        down, up = complex_modes(1, K_REP, basis)
        up2 = up.matrix @ up.matrix
        comm = down.matrix @ up2 - up2 @ down.matrix
        defect = comm - 2.0 * up.matrix
        vac_col = np.zeros(basis.dim, dtype=complex)
        vac_col[0] = 1.0
        assert np.max(np.abs(defect @ vac_col)) <= 1e-14


# ----------------------------------------------------------------------------
# vacuum and photon states
# ----------------------------------------------------------------------------

class TestStates:
    def test_vacuum_properties(self, basis):
        vac = vacuum(basis)
        assert vac.norm == 1.0
        assert np.linalg.norm(h_rad(basis).apply(vac).coefficients) <= 1e-12

    def test_photon_energies_and_counts(self, basis):
        rad = h_rad(basis)
        num = number_op(basis)
        cases = [
            ({(1, K_REP): 1}, 1.0),
            ({(2, K_NEG): 2}, 2.0),
            ({(1, K_REP): 1, (2, K_NEG): 1}, 2.0),
            ({(1, K_REP): 1, (1, K_NEG): 1}, 2.0),
        ]
        for occupations, total in cases:
            state = photon_state(occupations, basis)
            assert abs(state.norm - 1.0) <= 1e-12
            for op, scale in ((rad, basis.hbar * basis.c_light * 1.0), (num, 1.0)):
                out = op.apply(state).coefficients
                drift = out - total * scale * state.coefficients
                assert np.max(np.abs(drift)) <= 1e-12

    def test_momentum_eigenvalues(self, basis):
        _, _, pz = momentum_op(basis)
        plus = photon_state({(1, K_REP): 1}, basis)
        minus = photon_state({(1, K_NEG): 2}, basis)
        drift_plus = pz.apply(plus).coefficients - basis.hbar * plus.coefficients
        drift_minus = pz.apply(minus).coefficients + 2.0 * basis.hbar * minus.coefficients
        assert np.max(np.abs(drift_plus)) <= 1e-12
        assert np.max(np.abs(drift_minus)) <= 1e-12

    def test_single_and_double_excitations_are_orthogonal(self, basis):
        one = photon_state({(1, K_REP): 1}, basis)
        two = photon_state({(1, K_REP): 2}, basis)
        assert abs(one.inner(two)) == 0.0

    def test_photon_family_is_orthonormal(self, basis):
        family = []
        for p1 in range(basis.cap + 1):
            for q1 in range(basis.cap + 1 - p1):
                for p2 in range(basis.cap + 1):
                    for q2 in range(basis.cap + 1 - p2):
                        occ = {(1, K_REP): p1, (1, K_NEG): q1,
                               (2, K_REP): p2, (2, K_NEG): q2}
                        family.append(photon_state(occ, basis))
        gram = np.array([[a.inner(b) for b in family] for a in family])
        assert np.max(np.abs(gram - np.eye(len(family)))) <= 1e-10

    def test_pair_occupation_overflow_is_rejected(self, basis):
        with pytest.raises(ConfigError):
            photon_state({(1, K_REP): 2, (1, K_NEG): 1}, basis)
        with pytest.raises(ConfigError):
            photon_state({(2, K_REP): -1}, basis)


# ----------------------------------------------------------------------------
# conserved quantities
# ----------------------------------------------------------------------------

class TestConservedFamily:
    def test_number_momentum_energy_commute_pairwise(self, basis):
        ops = [number_op(basis).matrix, momentum_op(basis)[2].matrix,
               h_rad(basis).matrix]
        for i in range(3):
            for j in range(i + 1, 3):
                assert sup_abs(ops[i] @ ops[j] - ops[j] @ ops[i]) <= 1e-12

    def test_h_rad_equals_explicit_ladder_sum(self, basis):
        total = sparse.csr_matrix((basis.dim, basis.dim), dtype=complex)
        count = sparse.csr_matrix((basis.dim, basis.dim), dtype=complex)
        for s in (K_REP, K_NEG):
            for l in (1, 2):
                down, up = complex_modes(l, s, basis)
                pair = up.matrix @ down.matrix
                total = total + basis.hbar * basis.c_light * 1.0 * pair
                count = count + pair
        assert sup_abs(total - h_rad(basis).matrix) <= 1e-12
        assert sup_abs(count - number_op(basis).matrix) <= 1e-12

    def test_spectrum_multiplicities_for_capped_mode(self, basis):
        diag = np.real(h_rad(basis).matrix.diagonal())
        values, counts = np.unique(np.round(diag, 9), return_counts=True)
        expected = np.polynomial.polynomial.polypow([1.0, 1.0, 1.0], 4)
        assert np.array_equal(values, np.arange(9.0))
        assert np.array_equal(counts, expected.astype(int))
        assert counts[0] == 1  # simple ground level

    def test_energy_expectation_is_nonnegative(self, basis):
        rng = np.random.default_rng(11)
        rad = h_rad(basis)
        for _ in range(5):
            vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
            state = StateVector(vec).normalized()
            value = state.inner(rad.apply(state))
            assert value.real >= -1e-13
            assert abs(value.imag) <= 1e-13


# ----------------------------------------------------------------------------
# operator container contracts
# ----------------------------------------------------------------------------

class TestOperatorMatrix:
    def test_false_hermitian_flag_is_caught(self):
        bad = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(InvariantViolation):
            OperatorMatrix(bad, hermitian=True)


# ----------------------------------------------------------------------------
# Hamiltonian assembly
# ----------------------------------------------------------------------------

def coupled_config(**overrides):
    defaults = dict(L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1),
                    n_particles=1, masses=(1.0,), charges=(0.8,))
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestAssembly:
    def test_no_particles_reduces_to_h_rad(self, basis):
        config = base_config(n_particles=0)
        H = assemble_hamiltonian(config, basis)
        assert sup_abs(H.matrix - h_rad(basis).matrix) == 0.0

    def test_neutral_particles_give_tensor_sum(self):
        config = base_config(n_particles=2, masses=(1.0, 2.0), charges=(0.0, 0.0))
        modes = ModeSet.from_s_triples([K_REP], config.L)
        basis = OscillatorBasis.from_config(config, modes, 1)
        H = assemble_hamiltonian(config, basis)
        diag = np.real(H.matrix.diagonal())
        assert H.matrix.nnz == np.count_nonzero(diag)  # purely diagonal
        rng = range(-1, 2)
        kin = []
        for mass in config.masses:
            kin.append(np.array([sum((2.0 * math.pi * m / TWO_PI) ** 2 for m in triple)
                                 for triple in
                                 [(a, b, c) for a in rng for b in rng for c in rng]])
                       / (2.0 * mass))
        rad = np.real(h_rad(basis).matrix.diagonal())
        expected = (rad[:, None, None] + kin[0][None, :, None]
                    + kin[1][None, None, :]).ravel()
        assert np.max(np.abs(diag - expected)) <= 1e-12

    def test_coupled_assembly_is_hermitian(self):
        config = coupled_config()
        modes = ModeSet.from_s_triples([K_REP], config.L)
        basis = OscillatorBasis.from_config(config, modes, 2)
        H = assemble_hamiltonian(config, basis)
        assert H.hermitian
        rng = np.random.default_rng(5)
        dim = H.dim
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = StateVector(vec).normalized()
        value = state.inner(H.apply(state))
        assert abs(value.imag) <= 1e-10

    def test_two_charged_particles_are_rejected(self):
        config = base_config(n_particles=2, masses=(1.0, 1.0), charges=(1.0, -1.0))
        modes = ModeSet.from_s_triples([K_REP], config.L)
        basis = OscillatorBasis.from_config(config, modes, 2)
        with pytest.raises(ConfigError):
            assemble_hamiltonian(config, basis)

    def test_narrow_envelope_blocks_spectral_rep_only(self):
        config = coupled_config(width_g=1.0)
        modes = ModeSet.from_s_triples([K_REP], config.L)
        basis = OscillatorBasis.from_config(config, modes, 1)
        with pytest.raises(ConfigError, match="flat spatial cutoff"):
            assemble_hamiltonian(config, basis)

    def test_plane_waves_are_the_only_particle_basis(self):
        config = coupled_config()
        basis = OscillatorBasis.from_config(
            config, ModeSet.from_s_triples([K_REP], config.L), 1)
        with pytest.raises(ConfigError, match="particle representation"):
            assemble_hamiltonian(config, basis, particle_rep="grid")

    def test_transverse_momentum_commutes_exactly(self):
        config = coupled_config()
        modes = ModeSet.from_s_triples([K_REP], config.L)
        basis = OscillatorBasis.from_config(config, modes, 3)
        H = assemble_hamiltonian(config, basis)
        waves = np.array([(a, b, c) for a in range(-1, 2) for b in range(-1, 2)
                          for c in range(-1, 2)])
        px = sparse.kron(sparse.identity(basis.dim, dtype=complex),
                         sparse.diags(waves[:, 0].astype(float)), format="csr")
        assert sup_abs(H.matrix @ px - px @ H.matrix) <= 1e-13 * sup_abs(H.matrix)

    def test_longitudinal_momentum_conserved_for_linear_response(self):
        # With an effectively linear amplitude mollifier the coupling only
        # transfers z-momentum between field and particle, so the commutator
        # vanishes on states whose image stays inside the truncation.
        config = coupled_config(sigma_psi=1e8)
        modes = ModeSet.from_s_triples([K_REP], config.L)
        basis = OscillatorBasis.from_config(config, modes, 3)
        H = assemble_hamiltonian(config, basis)
        waves = np.array([(a, b, c) for a in range(-1, 2) for b in range(-1, 2)
                          for c in range(-1, 2)])
        _, _, pz_field = momentum_op(basis)
        W = len(waves)
        p_total = sparse.kron(pz_field.matrix, sparse.identity(W, dtype=complex),
                              format="csr") \
            + sparse.kron(sparse.identity(basis.dim, dtype=complex),
                          sparse.diags(waves[:, 2].astype(float)), format="csr")
        start = np.zeros(basis.dim * W, dtype=complex)
        start[np.flatnonzero(waves[:, 0] == 0)[4]] = 0.0
        center = int(np.flatnonzero((waves == 0).all(axis=1))[0])
        start[center] = 1.0  # vacuum x zero-momentum wave
        h_start = H.matrix @ start
        defect = H.matrix @ (p_total @ start) - p_total @ h_start
        assert np.linalg.norm(defect) <= 1e-8 * np.linalg.norm(h_start)

    def test_dimension_guard_runs_before_any_kron(self, monkeypatch):
        config = coupled_config()
        basis = OscillatorBasis.from_config(
            config, ModeSet.from_s_triples([K_REP], config.L), 2)
        calls = []
        kron, psi_matrix = sparse.kron, fock._psi_variable_matrix

        def spy(name, func):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(sparse, "kron", spy("kron", kron))
        monkeypatch.setattr(fock, "_psi_variable_matrix", spy("psi", psi_matrix))
        # 27 plane waves in the unit wave cube
        monkeypatch.setattr(fock, "_MAX_DIM", basis.dim * 27 - 1)
        with pytest.raises(BudgetError, match="workable dimension"):
            assemble_hamiltonian(config, basis)
        assert calls == []


# ----------------------------------------------------------------------------
# reference evolution
# ----------------------------------------------------------------------------

class TestReferenceEvolve:
    def test_vacuum_is_stationary(self, basis):
        out = reference_evolve(h_rad(basis), vacuum(basis), t=3.7)
        assert np.linalg.norm(out.coefficients - vacuum(basis).coefficients) <= 1e-12

    def test_eigenstate_picks_up_the_right_phase(self, basis):
        state = photon_state({(1, K_REP): 1, (2, K_NEG): 1}, basis)
        t = 1.3
        out = reference_evolve(h_rad(basis), state, t)
        overlap = state.inner(out)
        assert abs(overlap - np.exp(-1j * 2.0 * t)) <= 1e-10

    def test_coupled_evolution_is_unitary(self):
        config = coupled_config()
        modes = ModeSet.from_s_triples([K_REP], config.L)
        basis = OscillatorBasis.from_config(config, modes, 1)
        H = assemble_hamiltonian(config, basis)
        rng = np.random.default_rng(2)
        vec = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
        state = StateVector(vec).normalized()
        out = reference_evolve(H, state, t=0.9)
        assert abs(out.norm - 1.0) <= 1e-10

    def test_matches_dense_eigendecomposition_on_criterion_6(self):
        """The 567-dimensional coupled plane-wave Hamiltonian of criterion 6,
        against the dense eigh route."""
        box = (2.0 * math.pi,) * 3
        one = ModeSet.from_s_triples([(0, 0, 1)], box)
        empty = ModeSet.from_s_triples([], box)
        config = SimulationConfig(L=box, n_particles=1, masses=(1.0,),
                                  charges=(0.9,), sigma_psi=1e6)
        ctx = ModelContext.custom(config, empty, one, one)
        basis = OscillatorBasis(one, cap=2, volume=config.volume)
        waves = np.array([(0, 0, m) for m in range(-3, 4)])
        hamiltonian = assemble_hamiltonian(config, basis, ctx=ctx,
                                           wave_indices=waves)
        assert hamiltonian.dim == 567
        rng = np.random.default_rng(6)
        vec = rng.normal(size=567) + 1j * rng.normal(size=567)
        state = StateVector(vec).normalized()
        out = reference_evolve(hamiltonian, state, 0.5)
        expected = eigh_reference_evolve(hamiltonian, state, 0.5)
        assert np.abs(out.coefficients - expected).max() <= 1e-12

    def test_non_hermitian_generator_is_rejected(self, basis):
        lopsided = OperatorMatrix(
            sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
        with pytest.raises(ConfigError):
            reference_evolve(lopsided, StateVector(np.array([1.0, 0.0])), 1.0)
