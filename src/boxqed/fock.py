"""Ladder algebra on truncated oscillator bases, photon states, H_rad, and the
reference Hamiltonian.

Independent field variables live on Lambda' (4N real oscillators, mass 1/|V|,
frequency c|k|); derived operators over the full Lambda follow by the parity
rules.  All operator algebra happens in the occupation (Hermite) basis where
ladder matrices are exact and sparse; coordinate-space formulas are verified
by quadrature in the test suite instead of being used as the representation.
The minimal-coupling Hamiltonian tensors that field basis with plane-wave
particle states, on which momentum is diagonal and the mode functions
cos(k.x), sin(k.x) shift the waves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from .errors import BudgetError, ConfigError, InvariantViolation
from .field import ModelContext
from .lattice import ModeSet, SimulationConfig, WaveVector

_MAX_DIM = 600_000

# Gauss-Hermite nodes of the psi(a) matrix elements between capped levels.
_PSI_HERMITE_ORDER = 80


@dataclass(frozen=True)
class OscillatorBasis:
    """Product Hermite basis over the 4N field variables with a uniform cap.

    Variable v is ``ModeSet.variable_offset`` of (l, k, i), the flat field
    layout.  Enumeration is mixed-radix with variable 0 slowest, so index 0
    is the vacuum.
    """

    modes: ModeSet
    cap: int
    hbar: float = 1.0
    c_light: float = 1.0
    volume: float = 1.0

    def __post_init__(self):
        if self.cap < 1:
            raise ConfigError("occupation cap must be at least 1")
        if self.dim > _MAX_DIM:
            raise BudgetError(
                f"basis dimension {(self.cap + 1)}^{self.n_vars} exceeds the "
                f"workable limit {_MAX_DIM}"
            )

    @classmethod
    def from_config(cls, config: SimulationConfig, modes: ModeSet,
                    cap: int) -> "OscillatorBasis":
        return cls(modes=modes, cap=cap, hbar=config.hbar,
                   c_light=config.c_light, volume=config.volume)

    @property
    def n_vars(self) -> int:
        return 4 * self.modes.N

    @property
    def dim(self) -> int:
        return (self.cap + 1) ** self.n_vars

    def omegas(self) -> np.ndarray:
        """Angular frequency c|k| per flat variable."""
        return np.repeat(self.c_light * self.modes.k_norm, 4)

    def lambdas(self) -> np.ndarray:
        """Inverse Gaussian width sqrt(c|k| / (hbar |V|)) per flat variable."""
        return np.sqrt(self.omegas() / (self.hbar * self.volume))

    def occupations(self, index: int) -> tuple:
        return tuple(int(v) for v in
                     np.unravel_index(index, (self.cap + 1,) * self.n_vars))

    def index_of(self, occupations) -> int:
        occs = tuple(int(v) for v in occupations)
        if len(occs) != self.n_vars or any(o < 0 or o > self.cap for o in occs):
            raise ConfigError(f"occupations {occs} out of range for cap {self.cap}")
        return int(np.ravel_multi_index(occs, (self.cap + 1,) * self.n_vars))

    def occupation_table(self) -> np.ndarray:
        """All occupation tuples as a (dim, n_vars) integer array."""
        cached = getattr(self, "_table", None)
        if cached is None:
            cached = np.stack(np.unravel_index(
                np.arange(self.dim), (self.cap + 1,) * self.n_vars), axis=1)
            object.__setattr__(self, "_table", cached)
        return cached


@dataclass
class StateVector:
    """Complex coefficient vector over a product basis, norm cached."""

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.ndim != 1:
            raise ConfigError("state coefficients must be one-dimensional")
        self._norm = float(np.linalg.norm(self.coefficients))
        if not math.isfinite(self._norm):
            raise ConfigError("state norm is not finite")

    @property
    def norm(self) -> float:
        return self._norm

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.coefficients, other.coefficients))

    def normalized(self) -> "StateVector":
        if self._norm == 0.0:
            raise ConfigError("cannot normalize the zero state")
        return StateVector(self.coefficients / self._norm)


@dataclass
class OperatorMatrix:
    """Sparse complex operator with an optional hermiticity certificate."""

    matrix: sparse.spmatrix
    hermitian: bool = False

    def __post_init__(self):
        self.matrix = sparse.csr_matrix(self.matrix, dtype=complex)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ConfigError("operator matrices must be square")
        if self.hermitian:
            self.check_hermitian(1e-12)

    def check_hermitian(self, tol: float) -> None:
        diff = (self.matrix - self.matrix.getH()).tocoo()
        drift = float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
        scale = float(np.max(np.abs(self.matrix.data))) if self.matrix.nnz else 1.0
        if drift > tol * max(1.0, scale):
            raise InvariantViolation(
                f"operator flagged hermitian drifts by {drift:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, state: StateVector) -> StateVector:
        return StateVector(self.matrix @ state.coefficients)


def _single_ladder(cap: int) -> sparse.csr_matrix:
    return sparse.diags(np.sqrt(np.arange(1.0, cap + 1)), offsets=1,
                        shape=(cap + 1, cap + 1), format="csr", dtype=complex)


def _embed(op: sparse.spmatrix, var: int, basis: OscillatorBasis) -> sparse.csr_matrix:
    radix = basis.cap + 1
    left = sparse.identity(radix ** var, format="csr", dtype=complex)
    right = sparse.identity(radix ** (basis.n_vars - 1 - var), format="csr",
                            dtype=complex)
    return sparse.kron(sparse.kron(left, op, format="csr"), right, format="csr")


def ladder_ops(variable, basis: OscillatorBasis) -> tuple:
    """Annihilator and creator for one real field variable (l, k, i).

    In the Hermite eigenbasis of the (1/|V|-mass, c|k|-frequency) oscillator
    these act as sqrt(n) step matrices; the creator annihilates the cap state
    (truncation boundary).
    """
    l, k, i = variable
    s = tuple(k.s) if isinstance(k, WaveVector) else tuple(k)
    if not basis.modes.contains_prime(s):
        raise ConfigError(f"mode {s} is not in the halved mode set")
    var = basis.modes.variable_offset(l, s, i)
    down = _embed(_single_ladder(basis.cap), var, basis)
    return (OperatorMatrix(down), OperatorMatrix(down.getH()))


def _resolve_mode(basis: OscillatorBasis, k):
    s = tuple(k.s) if isinstance(k, WaveVector) else tuple(int(v) for v in k)
    if s == (0, 0, 0):
        raise ConfigError("zero mode has no ladder operators")
    if basis.modes.contains_prime(s):
        return s, +1.0
    neg = tuple(-v for v in s)
    if basis.modes.contains_prime(neg):
        return neg, -1.0
    raise ConfigError(f"mode {s} is outside the basis mode set")


def complex_modes(l: int, k, basis: OscillatorBasis) -> tuple:
    """Annihilator/creator pair for a full-lattice mode.

    For k in Lambda' the annihilator is (a1 - i a2)/sqrt(2); extending to -k
    flips the sign of the a1 part and keeps a2, mirroring the coordinate
    parity rules.
    """
    s, sign = _resolve_mode(basis, k)
    a1, _ = ladder_ops((l, s, 1), basis)
    a2, _ = ladder_ops((l, s, 2), basis)
    down = (sign * a1.matrix - 1j * a2.matrix) / math.sqrt(2.0)
    return (OperatorMatrix(down), OperatorMatrix(down.getH()))


def vacuum(basis: OscillatorBasis) -> StateVector:
    """All-zeros occupation state, the product Gaussian ground state."""
    coeffs = np.zeros(basis.dim, dtype=complex)
    coeffs[0] = 1.0
    return StateVector(coeffs)


def photon_state(occupations: dict, basis: OscillatorBasis) -> StateVector:
    """Normalized multi-photon state prod (creator^n / sqrt(n!)) vacuum.

    Keys are (l, k) with k anywhere on the full lattice.  Because the +-k
    creators act on one shared pair of real variables, the per-(l, k-pair)
    total occupation must stay within the cap for the truncation to be exact.
    """
    cleaned = {}
    for (l, k), count in occupations.items():
        s = tuple(k.s) if isinstance(k, WaveVector) else tuple(int(v) for v in k)
        count = int(count)
        if count < 0:
            raise ConfigError("photon occupations must be nonnegative")
        if count:
            cleaned[(l, s)] = cleaned.get((l, s), 0) + count
    pair_totals: dict = {}
    for (l, s), count in cleaned.items():
        rep, _ = _resolve_mode(basis, s)
        pair_totals[(l, rep)] = pair_totals.get((l, rep), 0) + count
    for (l, rep), total in pair_totals.items():
        if total > basis.cap:
            raise ConfigError(
                f"occupation {total} on the (l={l}, k-pair {rep}) sector "
                f"exceeds the cap {basis.cap}"
            )
    state = vacuum(basis)
    norm_factor = 1.0
    for (l, s), count in sorted(cleaned.items()):
        _, creator = complex_modes(l, s, basis)
        for _ in range(count):
            state = creator.apply(state)
        norm_factor *= math.factorial(count)
    return StateVector(state.coefficients / math.sqrt(norm_factor))


def number_op(basis: OscillatorBasis) -> OperatorMatrix:
    """Total photon number: diagonal sum of all variable occupations."""
    diag = basis.occupation_table().sum(axis=1).astype(float)
    return OperatorMatrix(sparse.diags(diag, format="csr", dtype=complex),
                          hermitian=True)


def momentum_op(basis: OscillatorBasis) -> tuple:
    """Field momentum components sum over Lambda of hbar k (creator, annihilator)."""
    accum = [sparse.csr_matrix((basis.dim, basis.dim), dtype=complex)
             for _ in range(3)]
    for wv in basis.modes.lam:
        for l in (1, 2):
            down, up = complex_modes(l, wv, basis)
            counter = up.matrix @ down.matrix
            for c in range(3):
                accum[c] = accum[c] + basis.hbar * wv.k[c] * counter
    return tuple(OperatorMatrix(m, hermitian=True) for m in accum)


def h_rad(basis: OscillatorBasis) -> OperatorMatrix:
    """Radiation Hamiltonian sum over Lambda of hbar c |k| creator-annihilator.

    Diagonal in the occupation basis with entry sum_v n_v hbar c |k_v|; the
    zero-point subtraction built into the quadratic potential makes the
    ground eigenvalue exactly 0.
    """
    weights = basis.hbar * basis.omegas()
    diag = basis.occupation_table() @ weights
    return OperatorMatrix(sparse.diags(diag, format="csr", dtype=complex),
                          hermitian=True)


def _psi_variable_matrix(basis: OscillatorBasis, var: int,
                         ctx: ModelContext) -> np.ndarray:
    """Matrix of the multiplication operator psi(a) on one variable's levels."""
    lam = basis.lambdas()[var]
    nodes, weights = np.polynomial.hermite.hermgauss(_PSI_HERMITE_ORDER)
    levels = np.zeros((basis.cap + 1, _PSI_HERMITE_ORDER))
    levels[0] = math.pi ** -0.25
    if basis.cap >= 1:
        levels[1] = math.sqrt(2.0) * nodes * levels[0]
    for n in range(1, basis.cap):
        levels[n + 1] = (math.sqrt(2.0 / (n + 1)) * nodes * levels[n]
                         - math.sqrt(n / (n + 1.0)) * levels[n - 1])
    psi_vals = ctx.psi(nodes / lam)[0]
    return (levels * weights * psi_vals) @ levels.T


def _plane_wave_set(cutoff: int) -> np.ndarray:
    rng = range(-cutoff, cutoff + 1)
    return np.array([(a, b, c) for a in rng for b in rng for c in rng], dtype=int)


def _shift_matrices(waves: np.ndarray, s) -> tuple:
    """Hermitian cos/sin multiplication operators on the truncated wave set."""
    lookup = {tuple(m): idx for idx, m in enumerate(waves)}
    W = len(waves)
    rows, cols = [], []
    for idx, m in enumerate(waves):
        target = lookup.get((m[0] + s[0], m[1] + s[1], m[2] + s[2]))
        if target is not None:
            rows.append(target)
            cols.append(idx)
    plus = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(W, W),
                             dtype=complex)
    minus = plus.T.tocsr()
    return (plus + minus) / 2.0, (plus - minus) / 2.0j


def _check_flat_g(ctx: ModelContext,
                  user: str = "the plane-wave particle basis") -> None:
    """Raise unless g stays within 1e-8 of one at every corner of the box."""
    box = np.asarray(ctx.config.L)
    corners = 0.5 * box * np.array(
        [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    drift = float(np.max(np.abs(ctx.g(corners)[0] - 1.0)))
    if drift > 1e-8:
        raise ConfigError(
            f"{user} needs an effectively flat spatial cutoff; "
            f"g drifts by {drift:.3e} over the box "
            f"(width_g={ctx.config.width_g:g})"
        )


def _check_basis_constants(basis: OscillatorBasis, config: SimulationConfig) -> None:
    """Raise unless the basis carries the configuration's hbar, c and volume."""
    if (basis.hbar, basis.c_light) != (config.hbar, config.c_light) \
            or abs(basis.volume - config.volume) > 1e-12 * config.volume:
        raise ConfigError("basis constants disagree with the configuration")


def assemble_hamiltonian(config: SimulationConfig, basis: OscillatorBasis,
                         particle_rep: str = "planewave",
                         ctx: Optional[ModelContext] = None,
                         wave_indices=None) -> OperatorMatrix:
    """Full Hamiltonian on the field basis tensor a plane-wave particle basis.

    Minimal coupling squared, the Coulomb term, and the radiation part; the
    combined index is field-major (kron(field, particle)).  Each particle
    carries the plane waves exp(2 pi i m.x / L) for m in the unit wave cube,
    or in ``wave_indices`` when given, so its momentum is diagonal and
    cos(k.x), sin(k.x) shift the waves; this needs the spatial cutoff g to
    be flat over the box.  ``particle_rep`` accepts only "planewave".
    Coupled assembly handles a single charged particle; any particle count
    works when every charge vanishes.  The combined dimension is checked
    against the budget before any operator on the combined space is built.
    """
    if particle_rep != "planewave":
        raise ConfigError(f"unknown particle representation {particle_rep!r}")
    if ctx is None:
        ctx = ModelContext.custom(config, basis.modes, basis.modes, basis.modes)
    _check_basis_constants(basis, config)
    n = config.n_particles
    rad = h_rad(basis).matrix
    if n == 0:
        return OperatorMatrix(rad, hermitian=True)

    charges = np.asarray(config.charges, dtype=float)
    masses = np.asarray(config.masses, dtype=float)
    coupled = bool(np.any(charges != 0.0))
    if coupled and n != 1:
        raise ConfigError("coupled assembly supports exactly one charged particle")
    if coupled:
        _check_flat_g(ctx)
    waves = _plane_wave_set(1) if wave_indices is None \
        else np.asarray(wave_indices, dtype=int)
    one_dim = len(waves)
    part_dim = one_dim ** n
    if basis.dim * part_dim > _MAX_DIM:
        raise BudgetError("combined basis exceeds the workable dimension")

    p = config.hbar * 2.0 * math.pi * waves / np.asarray(config.L)
    momenta = [sparse.diags(p[:, c], format="csr", dtype=complex) for c in range(3)]
    p_sq = sparse.diags(np.sum(p ** 2, axis=1), format="csr", dtype=complex)
    kinetic = p_sq / (2.0 * masses[0])
    for m in masses[1:]:
        kinetic = sparse.kron(kinetic, sparse.identity(one_dim, dtype=complex),
                              format="csr") \
            + sparse.kron(sparse.identity(kinetic.shape[0], dtype=complex),
                          p_sq / (2.0 * m), format="csr")
    eye_field = sparse.identity(basis.dim, dtype=complex)
    matrix = sparse.kron(rad, sparse.identity(part_dim, dtype=complex),
                         format="csr") \
        + sparse.kron(eye_field, kinetic, format="csr")

    if coupled:
        e, m = float(charges[0]), float(masses[0])
        pref = math.sqrt(8.0 * math.pi) * config.c_light / config.volume
        zero = sparse.csr_matrix((basis.dim * part_dim,) * 2, dtype=complex)
        A = [zero] * 3
        for pos, wv in enumerate(ctx.modes2.lam_prime):
            cos_op, sin_op = _shift_matrices(waves, wv.s)
            for l in (1, 2):
                psi_cos, psi_sin = (
                    _embed(sparse.csr_matrix(_psi_variable_matrix(
                        basis, int(var), ctx)), int(var), basis)
                    for var in ctx.cols2[pos, l - 1])
                block = sparse.kron(psi_cos, cos_op, format="csr") \
                    + sparse.kron(psi_sin, sin_op, format="csr")
                for c in range(3):
                    weight = pref * ctx.frame2[pos, l - 1, c]
                    if weight != 0.0:
                        A[c] = A[c] + weight * block
        coupling, quadratic = zero, zero
        for c in range(3):
            P = sparse.kron(eye_field, momenta[c], format="csr")
            coupling = coupling + P @ A[c] + A[c] @ P
            quadratic = quadratic + A[c] @ A[c]
        matrix = matrix - e / (2.0 * m * config.c_light) * coupling \
            + e * e / (2.0 * m * config.c_light ** 2) * quadratic

    out = OperatorMatrix(matrix, hermitian=False)
    out.check_hermitian(1e-8)
    out.hermitian = True
    return out


def reference_evolve(H: OperatorMatrix, state: StateVector, t: float,
                     hbar: float = 1.0) -> StateVector:
    """Exact truncated-basis evolution exp(-i H t / hbar) applied to a state.

    The sparse generator's exponential acts on the state directly
    (Al-Mohy and Higham, SIAM J. Sci. Comput. 33 (2011) 488), at every
    dimension; it is unitary well past the 1e-10 requirement.
    """
    if not H.hermitian:
        raise ConfigError("reference evolution needs a hermitian generator")
    if H.dim != len(state.coefficients):
        raise ConfigError("operator and state dimensions disagree")
    coeffs = expm_multiply(-1j * t / hbar * H.matrix, state.coefficients)
    return StateVector(coeffs)
