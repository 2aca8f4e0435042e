"""One-step propagation operators, their composition, and stability studies.

The fundamental step is an oscillatory Gaussian integral over the earlier
endpoint of a straight path segment.  Two frozen step types realize it:
``AnalyticQuadraticStep`` for decoupled (purely quadratic) systems, where
every field variable factorizes into a closed-form Hermite-basis matrix, and
``GalerkinStep``, which assembles the coupled one-step matrix by quadrature,
with a Filon rule for the oscillatory longitudinal integral.  Both take
their Hermite-basis tensors from one closed-form Gaussian kernel,
``_gaussian_tables``; the decoupled step is its zero-coupling case on two
variables.  Each type carries only its own knobs and caches its operators by
step size; ``StepBackend(kind, ...)`` builds either by name.  On top of the
step sit the endpoint-difference maps (phi), the step-size search for an
invertibility radius (rho*), the scalar-offset variant (G_eps), and the
residual/convergence studies used as evidence that composed steps track the
generator.

Sign conventions follow the action module: a segment runs from (s, y, Y) to
(t, x, X) with the later endpoint first, and the interpolation parameter
theta = 0 sits at the later time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

from .action import Subdivision, _field_values, _particle_values, segment_action
from .coulomb import v1_gradient, v1_hessian
from .errors import BudgetError, ConfigError, InvariantViolation
from .field import ModelContext, v2_gradient
from .fock import (
    OscillatorBasis,
    StateVector,
    _check_basis_constants,
    _check_flat_g,
    _plane_wave_set,
    h_rad,
)
from .lattice import SimulationConfig
from .quadrature import adaptive_gauss_legendre

TWO_PI = 2.0 * math.pi

__all__ = [
    "fresnel_gaussian",
    "quadratic_variable_step",
    "AnalyticQuadraticStep",
    "GalerkinStep",
    "StepBackend",
    "fundamental_step",
    "compose",
    "fit_growth_rate",
    "ConvergenceStudy",
    "convergence_study",
    "ResidualStudy",
    "residual_study",
    "PhiMapPoint",
    "phi_maps",
    "RhoStarResult",
    "sample_endpoints",
    "rho_star_search",
    "xi_mode_factor",
    "g_epsilon_step",
    "g_epsilon_levels",
    "g_epsilon_extrapolated",
]


# ---------------------------------------------------------------------------
# Fresnel integrals
# ---------------------------------------------------------------------------

def fresnel_gaussian(a: float) -> complex:
    """Value of the 1-D Fresnel integral of exp(i a theta^2) over the line.

    Equals sqrt(pi / a) e^{i pi / 4} for a > 0; the same closed form is the
    line integral of the galerkin backend's Filon rule.
    """
    if not a > 0.0:
        raise ConfigError(f"fresnel_gaussian needs a > 0, got {a}")
    return math.sqrt(math.pi / a) * complex(math.cos(math.pi / 4),
                                            math.sin(math.pi / 4))


# ---------------------------------------------------------------------------
# Gaussian step kernel
# ---------------------------------------------------------------------------

def _pair_gaussian(rho: float, omega: float, hbar: float, volume: float):
    """Endpoint form, inverse width and norm of one field variable's step.

    Midpoint integration of the quadratic potential along the straight
    segment gives phase coefficients a (both squares) and b (cross term);
    with the Hermite weight they make the pair entries A11 (diagonal) and
    A12 (later-earlier) of the Gaussian.  ``norm`` is the variable's kernel
    normalization times the Hermite width and the zero-point phase
    exp(i rho omega / 2), so the small-step limit is the identity.
    """
    if rho * rho * omega * omega >= 3.0:
        raise ConfigError(
            f"step {rho:g} is too large for the quadratic kernel branch; "
            f"keep rho * omega below sqrt(3) (omega={omega:g})"
        )
    a = 1.0 / (2.0 * volume * rho) - rho * omega**2 / (6.0 * volume)
    b = -1.0 / (volume * rho) - rho * omega**2 / (6.0 * volume)
    lam_sq = omega / (hbar * volume)
    nu = math.sqrt(1.0 / (TWO_PI * hbar * volume * rho)) \
        * complex(math.cos(math.pi / 4), -math.sin(math.pi / 4))
    norm = nu * TWO_PI * math.sqrt(lam_sq / math.pi) * np.exp(0.5j * rho * omega)
    return lam_sq - 2j * a / hbar, -1j * b / hbar, lam_sq, norm


@lru_cache(maxsize=8)
def _degree_gathers(R: int, n: int) -> tuple:
    """Gather indices of the Taylor recursion, one group per total degree.

    Each group holds the flat indices of its multi-indices alpha over n
    variables, the first axis i with alpha_i > 0, the flat index of
    alpha - e_i, the n flat indices of alpha - e_i - e_j (R**n, a zero
    slot, where that leaves the table) and alpha_i.
    """
    alphas = np.array(list(itertools.product(range(R), repeat=n)))
    strides = R ** np.arange(n - 1, -1, -1)
    degrees = alphas.sum(axis=1)
    groups = []
    for total in range(1, n * (R - 1) + 1):
        group = alphas[degrees == total]
        first = np.argmax(group > 0, axis=1)
        reduced = group.copy()
        reduced[np.arange(len(group)), first] -= 1
        pairs = np.full((n, len(group)), R**n)
        for j in range(n):
            inside = reduced[:, j] > 0
            pairs[j, inside] = (reduced[inside] @ strides) - strides[j]
        groups.append((group @ strides, first, reduced @ strides, pairs,
                       group[np.arange(len(group)), first].astype(float)))
    return tuple(groups)


def _coeff_tables(lam_tilde: np.ndarray, mu: Optional[np.ndarray],
                  cap: int) -> np.ndarray:
    """Batched Taylor tables of exp(u^T lam_tilde u + mu . u) in n duals.

    The derivative recursion alpha_i c_alpha = mu_i c_{alpha - e_i}
    + sum_j 2 lam_tilde_ij c_{alpha - e_i - e_j} fills every entry of one
    total degree in one vectorized step, from the two degrees below it.
    The rank n is the last axis of ``lam_tilde`` (batch, n, n); the shape
    is (batch,) + (R,) * n.  The batch is the fastest axis in memory, so
    every gather copies whole rows and the result is a transposed view.
    """
    R = cap + 1
    batch, n = lam_tilde.shape[:2]
    lam2_t = np.multiply(2.0, np.moveaxis(lam_tilde, 0, -1), order="C")
    mu_t = None if mu is None else np.ascontiguousarray(mu.T)
    c = np.zeros((R**n + 1, batch), dtype=complex)
    c[0] = 1.0
    for flat, first, reduced, pairs, divisor in _degree_gathers(R, n):
        acc = np.zeros((len(flat), batch), dtype=complex)
        if mu_t is not None:
            acc += mu_t[first] * c[reduced]
        for j in range(n):
            acc += lam2_t[first, j] * c[pairs[j]]
        c[flat] = acc / divisor[:, None]
    return np.moveaxis(c[:R**n].reshape((R,) * n + (batch,)), -1, 0)


def _gaussian_tables(pair, n: int, cap: int, d_vecs: Optional[np.ndarray] = None,
                     coupling: complex = 0.0, eta: complex = 0.0) -> np.ndarray:
    """Hermite-basis tensors of the step Gaussian over n endpoint variables.

    ``pair`` is the ``_pair_gaussian`` tuple of the field variables.  The
    endpoint form is M = B + coupling d d^T: B pairs each of the n / 2 later
    variables (the first half) with its earlier one through (A11, A12), and
    each row of ``d_vecs`` (batch, n) is one node's source direction; eta
    is the linear source of a nonzero transverse momentum.  B^{-1} is closed
    form, Sherman-Morrison gives M^{-1}, and
    det M = det_q^(n/2) (1 + coupling d^T B^{-1} d), so the square root
    needs no branch anchor.  Shape (batch,) + (cap + 1,) * n, batch 1
    without ``d_vecs``.
    """
    A11, A12, lam_sq, norm = pair
    half = n // 2
    det_q = (A11 - A12) * (A11 + A12)
    b_inv = np.kron(np.array([[A11, -A12], [-A12, A11]]) / det_q, np.eye(half))
    if d_vecs is None:
        d_vecs = np.zeros((1, n))
    b_inv_d = d_vecs @ b_inv
    ratio = 1.0 + coupling * np.einsum("zi,zi->z", d_vecs, b_inv_d)
    m_inv = b_inv - (coupling / ratio)[:, None, None] \
        * b_inv_d[:, :, None] * b_inv_d[:, None, :]
    lam_tilde = 2.0 * lam_sq * m_inv - np.eye(n)
    mu = None
    scalar = 1.0
    if eta != 0.0:
        m_inv_d = b_inv_d / ratio[:, None]
        mu = 2.0 * math.sqrt(lam_sq) * eta * m_inv_d
        scalar = np.exp(0.5 * eta * eta * np.einsum("zi,zi->z", d_vecs, m_inv_d))
    const = (norm / np.sqrt(det_q)) ** half * scalar / np.sqrt(ratio)
    fac = np.array([math.factorial(i) / 2.0**i for i in range(cap + 1)])
    hermite = reduce(np.multiply.outer, [np.sqrt(fac)] * n)
    tables = _coeff_tables(lam_tilde, mu, cap)
    return tables * const.reshape((-1,) + (1,) * n) * hermite


def quadratic_variable_step(rho: float, omega: float, cap: int, *,
                            hbar: float = 1.0, volume: float = 1.0) -> np.ndarray:
    """One-step matrix of a single decoupled field variable on levels 0..cap.

    The n = 2, sourceless case of ``_gaussian_tables``: the Hermite-basis
    matrix elements of the Gaussian step kernel follow from a two-point
    generating function, with the zero-point phase included so the
    small-step limit is the identity.
    """
    if rho <= 0.0:
        raise ConfigError("quadratic_variable_step needs rho > 0")
    return _gaussian_tables(_pair_gaussian(rho, omega, hbar, volume), 2, cap)[0]


# ---------------------------------------------------------------------------
# Step types
# ---------------------------------------------------------------------------

def _plane_wave_energies(waves: np.ndarray, config: SimulationConfig) -> np.ndarray:
    p = config.hbar * TWO_PI * waves / np.asarray(config.L, dtype=float)
    return np.sum(p * p, axis=1)


class _AnalyticStep:
    """Per-variable field matrices plus free plane-wave phases."""

    def __init__(self, mats, particle_phases, dim):
        self.mats = mats
        self.particle_phases = particle_phases
        self.dim = dim

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        shape = tuple(m.shape[0] for m in self.mats)
        if self.particle_phases is not None:
            shape = shape + (len(self.particle_phases),)
        arr = coeffs.reshape(shape)
        for axis, mat in enumerate(self.mats):
            arr = np.moveaxis(np.tensordot(mat, arr, axes=(1, axis)), 0, axis)
        if self.particle_phases is not None:
            arr = arr * self.particle_phases
        return arr.reshape(-1)


class _MatrixStep:
    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.dim = matrix.shape[0]

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        return self.matrix @ coeffs


# Step operators one step keeps, the oldest evicted first.  A residual
# study asks for three step sizes per rho, 21 at the CLI's default rho list.
_STEP_CACHE_CAP = 64

# Cap on the galerkin quadrature: the scalar chirp rule's nodes, and the
# x3 nodes times the zeta nodes of one assembly.
_GALERKIN_BUDGET = 400_000

# x3 nodes whose blocks one galerkin table build covers, and the zeta nodes
# per x3 node of one build.  The group's buffer of x3 partials is
# _X3_GROUP / W of the accumulator, for W wave rows.
_X3_GROUP = 4
_ZETA_CHUNK = 512
# Accumulator columns per GEMM of a group's x3 phase sum.
_ACC_SLICE = 4096


@dataclass(frozen=True, eq=False)
class _Step:
    """Basis and context of a one-step operator, with its bounded cache.

    The fields are frozen, so ``step_operator`` keys its cache on rho alone
    and keeps the last ``_STEP_CACHE_CAP`` operators it built.
    """

    basis: OscillatorBasis
    ctx: ModelContext
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if [wv.s for wv in self.basis.modes.lam_prime] != \
                [wv.s for wv in self.ctx.modes3.lam_prime]:
            raise ConfigError("backend basis must live on the context's Lambda'_3")
        _check_basis_constants(self.basis, self.ctx.config)

    def step_operator(self, rho: float):
        key = f"{rho:.13e}"
        op = self._cache.get(key)
        if op is None:
            op = self._build(rho)
            if len(self._cache) >= _STEP_CACHE_CAP:
                del self._cache[next(iter(self._cache))]
            self._cache[key] = op
        return op


@dataclass(frozen=True, eq=False)
class AnalyticQuadraticStep(_Step):
    """Closed-form step of a decoupled (purely quadratic) system.

    Every field variable steps by its ``quadratic_variable_step`` matrix and
    each particle plane wave of ``wave_indices`` (default the unit wave
    cube) by its free phase.
    """

    wave_indices: Optional[np.ndarray] = None

    def __post_init__(self):
        super().__post_init__()
        config = self.ctx.config
        if np.any(np.asarray(config.charges, dtype=float) != 0.0) and \
                (self.ctx.modes2.N > 0 or config.n_particles >= 2):
            raise ConfigError(
                "the analytic-quadratic backend needs vanishing coupling: "
                "all charges zero, or a single charge with empty Lambda'_2"
            )
        waves = self.wave_indices
        if config.n_particles > 0 and waves is None:
            waves = _plane_wave_set(1)
        if waves is not None:
            waves = np.array(waves, dtype=int).reshape(-1, 3)
            waves.flags.writeable = False
            object.__setattr__(self, "wave_indices", waves)

    @property
    def state_dim(self) -> int:
        n = self.ctx.config.n_particles
        return self.basis.dim * (len(self.wave_indices) ** n if n else 1)

    def _build(self, rho: float) -> _AnalyticStep:
        basis = self.basis
        config = self.ctx.config
        # The four variables of a mode share its frequency and its matrix.
        mode_mats = [
            quadratic_variable_step(rho, basis.c_light * wv.norm, basis.cap,
                                    hbar=basis.hbar, volume=basis.volume)
            for wv in basis.modes.lam_prime
        ]
        phases = None
        if config.n_particles:
            waves = self.wave_indices
            energy = _plane_wave_energies(waves, config)
            masses = np.asarray(config.masses, dtype=float)
            total = np.zeros((len(waves),) * config.n_particles)
            for j in range(config.n_particles):
                shape = [1] * config.n_particles
                shape[j] = len(waves)
                total = total + (energy / (2.0 * masses[j])).reshape(shape)
            phases = np.exp(-1j * rho * total.reshape(-1) / config.hbar)
        return _AnalyticStep([m for m in mode_mats for _ in range(4)],
                             phases, self.state_dim)


@dataclass(frozen=True, eq=False)
class GalerkinStep(_Step):
    """Quadrature step of one charged particle coupled to one mode.

    The coupling mode points along the third axis; the particle lives on the
    z-line plane waves |m3| <= ``wave_cutoff`` at the fixed ``transverse``
    wave numbers.  The oscillatory longitudinal displacement integral is a
    Filon rule, 96 nodes while k3 s_f stays below about 1 and more beyond,
    and the periodic x3 coordinate an exact trapezoid rule of ``x3_nodes``,
    assembled ``_X3_GROUP`` nodes at a time; ``_GALERKIN_BUDGET`` caps the
    node count of either.
    """

    wave_cutoff: int = 3
    transverse: tuple = (0, 0)

    def __post_init__(self):
        super().__post_init__()
        ctx = self.ctx
        config = ctx.config
        if config.n_particles != 1:
            raise ConfigError("the galerkin backend handles exactly one particle")
        if ctx.modes2.N != 1 or ctx.modes3.N != 1:
            raise ConfigError(
                "the galerkin backend needs a single coupling mode carried by "
                "the field state space (Lambda'_2 = Lambda'_3, one member)"
            )
        s = ctx.modes2.lam_prime[0].s
        if s[0] != 0 or s[1] != 0:
            raise ConfigError(
                f"the coupling mode must point along the third axis, got s={s}; "
                "the slab-separable assembly relies on transverse momentum "
                "conservation"
            )
        if self.basis.cap > 6:
            raise ConfigError("galerkin occupation caps above 6 are not supported")
        if self.wave_cutoff < 1 or self.wave_cutoff > 6:
            raise ConfigError("galerkin wave cutoffs outside 1..6 are not supported")
        if len(self.transverse) != 2:
            raise ConfigError("transverse wave numbers must be a pair")
        object.__setattr__(self, "transverse", tuple(self.transverse))
        _check_flat_g(ctx, "the plane-wave galerkin basis")
        omega = config.c_light * ctx.modes2.lam_prime[0].norm
        amax = 8.0 * math.sqrt(config.hbar * config.volume / omega)
        grid = np.linspace(-amax, amax, 33)
        dev = float(np.max(np.abs(ctx.psi(grid)[0] - grid)))
        if dev > 1e-6 * amax:
            raise ConfigError(
                "the galerkin kernel assembly needs psi to act linearly over the "
                f"occupied field range; the bend is {dev:.3e} at scale {amax:.3g} "
                f"(sigma_psi={config.sigma_psi:g})"
            )

    @property
    def state_dim(self) -> int:
        return self.basis.dim * (2 * self.wave_cutoff + 1)

    @property
    def x3_nodes(self) -> int:
        """Trapezoid nodes exact for the x3 integrand (``_galerkin_matrix``)."""
        s3 = self.ctx.modes2.lam_prime[0].s[2]
        return 8 * s3 * self.basis.cap + 2 * self.wave_cutoff + 1

    def _build(self, rho: float) -> _MatrixStep:
        return _MatrixStep(_galerkin_matrix(self, rho))


_STEP_KINDS = {"analytic-quadratic": AnalyticQuadraticStep,
               "galerkin": GalerkinStep}


def StepBackend(kind: str, basis: OscillatorBasis, ctx: ModelContext,
                **knobs) -> _Step:
    """The step of the named kind: "analytic-quadratic" or "galerkin".

    ``knobs`` are that kind's own fields (``wave_indices``, or
    ``wave_cutoff`` and ``transverse``); a knob of the other kind raises
    ``TypeError`` and an unknown kind ``ConfigError``.
    """
    if kind not in _STEP_KINDS:
        raise ConfigError(f"unknown backend kind {kind!r}")
    return _STEP_KINDS[kind](basis, ctx, **knobs)


def fundamental_step(f: StateVector, t: float, s: float,
                     backend: _Step) -> StateVector:
    """One application of the step operator C(t, s) to a state.

    t = s returns the identity exactly; otherwise the backend's cached
    one-step operator for rho = t - s is applied.
    """
    if t < s:
        raise ConfigError("fundamental_step needs t >= s")
    if t == s:
        return StateVector(f.coefficients.copy())
    op = backend.step_operator(t - s)
    if len(f.coefficients) != op.dim:
        raise ConfigError(
            f"state dimension {len(f.coefficients)} does not match the "
            f"backend's step operator ({op.dim})"
        )
    return StateVector(op.apply(f.coefficients))


def compose(f: StateVector, subdivision: Subdivision, backend: _Step,
            collect_norms: bool = False):
    """Left-to-right composition of fundamental steps over a subdivision."""
    out = f
    norms = []
    for lo, hi in zip(subdivision.times, subdivision.times[1:]):
        out = fundamental_step(out, hi, lo, backend)
        if collect_norms:
            norms.append(out.norm)
    if collect_norms:
        return out, norms
    return out


def fit_growth_rate(times, norms) -> float:
    """Smallest K with every norm at most n0 exp(K (t - t0)).

    (t0, n0) is the first entry, so K is the largest log(n / n0) / (t - t0)
    over the later ones, and the entry that sets it meets the bound.  K is
    not clipped: it is negative when every later norm falls below n0.
    """
    t = np.asarray(times, dtype=float)
    n = np.asarray(norms, dtype=float)
    if len(t) != len(n) or len(t) < 2:
        raise ConfigError("need matching times/norms with at least two entries")
    if np.any(n <= 0.0):
        raise ConfigError("norms must be positive to fit a growth rate")
    if np.any(np.diff(t) <= 0.0):
        raise ConfigError("times must increase to fit a growth rate")
    return float(np.max(np.log(n[1:] / n[0]) / (t[1:] - t[0])))


# ---------------------------------------------------------------------------
# Convergence and residual studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceStudy:
    """Mesh-refinement errors against a reference state."""

    rows: tuple              # (segments, relative error)
    orders: tuple            # observed order between consecutive rows
    monotone: bool
    final_error: float
    growth_rate: Optional[float]   # bound on the finest mesh; None for one step


def convergence_study(f: StateVector, backend: _Step, horizon: float,
                      segment_counts, reference) -> ConvergenceStudy:
    """Compose over uniform meshes and compare against a reference state.

    The composed norms of the finest mesh also give the growth bound of
    ``fit_growth_rate``, which needs at least two steps.
    """
    ref = reference.coefficients if isinstance(reference, StateVector) \
        else np.asarray(reference, dtype=complex)
    scale = f.norm
    if scale <= 0.0:
        raise ConfigError("convergence study needs a nonzero input state")
    finest = max(int(segs) for segs in segment_counts)
    rows = []
    growth = None
    for segs in segment_counts:
        sub = Subdivision.uniform(horizon, int(segs))
        out, norms = compose(f, sub, backend, collect_norms=True)
        if int(segs) == finest > 1:
            growth = fit_growth_rate(sub.times[1:], norms)
        rows.append((int(segs), float(np.linalg.norm(out.coefficients - ref))
                     / scale))
    orders = []
    for (s0, e0), (s1, e1) in zip(rows, rows[1:]):
        if e0 > 0.0 and e1 > 0.0 and s1 != s0:
            orders.append(math.log(e0 / e1) / math.log(s1 / s0))
    monotone = all(e1 < e0 for (_, e0), (_, e1) in zip(rows, rows[1:]))
    return ConvergenceStudy(tuple(rows), tuple(orders), monotone, rows[-1][1],
                            growth)


@dataclass(frozen=True)
class ResidualStudy:
    """Generator residuals of single steps across step sizes."""

    rows: tuple              # (rho, delta, residual)
    slope: Optional[float]   # log-log fit; None below two positive residuals


def residual_study(f: StateVector, backend: _Step, rho_list,
                   dt_factor: float = 0.125) -> ResidualStudy:
    """Norm of (i hbar D_t - H) C(rho, 0) f with a centered time difference.

    The difference step is delta = dt_factor * rho.  H is the field
    Hamiltonian, which requires a field-only configuration.
    """
    config = backend.ctx.config
    if config.n_particles:
        raise ConfigError("the residual study runs on field-only "
                          "configurations, where H is the field Hamiltonian; "
                          "set n_particles = 0")
    H = h_rad(backend.basis).matrix
    hbar = config.hbar
    rows = []
    for rho in rho_list:
        rho = float(rho)
        delta = dt_factor * rho
        ahead = fundamental_step(f, rho + delta, 0.0, backend).coefficients
        behind = fundamental_step(f, rho - delta, 0.0, backend).coefficients
        center = fundamental_step(f, rho, 0.0, backend).coefficients
        vec = 1j * hbar * (ahead - behind) / (2.0 * delta) - H @ center
        rows.append((rho, delta, float(np.linalg.norm(vec))))
    logs = [(math.log(r), math.log(res)) for r, _, res in rows if res > 0.0]
    slope = None
    if len(logs) >= 2:
        xs, ys = zip(*logs)
        slope = float(np.polyfit(xs, ys, 1)[0])
    return ResidualStudy(tuple(rows), slope)


# ---------------------------------------------------------------------------
# Endpoint-difference maps
# ---------------------------------------------------------------------------

# Cap in bytes on the theta panel of one phi-map quadrature: 16 theta by 16
# sigma nodes by the widest per-point block, which holds the dim values and,
# for a Jacobian, the entries of ``_jacobian_blocks``.
_PHI_PANEL_BYTES = 64 * 2**20


@dataclass(frozen=True)
class PhiMapPoint:
    """Phi maps at one endpoint configuration with their Jacobian record."""

    phi: np.ndarray          # (n, 3) per-particle map
    phi1: np.ndarray         # (4N,) field map
    jacobian_det: Optional[float]
    det_bound: Optional[float]      # first-order error bound of jacobian_det
    identity_residual: Optional[float]


def _earlier_integrand(rho: float, z_part, y_part, Z_f, Y_f, ctx: ModelContext,
                       jacobian: bool = False):
    """Theta integrand of the earlier-endpoint gradient, or None when it vanishes.

    The endpoints may carry leading batch axes E that broadcast together:
    ``z_part`` and ``y_part`` (E..., n, 3), ``Z_f`` and ``Y_f`` (E..., 4N).
    The returned function maps theta nodes (T,) to rows (T, E..., dim),
    dim = 3n + 4N: the particle block flattened per point, then the field
    block.  All nodes of a quadrature panel and all batch points are
    evaluated in one call.

    With ``jacobian`` on, each row also carries the derivative of those dim
    entries with respect to the later endpoint (z, Z), after them in the
    block layout of ``_jacobian_blocks``: rows (T, E..., dim + blocks).  The
    later endpoint enters through q = (1 - theta) z + theta y,
    a = (1 - theta) Z + theta Y and the displacement z - y, so the
    derivatives need the V1 Hessian, the V2 frequencies and the second
    derivatives of ``ModelContext.tilde_A``.
    """
    config = ctx.config
    n = config.n_particles
    charges = np.asarray(config.charges, dtype=float)
    has_v1 = n >= 2 and np.any(charges != 0.0) and ctx.modes1.N > 0
    has_v2 = ctx.modes3.N > 0
    coupled = [j for j in range(n) if charges[j] != 0.0] if ctx.modes2.N else []
    if not (has_v1 or has_v2 or coupled):
        return None

    disp = z_part - y_part
    batch = np.broadcast_shapes(disp.shape[:-2], np.shape(Z_f)[:-1],
                                np.shape(Y_f)[:-1])
    dim = 3 * n + ctx.n_field
    omega_sq = np.repeat((config.c_light * ctx.modes3.k_norm) ** 2, 4) \
        / config.volume

    def integrand(th):
        lead = th.shape + batch
        th = th.reshape(th.shape + (1,) * len(batch))
        weight = rho * th
        q = (1.0 - th)[..., None, None] * z_part + th[..., None, None] * y_part
        a_vals = (1.0 - th)[..., None] * Z_f + th[..., None] * Y_f
        rows_y = np.zeros(lead + (n, 3))
        rows_Y = np.zeros(lead + (ctx.n_field,))
        if jacobian:
            jac_y = np.zeros(lead + (3 * n, dim))
            jac_Yz = np.zeros(lead + (ctx.n_field, 3 * n))
            jac_Y = np.zeros(lead + (ctx.n_field,))
            later = 1.0 - th                         # d(q)/dz and d(a)/dZ
        if has_v1:
            rows_y -= weight[..., None, None] * v1_gradient(q, charges, ctx.modes1, config)
            if jacobian:
                hess = v1_hessian(q, charges, ctx.modes1, config)
                jac_y[..., :3 * n] -= (weight * later)[..., None, None] \
                    * hess.reshape(lead + (3 * n, 3 * n))
        if has_v2:
            rows_Y -= weight[..., None] * v2_gradient(a_vals, ctx.modes3, config)
            if jacobian:
                jac_Y -= (weight * later)[..., None] * omega_sq
        for j in coupled:
            parts = ctx.tilde_A(q[..., j, :], a_vals, second=jacobian)
            value, grad_x, grad_a = parts[:3]
            factor = charges[j] / config.c_light
            directional = (grad_x @ disp[..., j, :, None])[..., 0]
            rows_y[..., j, :] += factor * (-value + th[..., None] * directional)
            rows_Y += (factor * th)[..., None] * (disp[..., j, None, :] @ grad_a)[..., 0, :]
            if not jacobian:
                continue
            # second derivatives along the displacement d = z_j - y_j:
            # along_xx[c, m] = sum_l d_l d^2 A_l / dx_c dx_m, along_xa[m, v] =
            # sum_l d_l d^2 A_l / dx_m da_v, along_aa[v] = sum_l d_l d^2 A_l / da_v^2
            hess_xx, hess_xa, hess_aa = parts[3:]
            d = disp[..., j, :]
            along_xx = (hess_xx @ d[..., None, :, None])[..., 0]
            along_xa = (d[..., None, None, :] @ hess_xa)[..., 0, :]
            along_aa = (d[..., None, :] @ hess_aa)[..., 0, :]
            t2, u2 = th[..., None, None], later[..., None, None]
            rows = slice(3 * j, 3 * j + 3)
            jac_y[..., rows, rows] += factor * (t2 * grad_x - u2 * np.swapaxes(grad_x, -1, -2)
                                                + t2 * u2 * along_xx)
            jac_y[..., rows, 3 * n:] += factor * u2 * (t2 * along_xa - grad_a)
            jac_Yz[..., rows] += factor * t2 * np.swapaxes(grad_a + u2 * along_xa, -1, -2)
            jac_Y += (factor * th * later)[..., None] * along_aa
        out = [rows_y.reshape(lead + (3 * n,)), rows_Y]
        if jacobian:
            out += [jac_y.reshape(lead + (3 * n * dim,)),
                    jac_Yz.reshape(lead + (3 * n * ctx.n_field,)), jac_Y]
        return np.concatenate(out, axis=-1)

    return integrand


def _jacobian_blocks(flat: np.ndarray, n: int, dim: int) -> np.ndarray:
    """Dense d(phi, phi1)/d(z, Z) from the entries a phi-map quadrature carries.

    Each field variable of the later endpoint reaches only its own phi1
    entry, so the field-field block is diagonal.  ``flat`` holds the 3n
    particle rows (3n x dim), then the particle columns of the field rows
    (4N x 3n), then that diagonal (4N): dim + 4N entries per particle
    coordinate and one per field variable, at most dim^2.
    """
    p = 3 * n
    fields = dim - p
    jac = np.zeros((dim, dim))
    jac[:p] = flat[:p * dim].reshape(p, dim)
    jac[p:, :p] = flat[p * dim:p * dim + fields * p].reshape(fields, p)
    jac[range(p, dim), range(p, dim)] = flat[p * dim + fields * p:]
    return jac


def _phi_values(t: float, s: float, x, y, z, X, Y, Z, ctx: ModelContext,
                rel_tol: float, jacobian: bool = False):
    """Flat (phi, phi1) values at one endpoint configuration, and their Jacobian.

    ``z`` (n, 3) and ``Z`` (4N,) are the later endpoint.  Returns the dim
    values, phi flattened per particle then phi1; with ``jacobian`` on,
    returns (values, J, J_error), where J = d(phi, phi1)/d(z, Z) comes from
    the same nested quadrature, differentiated under the integral sign, and
    J_error bounds the Frobenius norm of J's quadrature error.  Each sigma
    panel runs one theta quadrature over its 16 sigma nodes.  A panel wider
    than ``_PHI_PANEL_BYTES`` raises ``BudgetError`` before any quadrature.
    """
    rho = t - s
    config = ctx.config
    n = config.n_particles
    dim = 3 * n + ctx.n_field
    width = dim + (3 * n * (dim + ctx.n_field) + ctx.n_field if jacobian else 0)
    panel_bytes = 16 * 16 * 8 * max(3 * width, n * n * ctx.modes1.N)
    if panel_bytes > _PHI_PANEL_BYTES:
        raise BudgetError(
            f"one phi-map panel needs {panel_bytes} bytes, over the cap of "
            f"{_PHI_PANEL_BYTES}; reduce the mode or particle count")
    masses = np.asarray(config.masses, dtype=float)

    def sigma_integrand(sigmas):
        sig = sigmas[:, None]
        y_sig = x + sig[..., None] * (y - x)                  # (S, n, 3)
        Y_sig = X + sig * (Y - X)                             # (S, 4N)
        rows = np.zeros((len(sigmas), width))
        rows[:, :3 * n] = (masses[:, None] * (y_sig - z) / rho).reshape(len(sigmas), 3 * n)
        rows[:, 3 * n:dim] = (Y_sig - Z) / (config.volume * rho)
        integrand = _earlier_integrand(rho, z, y_sig, Z, Y_sig, ctx, jacobian)
        if integrand is not None:
            rows += adaptive_gauss_legendre(integrand, rel_tol=rel_tol,
                                            abs_floor=1e-14)
        return rows

    integral = adaptive_gauss_legendre(sigma_integrand, rel_tol=rel_tol,
                                       abs_floor=1e-14)
    factor = np.concatenate([np.repeat(-rho / masses, 3),
                             np.full(ctx.n_field, -rho * config.volume)])
    values = factor * integral[:dim]
    if not jacobian:
        return values
    # The sigma rows depend on (z, Z) through -m (z - .) / rho and
    # -(Z - .) / (|V| rho), whose derivatives times ``factor`` give the
    # identity; the rest is the integrated theta Jacobian.  Each level of the
    # nested quadrature accepts a panel within rel_tol of the largest entry
    # (or the 1e-14 floor), so each integral entry is off by at most twice
    # that, and only the entries carried can be off.
    jac = np.eye(dim) + factor[:, None] * _jacobian_blocks(integral[dim:], n, dim)
    entry_error = 2.0 * max(rel_tol * float(np.max(np.abs(integral))), 1e-14)
    carried = factor[:, None] * _jacobian_blocks(np.ones(width - dim), n, dim)
    return values, jac, entry_error * float(np.linalg.norm(carried))


def _phi_jacobian_det(jac: np.ndarray, jac_error: float) -> tuple:
    """Determinant of a phi-map Jacobian and its first-order error bound.

    |d det| <= |det| ||J^-1||_2 ||dJ||_F, with ``jac_error`` bounding
    ||dJ||_F; |det| ||J^-1||_2 is the product of all singular values but
    the smallest, which stays finite for a singular J.
    """
    singular = np.linalg.svd(jac, compute_uv=False)
    return float(np.linalg.det(jac)), jac_error * float(np.prod(singular[:-1]))


def phi_maps(t: float, s: float, x, y, z, X, Y, Z, ctx: ModelContext, *,
             rel_tol: float = 1e-9, jacobian: bool = True,
             verify: bool = True) -> PhiMapPoint:
    """Endpoint-difference maps phi and phi_1 with an optional Jacobian.

    The maps represent the action difference of two segments sharing the
    later endpoint (z, Z):

        S(z, y, Z, Y) - S(z, x, Z, X)
            = sum_j m_j (x_j - y_j) . phi_j / (t - s)
              + (X - Y) . phi1 / ((t - s) |V|)

    exactly, by the fundamental theorem of calculus along the straight
    homotopy between the earlier endpoints; numerically to the quadrature
    tolerance.  With verify on, the identity is checked against two direct
    action evaluations.  The Jacobian determinant is for the map
    (z, Z) -> (phi, phi1); the same quadrature that gives the maps gives
    their Jacobian, differentiated under the integral sign, and
    ``det_bound`` bounds the determinant's error from the quadrature
    tolerance.
    """
    if t <= s:
        raise ConfigError("phi_maps needs t > s")
    config = ctx.config
    n = config.n_particles
    rho = t - s

    x, y, z = (_particle_values(p, ctx) for p in (x, y, z))
    X, Y, Z = (_field_values(a, ctx) for a in (X, Y, Z))

    det = bound = None
    if jacobian:
        values, jac, jac_error = _phi_values(t, s, x, y, z, X, Y, Z, ctx,
                                             rel_tol, jacobian=True)
        det, bound = _phi_jacobian_det(jac, jac_error)
    else:
        values = _phi_values(t, s, x, y, z, X, Y, Z, ctx, rel_tol)
    phi, phi1 = values[:3 * n].reshape(n, 3), values[3 * n:]

    residual = None
    if verify:
        masses = np.asarray(config.masses, dtype=float)
        predicted = float(np.sum(masses[:, None] * (x - y) * phi)) / rho \
            + float((X - Y) @ phi1) / (rho * config.volume)
        direct = segment_action(t, s, z, y, Z, Y, ctx) \
            - segment_action(t, s, z, x, Z, X, ctx)
        scale = max(1.0, abs(direct))
        residual = abs(predicted - direct) / scale
        if residual > 1e-6:
            raise InvariantViolation(
                f"phi-map difference identity drifts by {residual:.3e} "
                "relative to the direct action difference"
            )
    return PhiMapPoint(phi, phi1, det, bound, residual)


# ---------------------------------------------------------------------------
# Invertibility radius search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhoStarResult:
    """Largest certified step with sampled Jacobian determinants >= 1/2."""

    value: float
    ceiling: float
    ceiling_hit: bool
    min_det_at_value: float
    probes: tuple            # (rho, min sampled det, passed)
    undecided: tuple         # probe rhos whose min det lies within its bound of 1/2

    def __float__(self) -> float:
        return self.value


def sample_endpoints(rng: np.random.Generator, ctx: ModelContext,
                     count: int) -> tuple:
    """Draw ``count`` particle endpoints, then ``count`` field endpoints.

    Positions are uniform over the box, shape (n_particles, 3); field values
    are Gaussian at the oscillator scale sqrt(hbar |V| / omega) per variable.
    """
    config = ctx.config
    box = np.asarray(config.L, dtype=float)
    omegas = ctx.field_frequencies()
    a_scale = np.sqrt(config.hbar * config.volume
                      / np.maximum(omegas, 1e-30)) if len(omegas) else \
        np.zeros(0)
    positions = [rng.uniform(-0.5 * box, 0.5 * box,
                             size=(config.n_particles, 3))
                 for _ in range(count)]
    fields = [rng.normal(scale=a_scale) if len(a_scale) else np.zeros(0)
              for _ in range(count)]
    return positions, fields


def rho_star_search(config: SimulationConfig, sample_budget: int = 6, *,
                    ceiling: float = 1.0, seed: int = 0,
                    ctx: Optional[ModelContext] = None,
                    rel_tol: float = 1e-6, bisect_iters: int = 9) -> RhoStarResult:
    """Bisect the largest step whose sampled phi-map Jacobians stay >= 1/2.

    Endpoints are sampled once (positions uniform over the box, field values
    Gaussian at the oscillator scale) and reused across probes, so the search
    is deterministic for a fixed seed.  This is a sampled certificate over
    the drawn endpoints, not a global bound.  Each determinant carries its
    error bound from the quadrature tolerance; a probe whose min det could
    lie on either side of 1/2 within those bounds is still decided by its
    computed value, and its rho is listed in ``undecided``.
    """
    if sample_budget < 1:
        raise ConfigError("rho_star_search needs at least one sample")
    if ceiling <= 0.0:
        raise ConfigError("the search ceiling must be positive")
    if ctx is None:
        ctx = ModelContext.from_config(config)
    rng = np.random.default_rng(seed)
    samples = [sample_endpoints(rng, ctx, 3) for _ in range(sample_budget)]

    probes = []
    undecided = []

    def min_det(rho: float) -> float:
        worst = lower = upper = math.inf
        for (xs, ys, zs), (Xs, Ys, Zs) in samples:
            _, jac, jac_error = _phi_values(rho, 0.0, xs, ys, zs, Xs, Ys, Zs,
                                            ctx, rel_tol, jacobian=True)
            det, bound = _phi_jacobian_det(jac, jac_error)
            worst = min(worst, det)
            lower, upper = min(lower, det - bound), min(upper, det + bound)
        if lower < 0.5 <= upper:
            undecided.append(rho)
        return worst

    det_ceiling = min_det(ceiling)
    probes.append((ceiling, det_ceiling, det_ceiling >= 0.5))
    if det_ceiling >= 0.5:
        return RhoStarResult(ceiling, ceiling, True, det_ceiling,
                             tuple(probes), tuple(undecided))

    lo, hi = 0.0, ceiling
    lo_det = 1.0
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        det_mid = min_det(mid)
        ok = det_mid >= 0.5
        probes.append((mid, det_mid, ok))
        if ok:
            lo, lo_det = mid, det_mid
        else:
            hi = mid
    if lo == 0.0:
        raise InvariantViolation(
            "no step size with sampled Jacobian determinant >= 1/2 was found "
            f"above {hi:.3e}; the configuration couples too strongly"
        )
    return RhoStarResult(lo, ceiling, False, lo_det, tuple(probes),
                         tuple(undecided))


# ---------------------------------------------------------------------------
# Scalar-offset step G_eps
# ---------------------------------------------------------------------------

def xi_mode_factor(k_norm: float, rho: float, eps: float,
                   config: SimulationConfig) -> complex:
    """Damped scalar-offset factor of one first-cutoff mode.

    The two offset components of a mode integrate to pi / (eps^2 - i a) with
    a = rho |k|^2 / (4 pi hbar |V|); against the normalization a / (i pi)
    the factor is a / (a + i eps^2), which tends to one as eps -> 0.
    """
    if rho <= 0.0:
        raise ConfigError("xi_mode_factor needs rho > 0")
    a = rho * k_norm**2 / (4.0 * math.pi * config.hbar * config.volume)
    return a / (a + 1j * eps * eps)


def _check_offset_modes(backend: _Step) -> None:
    if backend.ctx.modes1.N > 2:
        raise ConfigError(
            "the scalar-offset step handles at most two first-cutoff modes; "
            f"Lambda'_1 has {backend.ctx.modes1.N}"
        )


def g_epsilon_step(f: StateVector, t: float, s: float, eps: float,
                   backend: _Step) -> StateVector:
    """Fundamental step with the damped scalar-offset integration included.

    The offset action decouples from the endpoints, so the extra integral
    over R^{2 N_1} with Gaussian damping exp(-(eps xi)^2) reduces to one
    closed-form factor per first-cutoff mode multiplying C(t, s) f.
    """
    if t <= s:
        raise ConfigError("g_epsilon_step needs t > s")
    if eps <= 0.0:
        raise ConfigError("g_epsilon_step needs eps > 0")
    _check_offset_modes(backend)
    stepped = fundamental_step(f, t, s, backend)
    factor = 1.0 + 0.0j
    for wv in backend.ctx.modes1.lam_prime:
        factor *= xi_mode_factor(wv.norm, t - s, eps, backend.ctx.config)
    return StateVector(factor * stepped.coefficients)


def g_epsilon_levels(rho: float, backend: _Step,
                     eps0: Optional[float] = None) -> tuple:
    """The damping levels (eps0, eps0 / sqrt 2, eps0 / 2) of the eps -> 0 step.

    The default eps0 puts the leading correction near one percent of each
    first-cutoff mode factor, so the extrapolated remainder lands well below
    1e-6.
    """
    if eps0 is None:
        config = backend.ctx.config
        a_min = min(
            rho * wv.norm**2 / (4.0 * math.pi * config.hbar * config.volume)
            for wv in backend.ctx.modes1.lam_prime
        )
        eps0 = math.sqrt(0.01 * a_min)
    return eps0, eps0 / math.sqrt(2.0), eps0 / 2.0


def g_epsilon_extrapolated(f: StateVector, t: float, s: float,
                           backend: _Step,
                           eps0: Optional[float] = None) -> StateVector:
    """eps -> 0 limit of g_epsilon_step by Richardson steps in eps^2.

    Three levels eps^2, eps^2/2, eps^2/4 from ``g_epsilon_levels`` cancel
    the first two orders.
    """
    if t <= s:
        raise ConfigError("g_epsilon_extrapolated needs t > s")
    _check_offset_modes(backend)
    modes1 = backend.ctx.modes1
    if modes1.N == 0:
        return fundamental_step(f, t, s, backend)
    states = [g_epsilon_step(f, t, s, eps, backend).coefficients
              for eps in g_epsilon_levels(t - s, backend, eps0)]
    combined = (states[0] - 6.0 * states[1] + 8.0 * states[2]) / 3.0
    return StateVector(combined)


# ---------------------------------------------------------------------------
# Galerkin backend internals
# ---------------------------------------------------------------------------

def _interp_coeffs(kappa: np.ndarray):
    """Endpoint-weighted averages of exp(-i theta kappa) over theta in [0,1].

    c1 carries the (1 - theta) weight of the later endpoint, c2 the theta
    weight of the earlier one; a series branch keeps small kappa stable.
    """
    kappa = np.asarray(kappa, dtype=float)
    u = -1j * kappa
    small = np.abs(kappa) < 1e-3
    safe = np.where(small, 1.0, u)
    exp_u = np.exp(u)
    c2 = (exp_u * (safe - 1.0) + 1.0) / safe**2
    c1 = (exp_u - 1.0) / safe - c2
    if np.any(small):
        series1 = np.zeros_like(u)
        series2 = np.zeros_like(u)
        term = np.ones_like(u)
        for order in range(7):
            series1 += term * (1.0 / (order + 1) - 1.0 / (order + 2))
            series2 += term / (order + 2)
            term = term * u / (order + 1)
        c1 = np.where(small, series1, c1)
        c2 = np.where(small, series2, c2)
    return c1, c2


# Filon rule of the longitudinal integral, in kappa = k3 s_f zeta.  The
# smooth factor oscillates at most like exp(2i kappa), so 16 Gauss-Legendre
# nodes on panels at most 4 wide interpolate it; the panels cover |kappa|
# <= 12 and five integration-by-parts terms carry each tail.  Doubling the
# reach and halving the panels moves criterion 6's step matrices by under
# 1e-10 of their largest entry (tests/test_propagator.py).
_FILON_REACH = 12.0
_FILON_PANEL = 4.0
_FILON_NODES = 16
_FILON_TAIL_TERMS = 5
# The tail series runs in powers of 1 / (2 zeta - beta -+ 2 k3 s_f); the
# reach in zeta keeps that slope at least this steep at every wave row.
_FILON_TAIL_SLOPE = 16.0
# Phase advance of exp(i (zeta^2 - beta zeta)) per 24-node sub-panel of the
# scalar rule that integrates each node's Lagrange basis against the chirp.
_CHIRP_STEP = 8.0
_GL16 = np.polynomial.legendre.leggauss(_FILON_NODES)
_GL24 = np.polynomial.legendre.leggauss(24)
# Lagrange basis of the panel nodes in Legendre coefficients:
# l_n(x) = sum_k basis[k, n] P_k(x), exact by Gauss-Legendre orthogonality.
_FILON_BASIS = (np.arange(_FILON_NODES) + 0.5)[:, None] \
    * np.polynomial.legendre.legvander(_GL16[0], _FILON_NODES - 1).T * _GL16[1]
# Derivatives 0.._FILON_TAIL_TERMS - 1 of that basis at the panel edges x = +-1.
_FILON_EDGE_DERIVS = {sign: np.stack([
    np.polynomial.legendre.legval(sign, np.polynomial.legendre.legder(
        _FILON_BASIS, j)) for j in range(_FILON_TAIL_TERMS)])
    for sign in (1.0, -1.0)}


@lru_cache(maxsize=64)
def _chirp_subpanels(n_sub: int) -> tuple:
    """Scalar nodes x in [-1, 1] of ``n_sub`` 24-node sub-panels, their
    Gauss-Legendre weights and the panel's Lagrange basis at them."""
    sub = np.linspace(-1.0, 1.0, n_sub + 1)
    x = (0.5 * (sub[:-1] + sub[1:])[:, None]
         + (1.0 / n_sub) * _GL24[0][None, :]).reshape(-1)
    lagrange = np.polynomial.legendre.legvander(x, _FILON_NODES - 1) @ _FILON_BASIS
    parts = (x, np.tile(_GL24[1], n_sub), lagrange)
    for part in parts:
        part.flags.writeable = False
    return parts


def _tail_series(order: int) -> np.ndarray:
    """Coefficients c[k, j] of the integration-by-parts tail.

    With phi = zeta^2 - beta zeta and r = 1 / phi', the k-th term is
    g_k = sum_j c[k, j] r^(2k - j) f^(j) with g_0 = f and
    g_{k+1} = i (g_k r)', so that the integral of exp(i phi) f beyond zeta
    is +- i exp(i phi) r sum_k g_k at zeta (upper tail +, lower tail -).
    """
    c = np.zeros((order, order), dtype=complex)
    c[0, 0] = 1.0
    for k in range(order - 1):
        for j in range(k + 1):
            c[k + 1, j] += -2j * (2 * k - j + 1) * c[k, j]
            c[k + 1, j + 1] += 1j * c[k, j]
    return c


def _longitudinal_rule(scale: float, beta: np.ndarray):
    """Nodes, weights and exact line integral of the galerkin zeta integral.

    Returns ``zeta`` (n,), ``weights`` (W, n) and ``line`` (W,) such that
    sum_n weights[q, n] f(zeta_n) approximates the integral over the real
    line of exp(i (zeta^2 - beta_q zeta)) f(zeta) for f smooth on the scale
    1 / scale, and ``line`` is that integral for f = 1,
    sqrt(pi) e^{i pi / 4} e^{-i beta_q^2 / 4}.

    This is a Filon rule (Filon, Proc. R. Soc. Edinb. 49 (1928) 38; Iserles
    and Norsett, Proc. R. Soc. A 461 (2005) 1383): f is interpolated at
    Gauss-Legendre nodes on panels fixed in kappa = scale zeta, and each
    node's Lagrange basis is integrated against the chirp exactly, by a
    scalar Gauss-Legendre rule fine enough for the phase.  The end panels'
    interpolants also carry the tails beyond the outer edges in closed form
    by integration by parts.  Only the smooth factor sets the node count: 96
    at every scale below about 1, more once the tails reach past kappa = 12
    (128 at scale 1.41, 192 at 2.12).  The scalar rule grows like
    (1 / scale)^2 and raises ``BudgetError`` past ``_GALERKIN_BUDGET`` nodes.
    """
    beta = np.asarray(beta, dtype=float)
    beta_max = float(np.max(np.abs(beta)))
    kappa_reach = max(_FILON_REACH, 0.5 * scale
                      * (_FILON_TAIL_SLOPE + beta_max + 2.0 * scale))
    reach = kappa_reach / scale
    n_half = math.ceil(kappa_reach / _FILON_PANEL)
    edges = np.linspace(-reach, reach, 2 * n_half + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    slopes = 2.0 * (np.abs(centers) + half) + beta_max
    n_subs = np.maximum(1, np.ceil(2.0 * half * slopes / _CHIRP_STEP)).astype(int)
    if len(_GL24[0]) * int(n_subs.sum()) > _GALERKIN_BUDGET:
        raise BudgetError(
            f"the galerkin chirp rule wants {len(_GL24[0]) * int(n_subs.sum())} "
            f"nodes, over the budget of {_GALERKIN_BUDGET}; take a larger step")
    weights = []
    for center, n_sub in zip(centers, n_subs):
        x, sub_w, lagrange = _chirp_subpanels(int(n_sub))
        z = center + half * x
        chirp = np.exp(1j * (z * z - np.outer(beta, z))) * (half / n_sub * sub_w)
        weights.append(chirp @ lagrange)
    weights = np.concatenate(weights, axis=1)

    # Tails beyond +-reach, from the derivatives of the end panels'
    # interpolants at their outer edges.
    series = _tail_series(_FILON_TAIL_TERMS)
    powers = 2 * np.arange(_FILON_TAIL_TERMS)[:, None] \
        - np.arange(_FILON_TAIL_TERMS)[None, :]
    for sign, cols in ((1.0, slice(-_FILON_NODES, None)),
                       (-1.0, slice(0, _FILON_NODES))):
        edge = sign * reach
        derivs = np.stack([row / half**j for j, row
                           in enumerate(_FILON_EDGE_DERIVS[sign])])
        r = 1.0 / (2.0 * edge - beta)
        coeffs = np.einsum("kj,wkj->wj", series,
                           r[:, None, None] ** powers[None])
        weights[:, cols] += (sign * 1j * np.exp(1j * (edge * edge - beta * edge))
                             * r)[:, None] * (coeffs @ derivs)
    zeta = (centers[:, None] + half * _GL16[0][None, :]).reshape(-1)
    line = math.sqrt(math.pi) * np.exp(1j * (0.25 * math.pi - 0.25 * beta**2))
    return zeta, weights, line


def _galerkin_matrix(backend: GalerkinStep, rho: float) -> np.ndarray:
    """Coupled one-step matrix on (field occupations) x (z-line plane waves).

    Transverse endpoint integrals are exact Gaussians, each polarization
    block is the four-variable ``_gaussian_tables`` per node, and the
    remaining periodic x3 integral is a trapezoid rule of
    ``backend.x3_nodes`` nodes.  The oscillatory longitudinal integral, over
    zeta = w3 / s_f against exp(i (zeta^2 - beta_q zeta)), is the Filon rule
    of ``_longitudinal_rule``: its nodes sit on panels fixed in kappa = k3 s_f
    zeta, where the smooth factor lives, and the chirp is in the weights, so
    the node count does not grow like 1 / rho.  It is 96 while k3 s_f stays
    below about 1, and more beyond.  The kappa -> infinity limit of the
    integrand (``pair_base``) is split off and integrated in closed form, so
    the vanishing-coupling case reproduces the analytic backend exactly; it
    has no x3 dependence, so it lands on the diagonal wave blocks only.

    The x3 rule is exact: it integrates trigonometric polynomials of degree
    below its node count exactly (Trefethen and Weideman, SIAM Rev. 56
    (2014) 385), and x3 enters only as phases.  The rotation exp(2 pi i s3
    x3) turns each (Re, Im) pair of ``d``, and B^-1, the Sherman-Morrison
    ratio and the ``eta`` scalar are invariant under that turn, so each
    polarization block has degree <= 4 s3 cap in x3.  The two blocks and
    the wave-row factor exp(2 pi i (m3_q - m3_p) x3) together have degree
    <= 8 s3 cap + 2 wave_cutoff.

    The x3 nodes go ``_X3_GROUP`` at a time.  One table build covers every
    (x3 node, zeta node) pair of a group.  Each node's pair sums over zeta
    are one GEMM, with the node's exp(2 pi i m3_q x3) folded into the Filon
    weights of row q, and a GEMM with the conjugate phases of rows p adds
    the group into the accumulator, one slice of its columns at a time.
    """
    ctx = backend.ctx
    config = ctx.config
    basis = backend.basis
    cap = basis.cap
    R = cap + 1
    hbar = config.hbar
    vol = config.volume
    m_p = float(config.masses[0])
    e_ch = float(config.charges[0])
    wv = ctx.modes2.lam_prime[0]
    k3 = wv.norm
    omega = config.c_light * k3
    pair = _pair_gaussian(rho, omega, hbar, vol)
    s3 = wv.s[2]
    L3 = config.L[2]

    evecs = ctx.frame.e(wv)
    gamma = e_ch * math.sqrt(8.0 * math.pi) / vol

    # Transverse momentum projections onto the polarization frame.
    t1, t2 = backend.transverse
    p_perp = hbar * TWO_PI * np.array(
        [t1 / config.L[0], t2 / config.L[1], 0.0])
    p_l = np.array([float(p_perp @ evecs[0]), float(p_perp @ evecs[1])])
    etas = 1j * rho * gamma * p_l / (m_p * hbar)
    coupling = 1j * rho * gamma * gamma / (m_p * hbar)

    # Longitudinal wave data.
    W = 2 * backend.wave_cutoff + 1
    flat = R**4
    group = min(_X3_GROUP, backend.x3_nodes)
    # Three accumulators (it, its transposed copy and a spare), the group
    # buffer of x3 partials and four tables of one group's zeta chunk.
    peak = 16 * ((3 * W + group) * W * flat * flat
                 + 4 * group * _ZETA_CHUNK * flat)
    if peak > 2_000_000_000:
        raise BudgetError(
            f"galerkin accumulators for cap {cap} and wave cutoff "
            f"{backend.wave_cutoff} would exceed two gigabytes; shrink one"
        )
    m3 = np.arange(-backend.wave_cutoff, backend.wave_cutoff + 1)
    s_f = math.sqrt(2.0 * hbar * rho / m_p)
    beta = (TWO_PI / L3) * m3 * s_f

    zeta, weights, line = _longitudinal_rule(k3 * s_f, beta)
    x3_nodes = backend.x3_nodes
    if x3_nodes * len(zeta) > _GALERKIN_BUDGET:
        raise BudgetError(
            f"galerkin quadrature wants {x3_nodes * len(zeta)} nodes, "
            f"over the budget of {_GALERKIN_BUDGET}"
        )

    base = _gaussian_tables(pair, 4, cap).reshape(flat)
    pair_base = np.outer(base, base)
    c1, c2 = _interp_coeffs(k3 * s_f * zeta)
    # Node j turns each (Re, Im) pair of d by its rotation and carries the
    # Fourier factor exp(2 pi i (m3_q - m3_p) j / N) of wave rows (p, q):
    # the q half is folded into the Filon weights, and the p half sums the
    # nodes of a group by GEMM.  That GEMM also applies the trapezoid
    # weight, the Filon normalization and the free transverse phase.
    x3 = np.arange(x3_nodes)
    rotations = np.exp(1j * TWO_PI * s3 * x3 / x3_nodes)
    phases = np.exp(1j * TWO_PI * np.outer(m3, x3) / x3_nodes)   # (W, N)
    normal = complex(math.cos(math.pi / 4), -math.sin(math.pi / 4)) \
        / math.sqrt(math.pi)
    scale = normal * np.exp(-1j * rho * float(p_perp @ p_perp)
                            / (2.0 * m_p * hbar))
    unphases = phases.conj() * (scale / x3_nodes)

    # acc[p, q] holds the block-0 (a,b,c,d) x block-1 (e,f,g,h) pair sum
    # weighted by wave row q and phased by the x3 Fourier factor of (p, q).
    acc = np.zeros((W, W, flat * flat), dtype=complex)
    buffer = np.zeros((group, W, flat * flat), dtype=complex)
    acc_2d = acc.reshape(W, -1)
    same_blocks = etas[0] == etas[1]
    for first in range(0, x3_nodes, group):
        members = x3[first:first + group]
        partials = buffer[:len(members)]
        for start in range(0, len(zeta), _ZETA_CHUNK):
            span = slice(start, start + _ZETA_CHUNK)
            n_z = min(_ZETA_CHUNK, len(zeta) - start)
            ec1 = np.outer(rotations[members], c1[span]).reshape(-1)
            ec2 = np.outer(rotations[members], c2[span]).reshape(-1)
            d = np.stack([ec1.real, ec1.imag, ec2.real, ec2.imag], axis=1)
            # batch-fastest tables: block0.T is C-contiguous
            block0 = _gaussian_tables(pair, 4, cap, d, coupling,
                                      etas[0]).reshape(len(d), flat)
            block1 = block0 if same_blocks else _gaussian_tables(
                pair, 4, cap, d, coupling, etas[1]).reshape(len(d), flat)
            for i, j in enumerate(members):
                rows = slice(i * n_z, (i + 1) * n_z)
                node_w = weights[:, span] * phases[:, j, None]
                # C order keeps the reshape below a view: one GEMM per node
                weighted = np.multiply(node_w[:, None, :], block0[rows].T,
                                       order="C").reshape(W * flat, n_z)
                if start == 0:
                    np.matmul(weighted, block1[rows],
                              out=partials[i].reshape(W * flat, flat))
                else:
                    partials[i] += (weighted @ block1[rows]).reshape(W, -1)
        # Column slices keep the GEMM's temporary far below the size of acc.
        group_2d = partials.reshape(len(members), -1)
        for col in range(0, W * flat * flat, _ACC_SLICE):
            cols = slice(col, col + _ACC_SLICE)
            acc_2d[:, cols] += unphases[:, members] @ group_2d[:, cols]
    # Views of the buffer would keep it alive through the transpose.
    del buffer, partials, group_2d, block0, block1, weighted

    # The weights integrate f - pair_base.  pair_base has no x3 dependence,
    # so its x3 sum is N delta_pq, and on the line it integrates in closed
    # form, so the uncoupled step is exact.
    diagonal = scale * (line - weights.sum(axis=1))
    for q in range(W):
        acc[q, q] += diagonal[q] * pair_base.reshape(-1)

    # rows (a, b, e, f, wave p), columns (c, d, g, h, wave q)
    return np.transpose(acc.reshape((W, W) + (R,) * 8),
                        (2, 3, 6, 7, 0, 4, 5, 8, 9, 1)).reshape(flat * W,
                                                                flat * W)
