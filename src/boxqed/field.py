"""Field coordinates on the halved mode set, reconstructed vector potentials, and V2.

The independent field variables are the 4N reals a[l, k, i] with polarization
l in {1,2}, k in Lambda' (one representative per +-k pair), and quadrature
index i in {1,2} (cosine and sine components).  The full coefficient family
over Lambda follows from the parity rules a1(-k) = -a1(k), a2(-k) = +a2(k),
which make the reconstructed potential real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .lattice import (
    ModeSet,
    PolarizationFrame,
    SimulationConfig,
    build_mode_set,
    build_polarization,
)


@dataclass
class FieldVector:
    """The 4N independent field coordinates, flat with a documented index map.

    Flat offset of variable (l, k, i) is 4*k_index + 2*(l-1) + (i-1)
    (``ModeSet.variable_offset``), where k_index enumerates Lambda' in its
    stored (sorted) order.  ``grid`` exposes the same storage reshaped to
    (N, 2, 2) with axes (k, l-1, i-1).

    ``values`` may carry leading batch axes, shape (..., 4N), so the kernels
    can evaluate many field points in one call; ``grid`` is then
    (..., N, 2, 2).  ``entry`` addresses a single point.
    """

    values: np.ndarray
    modes: ModeSet

    def __post_init__(self):
        self.values = _field_array(self.values, self.modes)

    @classmethod
    def zeros(cls, modes: ModeSet) -> "FieldVector":
        return cls(np.zeros(4 * modes.N), modes)

    @classmethod
    def from_entries(cls, modes: ModeSet, entries: dict) -> "FieldVector":
        vec = cls.zeros(modes)
        for (l, s, i), value in entries.items():
            vec.values[vec.offset(l, s, i)] = value
        return vec

    @property
    def grid(self) -> np.ndarray:
        return self.values.reshape(self.values.shape[:-1] + (self.modes.N, 2, 2))

    def offset(self, l: int, s: tuple, i: int) -> int:
        return self.modes.variable_offset(l, s, i)

    def entry(self, l: int, s: tuple, i: int) -> float:
        return float(self.values[self.offset(l, s, i)])


@dataclass(frozen=True)
class ModelContext:
    """Everything the action and propagator need: mode sets, frame, mollifiers.

    modes1 drives V1, modes2 the coupled potential, modes3 the field state
    space.  Lambda'_2 must be contained in Lambda'_3.  The mollifiers ``psi``
    and ``g`` take their widths from ``config``.  ``frame2``
    (N2, 2, 3) holds the polarization vectors on Lambda'_2 and ``cols2``
    (N2, 2, 2) the flat Lambda'_3 offsets of the variables (k, l, i) they
    couple to; both are built once, for the batched kernels.
    """

    config: SimulationConfig
    modes1: ModeSet
    modes2: ModeSet
    modes3: ModeSet
    frame: PolarizationFrame
    frame2: np.ndarray = field(init=False, repr=False, compare=False)
    cols2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for wv in self.modes2.lam_prime:
            if not self.modes3.contains_prime(wv.s):
                raise ConfigError(
                    f"Lambda'_2 member {wv.s} is missing from Lambda'_3; "
                    "the coupling modes must be a subset of the field modes"
                )
        frame2, cols2 = _mode_arrays(self.modes2, self.frame, self.modes3)
        object.__setattr__(self, "frame2", frame2)
        object.__setattr__(self, "cols2", cols2)

    @classmethod
    def from_config(cls, config: SimulationConfig) -> "ModelContext":
        return cls.custom(config, *(build_mode_set(config, i) for i in (1, 2, 3)))

    @classmethod
    def custom(cls, config: SimulationConfig, modes1: ModeSet, modes2: ModeSet,
               modes3: ModeSet) -> "ModelContext":
        """Build a context from given mode sets, such as hand-picked ones."""
        return cls(
            config=config,
            modes1=modes1,
            modes2=modes2,
            modes3=modes3,
            frame=build_polarization(modes3),
        )

    @property
    def n_field(self) -> int:
        return 4 * self.modes3.N

    def field_frequencies(self) -> np.ndarray:
        """Angular frequency c|k| per flat field variable (length 4N)."""
        return np.repeat(self.config.c_light * self.modes3.k_norm, 4)

    def psi(self, theta, order: int = 0) -> tuple:
        """Amplitude damping psi(t) = sigma tanh(t / sigma) and its derivatives.

        Returns psi and, up to ``order`` (at most 2), psi' and psi''.  Odd,
        with all derivatives decaying, and close to the identity for
        |t| << sigma.  Acts elementwise on arrays of any shape.
        """
        _check_order(order)
        sigma = self.config.sigma_psi
        t = np.tanh(np.asarray(theta, dtype=float) / sigma)
        if order == 0:
            return (sigma * t,)
        slope = 1.0 - t * t
        if order == 1:
            return sigma * t, slope
        return sigma * t, slope, (-2.0 / sigma) * t * slope

    def g(self, x, order: int = 0) -> tuple:
        """Spatial cutoff g(x) = exp(-|x|^2 / (2 w^2)) and its derivatives.

        Maps points of shape (..., 3) to values (...), gradients (..., 3) if
        ``order`` is at least 1 and Hessians (..., 3, 3) if it is 2; g(0) = 1.
        """
        _check_order(order)
        width = self.config.width_g
        x = np.asarray(x, dtype=float)
        value = np.exp(-np.sum(x * x, axis=-1) / (2.0 * width * width))
        if order == 0:
            return (value,)
        grad = (-x / (width * width)) * value[..., None]
        if order == 1:
            return value, grad
        hess = (x[..., :, None] * x[..., None, :] / width**2 - np.eye(3)) \
            * (value / (width * width))[..., None, None]
        return value, grad, hess

    def tilde_A(self, x, a_values, *, need_x: bool = True, need_a: bool = True,
                second: bool = False):
        """Mollified potential on Lambda'_2 with optional derivatives, batched over points.

        psi acts on each field coordinate and g(x) scales the sum.  ``x`` has
        shape (..., 3) and ``a_values`` shape (..., 4N) on the flat Lambda'_3
        layout; their leading axes broadcast to a batch shape B, and a single
        point is the batch of shape ().  Returns (value, grad_x, grad_a) with
        shapes B + (3,), B + (3, 3) and B + (3, 4N), where
        grad_x[..., m, l] = d(tilde_A_l)/dx_m and
        grad_a[..., m, v] = d(tilde_A_m)/da_v.  Entries not requested come
        back as None.

        With ``second`` on, both gradients are computed and three second
        derivatives follow: hess_xx B + (3, 3, 3), hess_xa B + (3, 3, 4N) and
        hess_aa B + (3, 4N), where
        hess_xx[..., c, m, l] = d^2(tilde_A_l)/dx_c dx_m,
        hess_xa[..., m, l, v] = d^2(tilde_A_l)/dx_m da_v and
        hess_aa[..., l, v] = d^2(tilde_A_l)/da_v^2.  Each field variable
        enters through one psi, so the a-a Hessian is diagonal and
        ``hess_aa`` holds that diagonal.
        """
        x = np.asarray(x, dtype=float)
        a_values = _field_array(a_values, self.modes3)
        K, E, cols = self.modes2.k, self.frame2, self.cols2
        n_flat = a_values.shape[-1]
        batch = np.broadcast_shapes(x.shape[:-1], a_values.shape[:-1])
        need_x = need_x or second
        need_a = need_a or second
        if len(K) == 0:
            shapes = [(3,), (3, 3) if need_x else None, (3, n_flat) if need_a else None]
            if second:
                shapes += [(3, 3, 3), (3, 3, n_flat), (3, n_flat)]
            return tuple(None if shape is None else np.zeros(batch + shape)
                         for shape in shapes)
        coeff = a_values[..., cols]                            # (..., N2, 2, 2)
        psi_terms = self.psi(coeff, order=2 if second else int(need_a))
        psi_vals = psi_terms[0]
        kx = x @ K.T                                           # (..., N2)
        cos_kx = np.cos(kx)[..., None]
        sin_kx = np.sin(kx)[..., None]
        pref = _prefactor(self.config)
        g_terms = self.g(x, order=2 if second else int(need_x))
        g_val = g_terms[0]
        scale = (pref * g_val)[..., None]

        # The (n, l) sums are GEMMs over 2 N2 rows: E as (2 N2, 3), and for
        # the x gradient K (x) E as (2 N2, 9), so that
        # osc[..., j, m] = d(raw_m)/dx_j at fixed g.
        n_rows = 2 * len(K)
        weights = psi_vals[..., 0] * cos_kx + psi_vals[..., 1] * sin_kx
        raw = (weights.reshape(-1, n_rows) @ E.reshape(n_rows, 3)).reshape(
            batch + (3,))                                      # before g and pref
        value = scale * raw

        grad_x = None
        if need_x:
            dweights = -psi_vals[..., 0] * sin_kx + psi_vals[..., 1] * cos_kx
            k_e = (K[:, None, :, None] * E[:, :, None, :]).reshape(n_rows, 9)
            osc = (dweights.reshape(-1, n_rows) @ k_e).reshape(batch + (3, 3))
            grad_x = pref * (g_terms[1][..., :, None] * raw[..., None, :]
                             + g_val[..., None, None] * osc)

        grad_a = None
        if need_a:
            # per coupled variable v = (k, l, i), flat in the order of cols:
            # its mode's wave vector, its polarization e_l, psi'(a_v) and
            # trig_i(k.x), with trig = (cos, sin)
            def per_variable(values):        # (..., N2, 2, 2) by (k, l, i)
                return values.reshape(values.shape[:-3] + (cols.size,))

            def per_mode(pair):              # (..., N2, 2) by (k, i)
                return per_variable(np.broadcast_to(pair[..., None, :],
                                                    pair.shape[:-1] + (2, 2)))

            k_var = np.repeat(K, 4, axis=0).T                   # (3, 4 N2)
            e_var = np.repeat(E, 2, axis=1).reshape(-1, 3).T    # (3, 4 N2)
            psi_slope = per_variable(psi_terms[1])
            trig_var = per_mode(np.concatenate([cos_kx, sin_kx], axis=-1))
            per_var = psi_slope * trig_var
            grad_a = _on_columns(scale[..., None] * (per_var[..., None, :] * e_var),
                                 cols, n_flat)
        if not second:
            return value, grad_x, grad_a

        # The x-x sum is one more GEMM, with K (x) K (x) E as (2 N2, 27):
        # d^2(weights)/dx_c dx_m = -k_c k_m weights.
        k_k_e = (K[:, None, :, None, None] * K[:, None, None, :, None]
                 * E[:, :, None, None, :]).reshape(n_rows, 27)
        osc2 = -(weights.reshape(-1, n_rows) @ k_k_e).reshape(batch + (3, 3, 3))
        g_grad = g_terms[1]
        hess_xx = pref * (g_terms[2][..., :, :, None] * raw[..., None, None, :]
                          + g_grad[..., None, :, None] * osc[..., :, None, :]
                          + g_grad[..., :, None, None] * osc[..., None, :, :]
                          + g_val[..., None, None, None] * osc2)
        # d(trig_i)/d(k.x): cos -> -sin, sin -> cos
        dper_var = psi_slope * per_mode(np.concatenate([-sin_kx, cos_kx], axis=-1))
        slope_x = pref * (g_grad[..., :, None] * per_var[..., None, :]
                          + g_val[..., None, None] * k_var * dper_var[..., None, :])
        hess_xa = _on_columns(slope_x[..., :, None, :] * e_var, cols, n_flat)
        curve = per_variable(psi_terms[2]) * trig_var
        hess_aa = _on_columns(scale[..., None] * (curve[..., None, :] * e_var), cols, n_flat)
        return value, grad_x, grad_a, hess_xx, hess_xa, hess_aa


def extend_parity(a: FieldVector) -> dict:
    """Full coefficient map over Lambda from the independent Lambda' variables.

    Keys are (l, s, i); a1 flips sign under k -> -k while a2 keeps it.
    """
    full: dict = {}
    for idx, wv in enumerate(a.modes.lam_prime):
        neg = wv.negated().s
        for l in (1, 2):
            a1 = a.grid[..., idx, l - 1, 0]
            a2 = a.grid[..., idx, l - 1, 1]
            full[(l, wv.s, 1)] = a1
            full[(l, wv.s, 2)] = a2
            full[(l, neg, 1)] = -a1
            full[(l, neg, 2)] = a2
    return full


def _mode_arrays(modes: ModeSet, frame: PolarizationFrame, field_modes: ModeSet):
    """Frame (N, 2, 3) and flat columns (N, 2, 2) of ``modes``.

    The columns are the offsets of the variables (k, l, i) in the flat
    layout of a field vector on ``field_modes``.
    """
    E = np.array([frame.e(wv) for wv in modes.lam_prime]).reshape(-1, 2, 3)
    cols = np.array([[[field_modes.variable_offset(l, wv.s, i) for i in (1, 2)]
                      for l in (1, 2)] for wv in modes.lam_prime],
                    dtype=np.intp).reshape(-1, 2, 2)
    return E, cols


def _on_columns(per_var: np.ndarray, cols: np.ndarray, n_flat: int) -> np.ndarray:
    """Entries (..., 4 N2) of the coupled variables, in the order of ``cols``,
    on the flat field layout of length ``n_flat``, zero elsewhere."""
    flat = cols.ravel()
    if n_flat == len(flat) and np.array_equal(flat, np.arange(n_flat)):
        return per_var                  # the coupled variables are the field
    out = np.zeros(per_var.shape[:-1] + (n_flat,))
    out[..., flat] = per_var
    return out


def _check_order(order: int) -> None:
    if order not in (0, 1, 2):
        raise ConfigError(f"mollifier derivatives go up to order 2, got {order}")


def _prefactor(config: SimulationConfig) -> float:
    return math.sqrt(4.0 * math.pi) * config.c_light / config.volume * math.sqrt(2.0)


def reconstruct_A(x, a: FieldVector, modes: ModeSet, frame: PolarizationFrame,
                  config: SimulationConfig) -> np.ndarray:
    """The transverse vector potential A(x) from the independent coordinates.

    Computed as the halved sum with the parity doubling factor; each k in
    Lambda' contributes twice the (1/sqrt(2)) (a1 cos + a2 sin) e_l term of the
    full Lambda sum.
    """
    if modes.N == 0:
        return np.zeros(3)
    x = np.asarray(x, dtype=float)
    E, cols = _mode_arrays(modes, frame, a.modes)
    coeff = a.values[cols]                                 # (N2, 2, 2)
    kx = modes.k @ x
    weights = coeff[:, :, 0] * np.cos(kx)[:, None] + coeff[:, :, 1] * np.sin(kx)[:, None]
    return _prefactor(config) * np.einsum("nl,nlm->m", weights, E)


def _field_array(values, modes: ModeSet) -> np.ndarray:
    """``values`` as a float array of shape (..., 4N) on ``modes``, else ConfigError."""
    values = np.asarray(values, dtype=float)
    if values.ndim < 1 or values.shape[-1] != 4 * modes.N:
        raise ConfigError(
            f"field values need length {4 * modes.N}, got shape {values.shape}")
    return values


def potential_V2(values, modes: ModeSet, config: SimulationConfig):
    """Quadratic field potential with the ground-energy subtraction.

    Sum over (k in Lambda', i, l) of (c|k|)^2 a^2 / (2|V|) - hbar c |k| / 2;
    the subtraction makes the field ground-state energy exactly zero.
    ``values`` holds field points on the flat layout of ``modes``, shape
    (..., 4N); a batch gives an array of shape (...), and each point is
    reduced with ``math.fsum``.
    """
    values = _field_array(values, modes)
    c = config.c_light
    hbar = config.hbar
    vol = config.volume
    knorm = modes.k_norm
    batch = values.shape[:-1]
    squares = np.sum((values ** 2).reshape(batch + (modes.N, 4)), axis=-1)
    terms = (c * knorm) ** 2 / (2.0 * vol) * squares - 2.0 * hbar * c * knorm
    sums = [math.fsum(row) for row in terms.reshape(math.prod(batch), modes.N).tolist()]
    return sums[0] if not batch else np.array(sums).reshape(batch)


def v2_gradient(values, modes: ModeSet, config: SimulationConfig) -> np.ndarray:
    """dV2/da per flat variable: (c|k|)^2 a / |V|, batched like ``values``."""
    values = _field_array(values, modes)
    omega_sq = (config.c_light * modes.k_norm) ** 2
    return np.repeat(omega_sq, 4) * values / config.volume
