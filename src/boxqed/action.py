"""Classical actions along linear segments and broken-line paths.

A segment runs from the (s, y, Y) endpoint to the (t, x, X) endpoint with
every coordinate interpolated linearly; theta = 0 sits at the later time t.
The three theta-integrals (Coulomb term, coupled potential line integral, and
quadratic field potential) share one adaptive Gauss-Legendre driver even
though the first and last have closed forms, so a single quadrature path gets
exercised everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coulomb import potential_V1
from .errors import ConfigError
from .field import FieldVector, ModelContext, potential_V2
from .lattice import WaveVector
from .quadrature import adaptive_gauss_legendre


@dataclass(frozen=True)
class Subdivision:
    """Strictly increasing time grid 0 = tau_0 < ... < tau_nu = T."""

    times: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if len(times) < 2:
            raise ConfigError("a subdivision needs at least two times")
        if times[0] != 0.0:
            raise ConfigError("subdivisions start at time 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("subdivision times must increase strictly")

    @classmethod
    def uniform(cls, horizon: float, segments: int) -> "Subdivision":
        if horizon <= 0 or segments < 1:
            raise ConfigError("uniform subdivision needs horizon > 0, segments >= 1")
        return cls(tuple(horizon * i / segments for i in range(segments + 1)))

    @property
    def mesh(self) -> float:
        return max(b - a for a, b in zip(self.times, self.times[1:]))

    @property
    def n_segments(self) -> int:
        return len(self.times) - 1


@dataclass
class BrokenPath:
    """Piecewise-linear particle and field trajectory over a subdivision.

    ``scalar_offsets``, when given, holds one R^2 offset per first-cutoff mode
    per segment, shape (segments, N1, 2).
    """

    subdivision: Subdivision
    particle_vertices: np.ndarray
    field_vertices: np.ndarray
    scalar_offsets: Optional[np.ndarray] = None

    def __post_init__(self):
        self.particle_vertices = np.asarray(self.particle_vertices, dtype=float)
        self.field_vertices = np.asarray(self.field_vertices, dtype=float)
        nv = len(self.subdivision.times)
        if self.particle_vertices.shape[0] != nv or self.field_vertices.shape[0] != nv:
            raise ConfigError("vertex counts must match the subdivision")
        if self.particle_vertices.ndim != 3 or self.particle_vertices.shape[2] != 3:
            raise ConfigError("particle vertices must have shape (nv, n, 3)")
        if self.scalar_offsets is not None:
            self.scalar_offsets = np.asarray(self.scalar_offsets, dtype=float)
            if self.scalar_offsets.shape[0] != nv - 1 or self.scalar_offsets.shape[2:] != (2,):
                raise ConfigError("scalar offsets must have shape (segments, N1, 2)")

    def evaluate(self, tau: float):
        times = self.subdivision.times
        if tau < times[0] or tau > times[-1]:
            raise ConfigError(f"time {tau} outside the subdivision range")
        for idx, node in enumerate(times):
            if tau == node:
                return self.particle_vertices[idx], self.field_vertices[idx]
        seg = int(np.searchsorted(times, tau) - 1)
        lo, hi = times[seg], times[seg + 1]
        w = (tau - lo) / (hi - lo)
        x = (1.0 - w) * self.particle_vertices[seg] + w * self.particle_vertices[seg + 1]
        X = (1.0 - w) * self.field_vertices[seg] + w * self.field_vertices[seg + 1]
        return x, X


def _field_values(X, ctx: ModelContext) -> np.ndarray:
    """A field endpoint as a (4N,) array on Lambda'_3, else ConfigError.

    A ``FieldVector`` must live on a mode set with the s-triples of
    ``ctx.modes3``; anything else is read as a flat array.
    """
    if isinstance(X, FieldVector):
        if [wv.s for wv in X.modes.lam_prime] != [wv.s for wv in ctx.modes3.lam_prime]:
            raise ConfigError("field endpoint lives on a mode set other than Lambda'_3")
        X = X.values
    arr = np.asarray(X, dtype=float)
    if arr.shape != (ctx.n_field,):
        raise ConfigError(f"field endpoint needs length {ctx.n_field}, got {arr.shape}")
    return arr


def _particle_values(x, ctx: ModelContext) -> np.ndarray:
    """A particle endpoint as an (n, 3) array; a single particle may be (3,)."""
    n = ctx.config.n_particles
    if x is None:
        if n:
            raise ConfigError("particle endpoints are required when n_particles > 0")
        return np.zeros((0, 3))
    arr = np.atleast_2d(np.asarray(x, dtype=float))
    if n == 0 and arr.size == 0:
        return np.zeros((0, 3))
    if arr.shape != (n, 3):
        raise ConfigError(f"particle endpoint needs shape ({n}, 3), got {arr.shape}")
    return arr


def segment_action(t: float, s: float, x, y, X, Y, ctx: ModelContext) -> float:
    """Action of the linear segment from (s, y, Y) to (t, x, X).

    Kinetic terms for particles and field, minus the time-scaled theta
    integrals of the Coulomb and quadratic field potentials, plus the coupled
    line-integral term (x - y) . integral of the mollified potential.
    """
    if t <= s:
        raise ConfigError("segment needs t > s")
    dt = t - s
    config = ctx.config
    xv = _particle_values(x, ctx)
    yv = _particle_values(y, ctx)
    Xv = _field_values(X, ctx)
    Yv = _field_values(Y, ctx)
    masses = np.asarray(config.masses, dtype=float)
    charges = np.asarray(config.charges, dtype=float)
    disp = xv - yv

    kinetic = float(np.sum(masses * np.einsum("jc,jc->j", disp, disp))) / (2.0 * dt) \
        if len(masses) else 0.0
    field_diff = Xv - Yv
    kinetic_field = float(field_diff @ field_diff) / (2.0 * config.volume * dt)

    def v1_integrand(thetas):
        th = thetas[:, None, None]
        return potential_V1((1.0 - th) * xv + th * yv, charges, ctx.modes1, config)

    def v2_integrand(thetas):
        th = thetas[:, None]
        return potential_V2((1.0 - th) * Xv + th * Yv, ctx.modes3, config)

    v1_term = -dt * float(adaptive_gauss_legendre(v1_integrand)) \
        if len(charges) >= 2 and np.any(charges != 0.0) else 0.0
    v2_term = -dt * float(adaptive_gauss_legendre(v2_integrand)) \
        if ctx.modes3.N else 0.0

    coupling = 0.0
    if len(charges) and np.any(charges != 0.0) and ctx.modes2.N:
        def coupled_integrand(thetas):
            th = thetas[:, None]
            a_theta = (1.0 - th) * Xv + th * Yv
            total = np.zeros(len(thetas))
            for j in range(len(charges)):
                if charges[j] == 0.0:
                    continue
                points = (1.0 - th) * xv[j] + th * yv[j]
                tilde, _, _ = ctx.tilde_A(points, a_theta, need_x=False, need_a=False)
                total += charges[j] * (tilde @ disp[j])
            return total

        coupling = float(adaptive_gauss_legendre(coupled_integrand)) / config.c_light

    return kinetic + v1_term + coupling + kinetic_field + v2_term


def scalar_offset_term(t: float, s: float, xi, ctx: ModelContext) -> float:
    """Quadratic cost of the eliminated scalar offsets over Lambda'_1."""
    if t <= s:
        raise ConfigError("segment needs t > s")
    offsets = np.asarray(xi, dtype=float)
    if offsets.shape != (ctx.modes1.N, 2):
        raise ConfigError(
            f"scalar offsets need shape ({ctx.modes1.N}, 2), got {offsets.shape}"
        )
    k_sq = np.array([wv.norm ** 2 for wv in ctx.modes1.lam_prime])
    weighted = float(np.sum(k_sq * np.einsum("ki,ki->k", offsets, offsets)))
    return (t - s) / (4.0 * math.pi * ctx.config.volume) * weighted


def broken_action(path: BrokenPath, ctx: ModelContext) -> float:
    """Total action of a broken-line path: the sum over its segments."""
    total = 0.0
    times = path.subdivision.times
    for seg in range(path.subdivision.n_segments):
        s, t = times[seg], times[seg + 1]
        value = segment_action(
            t, s,
            path.particle_vertices[seg + 1], path.particle_vertices[seg],
            path.field_vertices[seg + 1], path.field_vertices[seg],
            ctx,
        )
        if path.scalar_offsets is not None:
            value += scalar_offset_term(t, s, path.scalar_offsets[seg], ctx)
        total += value
    return total


def constraint_identity_check(x, charges, k) -> tuple:
    """Both sides of the charge-density elimination identity for one mode.

    With rho1 = sum e_j cos(k.x_j), rho2 = sum e_j sin(k.x_j) and
    phi_i = 4 pi rho_i / |k|^2, the combination
    sum_i (|k|^2 phi_i^2 - 8 pi rho_i phi_i) + 16 pi^2 sum e_j^2 / |k|^2
    collapses onto the pure interaction sum on the right side.
    """
    kvec = np.asarray(k.k if isinstance(k, WaveVector) else k, dtype=float)
    k_sq = float(kvec @ kvec)
    if k_sq == 0.0:
        raise ConfigError("the identity needs a nonzero mode")
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    e = np.asarray(charges, dtype=float)
    phases = xs @ kvec
    rho = np.array([float(e @ np.cos(phases)), float(e @ np.sin(phases))])
    phi = 4.0 * math.pi * rho / k_sq
    lhs = float(np.sum(k_sq * phi ** 2 - 8.0 * math.pi * rho * phi)) \
        + 16.0 * math.pi ** 2 * float(e @ e) / k_sq
    cross = 0.0
    for j in range(len(e)):
        for l in range(len(e)):
            if j != l:
                cross += e[j] * e[l] * math.cos(float(kvec @ (xs[j] - xs[l])))
    rhs = -16.0 * math.pi ** 2 / k_sq * cross
    return lhs, rhs
