"""Cutoff Coulomb energy, reciprocal-lattice Riemann sums, and the pointwise limit.

The reciprocal lattice of the box has spacing 2 pi / L_i per axis; sums over it
approximate momentum-space integrals with cell volume (2 pi)^3 / |V|.  All
truncations here are certified by a radial non-increasing majorant phi(r):
covering each exterior lattice cell by the integral of phi bounds the tail.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import erf, erfc

from .errors import BudgetError, ConfigError, InvariantViolation
from .lattice import ModeSet, SimulationConfig
from .quadrature import adaptive_gauss_legendre

TWO_PI = 2.0 * math.pi
PI_SQ = math.pi ** 2

# Cap on the lattice points of one slab enumeration, checked before they are
# allocated.
_POINT_BUDGET = int(2e8)

# Lattice points per slab of one enumeration, which bounds its temporaries.
_SLAB_CHUNK = 262144

# Tail quadrature tolerance, by which each certificate is raised.
_TAIL_TOL = 2e-9

# Shells per block of the radial sum, so its temporaries stay a few MB
# beside the table and its one contributions array.
_SHELL_BLOCK = 1 << 20


def _deterministic_sum(values: np.ndarray) -> float:
    """Order-independent reduction: sort, then sum.

    Any enumeration order of the same contributions gives bit-identical
    results, so a sum does not depend on how its sites were enumerated.
    """
    return float(np.sum(np.sort(np.asarray(values, dtype=float))))


@dataclass(frozen=True)
class LatticeSummand:
    """A momentum-space summand with a radial majorant certifying its tail.

    ``phi_fn`` evaluates Phi on arrays of wave vectors with shape (..., 3).
    ``bound_fn`` is a non-increasing radial majorant with r^2 bound_fn(r)
    integrable and bounded; it is what turns truncation into a theorem.
    ``radial_fn``, when present, asserts Phi(k) = radial_fn(|k|) and unlocks
    the fast cube path that groups lattice sites by integer |s|^2.
    """

    phi_fn: Callable
    bound_fn: Callable
    name: str = ""
    analytic_limit: Optional[float] = None
    radial_fn: Optional[Callable] = None

    def validate(self, seed: int = 0) -> None:
        """Numerically spot-check the majorant contract on a log grid."""
        radii = np.logspace(-2, 3, 41)
        bounds = np.array([float(self.bound_fn(r)) for r in radii])
        if np.any(np.diff(bounds) > 1e-12 * np.maximum(np.abs(bounds[:-1]), 1.0)):
            raise InvariantViolation(f"majorant for '{self.name}' is not non-increasing")
        if not np.all(np.isfinite(radii ** 2 * bounds)):
            raise InvariantViolation(f"r^2 majorant for '{self.name}' is unbounded")
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((8, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        samples = radii[:, None, None] * dirs[None, :, :]
        phi_vals = np.abs(np.asarray(self.phi_fn(samples), dtype=float))
        slack = 1e-9 * np.maximum(bounds, 1.0)[:, None]
        if np.any(phi_vals > bounds[:, None] + slack):
            raise InvariantViolation(
                f"|Phi| exceeds its radial majorant for '{self.name}'"
            )
        _upper_quad(lambda r: r * r * float(self.bound_fn(r)), 1.0,
                    f"the r^2 majorant for '{self.name}'")


@dataclass(frozen=True)
class RiemannResult:
    """Value of a truncated lattice sum together with its tail certificate."""

    value: float
    tail_bound: float
    n_points: int
    radius: float


def _as_box(L) -> np.ndarray:
    box = np.asarray(L, dtype=float)
    if box.ndim == 0:
        box = np.repeat(box, 3)
    if box.shape != (3,) or not np.all(np.isfinite(box) & (box > 0)):
        raise ConfigError(
            f"box lengths must be three finite positive reals, got {L!r}")
    return box


def _cell_diagonal(box: np.ndarray) -> float:
    return TWO_PI * float(np.linalg.norm(1.0 / box))


def _upper_quad(integrand, lower: float, what: str) -> float:
    """Integral of a non-negative integrand over [lower, inf), lower > 0,
    raised by ``_TAIL_TOL``; ``InvariantViolation`` if it fails or is not a
    finite non-negative number.  QUADPACK's QAGI map v = lower / (1 - t) keeps
    power-law tails smooth; dividing by the t = 0 value keeps tails far below
    1e-30 at their tolerance, and panels that shift within 8 ulps of it stop."""
    head = float(integrand(lower))

    def mapped(ts):
        return np.array([float(integrand(lower / (1.0 - t))) / head
                         / (1.0 - t) ** 2 for t in ts])

    try:
        value = head * lower * adaptive_gauss_legendre(
            mapped, rel_tol=_TAIL_TOL,
            abs_floor=8.0 * math.ulp(head) / head) if head else 0.0
        if not (math.isfinite(value) and value >= 0.0):
            raise InvariantViolation(f"value {value!r}")
    except (BudgetError, InvariantViolation) as exc:
        raise InvariantViolation(f"quadrature of {what} failed: {exc}") from exc
    return value * (1.0 + _TAIL_TOL)


def _tail_integral(bound_fn, box: np.ndarray, radius: float) -> float:
    """Bound on cellvol * sum of bound_fn(|k|) over lattice points |k| > radius.

    Each exterior site owns a cell of diameter d; shifting the majorant by d/2
    dominates the cell sum by 4 pi * integral of (v + d/2)^2 phi(v) from
    radius - d, raised by its quadrature tolerance.
    """
    diag = _cell_diagonal(box)
    lower = radius - diag
    if lower <= 0:
        return math.inf
    return 4.0 * math.pi * _upper_quad(
        lambda v: (v + 0.5 * diag) ** 2 * float(bound_fn(v)), lower,
        "a lattice tail")


def _slab_contributions(box: np.ndarray, radius: float,
                        eval_fn) -> tuple[np.ndarray, int]:
    """Evaluate eval_fn on every nonzero lattice point with |k| <= radius.

    Enumerates integer triples in slabs along s1 so memory stays flat; returns
    the concatenated contribution array and the number of retained points.
    More than ``_POINT_BUDGET`` points raise ``BudgetError`` first.
    """
    smax = np.floor(radius * box / TWO_PI).astype(int)
    predicted = int(np.prod(2 * smax + 1))
    if predicted > _POINT_BUDGET:
        raise BudgetError(
            f"lattice enumeration needs {predicted} points at radius {radius:g}, "
            f"budget is {_POINT_BUDGET}"
        )
    steps = TWO_PI / box
    s2 = np.arange(-smax[1], smax[1] + 1)
    s3 = np.arange(-smax[2], smax[2] + 1)
    K23 = np.stack(np.meshgrid(steps[1] * s2, steps[2] * s3, indexing="ij"),
                   axis=-1).reshape(-1, 2)
    plane = K23.shape[0]
    per_slab = max(1, _SLAB_CHUNK // max(plane, 1))
    pieces = []
    kept = 0
    s1_all = np.arange(-smax[0], smax[0] + 1)
    for start in range(0, len(s1_all), per_slab):
        s1 = s1_all[start:start + per_slab]
        K = np.empty((len(s1), plane, 3))
        K[:, :, 0] = (steps[0] * s1)[:, None]
        K[:, :, 1] = K23[None, :, 0]
        K[:, :, 2] = K23[None, :, 1]
        K = K.reshape(-1, 3)
        norms_sq = np.einsum("ij,ij->i", K, K)
        mask = (norms_sq > 0) & (norms_sq <= radius * radius)
        if not np.any(mask):
            continue
        vals = eval_fn(K[mask])
        kept += int(np.count_nonzero(mask))
        pieces.append(np.asarray(vals, dtype=float))
    if not pieces:
        return np.zeros(0), 0
    return np.concatenate(pieces), kept


def _round_to_integers(values: np.ndarray) -> np.ndarray:
    """Round a transform output that must be integral, refusing if any entry
    (or a NaN) is more than 1e-3 from an integer.  Empty entries come back as
    +0.0, never -0.0."""
    rounded = np.rint(values)
    gap = values - rounded
    drift = float(np.max(np.abs(gap, out=gap), initial=0.0))
    if not drift <= 1e-3:
        raise InvariantViolation(
            f"integer table drifted {drift:.3g} from the nearest integers"
        )
    return np.add(rounded, 0.0, out=rounded)


def _indicator(top: int, exponents: np.ndarray, weight: float) -> np.ndarray:
    """Series on 0..top with ``weight`` at each exponent that fits."""
    series = np.zeros(top + 1)
    series[exponents[exponents <= top]] = weight
    return series


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length pocketfft transforms quickly."""
    best = 1 << max(n - 1, 0).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _fill_scaled(out: np.ndarray, spectrum: np.ndarray, size: int,
                 factor: float) -> None:
    """Write factor times the leading entries of the integer series whose
    length-``size`` real spectrum is given into ``out``."""
    series = np.fft.irfft(spectrum, n=size)[: len(out)]
    np.multiply(_round_to_integers(series), factor, out=out)


def _fill_eighth_shells(out: np.ndarray, t: np.ndarray, n_max: int) -> None:
    """r3(8j+3) = 8 [P(y)^3]_j for 8j+3 <= n_max, written into ``out``."""
    top = max(n_max - 3, 0) // 8
    size = _fast_len(3 * top + 1)
    spectrum = np.fft.rfft(_indicator(top, t * (t + 1) // 2, 1.0), n=size)
    np.power(spectrum, 3, out=spectrum)
    _fill_scaled(out, spectrum, size, 8.0)


# Largest three-squares table built so far, read-only; smaller requests are
# served as its prefix.  A cube's radius doublings ask for about 64 * 4^k
# shells whatever the edge, so every request inside one riemann_sum outgrows
# the table, but its r3(4m) quarter is the previous doubling's table and is
# read here as a prefix; a later box reuses the table up to that size.
_R3_TABLE = np.zeros(0)


def _three_squares_counts(n_max: int) -> np.ndarray:
    """Counts of integer triples with s1^2+s2^2+s3^2 = n for n = 0..n_max.

    Splitting the theta series sum_s q^(s^2) by the parity of s gives
    theta(q) = E(q^4) + 2q P(q^8) with E(x) = sum_t x^(t^2) and
    P(y) = sum_{t>=0} y^(t(t+1)/2), so theta^3 falls apart by residue:
    r3(4m) = r3(m), read from the quarter-size table; r3(4m+1) and r3(4m+2)
    are 6 [E^2 P(x^2)]_m and 12 [E P(x^2)^2]_m, from one real FFT each of E
    and P(x^2) padded to 3 (n_max-1)//4 + 1 so no kept entry aliases;
    r3(8j+3) is 8 [P^3]_j from an eighth-size transform pair; and
    r3(8j+7) = 0.  Every product is rounded back to exact integers.

    The transforms are numpy's, which release the GIL, so one helper thread
    overlaps them: it transforms P(x^2) while this thread transforms E, then
    runs the eighth-size pair while this thread runs the two full-size
    inverses.  An error in either thread reaches the caller, and the kept
    table changes only once both have finished.  The largest table is kept
    for the process; a request it covers is a read-only prefix view of it,
    and a larger one builds a new table.
    """
    global _R3_TABLE
    table = _R3_TABLE
    if n_max >= len(table):
        table = np.zeros(n_max + 1)
        table[0::4] = _three_squares_counts(n_max // 4) if n_max else 1.0
        t = np.arange(math.isqrt(2 * n_max) + 2)
        top = max(n_max - 1, 0) // 4
        size = _fast_len(3 * top + 1)
        with ThreadPoolExecutor(max_workers=1) as helper:
            odds = helper.submit(
                lambda: np.fft.rfft(_indicator(top, t * (t + 1), 1.0), n=size))
            even = _indicator(top, t * t, 2.0)
            even[0] = 1.0       # t = 0 is the one square with a single sign
            evens = np.fft.rfft(even, n=size)
            del even
            odds = odds.result()
            eighth = helper.submit(_fill_eighth_shells, table[3::8], t, n_max)
            mixed = evens * odds
            evens *= mixed      # E^2 P(x^2)
            mixed *= odds       # E P(x^2)^2
            del odds
            _fill_scaled(table[1::4], evens, size, 6.0)
            del evens
            _fill_scaled(table[2::4], mixed, size, 12.0)
            del mixed
            eighth.result()

        table.flags.writeable = False
        _R3_TABLE = table
    return table[: n_max + 1]


def _shell_contributions(counts: np.ndarray, step: float,
                         radial_fn) -> tuple[np.ndarray, int]:
    """r3(n) radial_fn(step sqrt(n)) on every occupied shell n >= 1, in shell
    order, and the number of lattice points they hold.

    The shells are visited in blocks of ``_SHELL_BLOCK`` that fill one
    preallocated array, so no temporary spans the whole table.
    """
    contributions = np.empty(int(np.count_nonzero(counts[1:])))
    filled = 0
    for start in range(1, len(counts), _SHELL_BLOCK):
        block = counts[start:start + _SHELL_BLOCK]
        shells = np.flatnonzero(block)
        values = np.asarray(radial_fn(step * np.sqrt(shells + start)),
                            dtype=float)
        np.multiply(block[shells], values,
                    out=contributions[filled:filled + len(shells)])
        filled += len(shells)
    return contributions, int(np.sum(counts[1:]))


def riemann_sum(summand: LatticeSummand, L,
                rel_tol: float = 2e-3) -> RiemannResult:
    """Cell-volume-weighted sum of the summand over the nonzero lattice.

    The truncation radius doubles until the majorant tail certificate drops
    below rel_tol times the current value.  A cube box with ``radial_fn`` set
    sums over three-squares shells; any other box or summand enumerates the
    lattice in slabs.
    """
    summand.validate()
    box = _as_box(L)
    cellvol = TWO_PI ** 3 / float(np.prod(box))
    use_radial = bool(np.all(box == box[0])) and summand.radial_fn is not None

    radius = 8.0 * TWO_PI / float(np.min(box))
    for _ in range(24):
        if use_radial:
            step = TWO_PI / box[0]
            n_max = int((radius / step) ** 2)
            if n_max > int(4e7):
                raise BudgetError(
                    f"radial path needs {n_max} shells at radius {radius:g}"
                )
            contributions, n_points = _shell_contributions(
                _three_squares_counts(n_max), step, summand.radial_fn)
        else:
            contributions, n_points = _slab_contributions(
                box, radius,
                lambda K: np.asarray(summand.phi_fn(K), dtype=float),
            )
        value = cellvol * _deterministic_sum(contributions)
        tail = _tail_integral(summand.bound_fn, box, radius)
        if tail <= rel_tol * max(abs(value), 1e-300):
            return RiemannResult(value=value, tail_bound=tail,
                                 n_points=n_points, radius=radius)
        radius *= 2.0
    raise BudgetError(
        f"tail certificate for '{summand.name}' did not reach rel_tol={rel_tol:g}"
    )


def _pair_phases(positions, charges, modes: ModeSet):
    """Positions (..., n, 3), checked charges and the phases k.(x_j - x_l)."""
    x = np.atleast_2d(np.asarray(positions, dtype=float))
    e = np.asarray(charges, dtype=float)
    n = x.shape[-2]
    if x.shape[-1] != 3 or e.shape != (n,):
        raise ConfigError("positions must be (n, 3) and charges length n")
    if n < 2 or modes.N == 0:
        return x, e, None
    diff = x[..., :, None, :] - x[..., None, :, :]
    return x, e, np.tensordot(diff, modes.k, axes=([-1], [1]))   # (..., n, n, N')


def potential_V1(positions, charges, modes: ModeSet,
                 config: SimulationConfig):
    """Finite-mode Coulomb energy over the first cutoff set.

    Ordered-pair double sum of e_j e_l cos(k.(x_j - x_l)) / |k|^2 over the
    full mode set, scaled by 2 pi / |V|; evaluated on the halved set with the
    parity doubling.  Zero for fewer than two particles.  Positions of shape
    (..., n, 3) give one energy per leading index, shape (...).
    """
    x, e, phases = _pair_phases(positions, charges, modes)
    if phases is None:
        return np.zeros(x.shape[:-2])[()]
    n = len(e)
    weights = np.einsum("...jlm,m->...jl", np.cos(phases), 1.0 / modes.k_norm ** 2)
    weights[..., range(n), range(n)] = 0.0
    total = np.einsum("j,l,...jl->...", e, e, weights)
    return (TWO_PI / config.volume) * 2.0 * total


def v1_gradient(positions, charges, modes: ModeSet,
                config: SimulationConfig) -> np.ndarray:
    """Derivative of the finite-mode Coulomb energy per particle coordinate,
    batched like ``potential_V1``: shape (..., n, 3)."""
    x, e, phases = _pair_phases(positions, charges, modes)
    if phases is None:
        return np.zeros(x.shape)
    sines = np.sin(phases) * (1.0 / modes.k_norm ** 2)
    pair = np.einsum("j,l->jl", e, e)
    np.fill_diagonal(pair, 0.0)
    grad = -np.einsum("jl,...jlm,mc->...jc", pair, sines, modes.k)
    return (TWO_PI / config.volume) * 4.0 * grad


def v1_hessian(positions, charges, modes: ModeSet,
               config: SimulationConfig) -> np.ndarray:
    """Second derivatives of the finite-mode Coulomb energy, batched like
    ``potential_V1``: shape (..., n, 3, n, 3), indexed (j, c, l, d) for
    d^2 V1 / dx_{j,c} dx_{l,d}.

    A cosine sum: the pair (j, l) adds e_j e_l cos(k.(x_j - x_l)) k_c k_d
    / |k|^2 off the diagonal, and minus its sum over l on the (j, j) block.
    """
    x, e, phases = _pair_phases(positions, charges, modes)
    n = x.shape[-2]
    if phases is None:
        return np.zeros(x.shape + (n, 3))
    pair = np.einsum("j,l->jl", e, e)
    np.fill_diagonal(pair, 0.0)
    k_k = (modes.k[:, :, None] * modes.k[:, None, :]).reshape(-1, 9)
    cross = (pair[:, :, None] * ((np.cos(phases) * (1.0 / modes.k_norm ** 2)) @ k_k)
             ).reshape(phases.shape[:-1] + (3, 3))               # (..., j, l, c, d)
    own = np.eye(n)[:, None, :, None] * cross.sum(axis=-3)[..., :, :, None, :]
    return (TWO_PI / config.volume) * 4.0 * (np.swapaxes(cross, -3, -2) - own)


def richardson_limit(value_fine: float, value_coarse: float) -> float:
    """Limit estimate 2 f(L) - f(L/2) for sequences with leading 1/L error."""
    return 2.0 * value_fine - value_coarse


def _ewald_real_kernel(r: np.ndarray, eps: float, width: float) -> np.ndarray:
    """Fourier transform 2 pi^2 [erf(r / 2 eps) - erf(r / 2 width)] / r of
    (exp(-eps^2 k^2) - exp(-width^2 k^2)) / k^2, for width >= eps.

    Below r = 2 eps it is the erf difference, above it the equal erfc
    difference erfc(r / 2 width) - erfc(r / 2 eps), so neither form subtracts
    two numbers near 1; r = 0 takes the limit 2 pi^(3/2) (1/eps - 1/width).
    """
    near, far = r / (2.0 * width), r / (2.0 * eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.where(far < 1.0, erf(far) - erf(near), erfc(near) - erfc(far))
        values = 2.0 * PI_SQ * gap / r
    return np.where(r > 0.0, values,
                    2.0 * math.pi ** 1.5 * (1.0 / eps - 1.0 / width))


def _gaussian_coulomb_split(D: np.ndarray, w: np.ndarray, box: np.ndarray,
                            eps: float, width: float, rel_tol: float) -> float:
    """(2 pi / |V|) sum_{k != 0} exp(-eps^2 k^2) / k^2 sum_p w_p cos(k.D_p),
    split at ``width`` >= eps (Ewald, Ann. Phys. 369 (1921) 253).

    With f = exp(-eps^2 k^2) / k^2 and sigma^2 = width^2 - eps^2, the part
    f exp(-sigma^2 k^2) is summed over the reciprocal lattice directly.  The
    rest is smooth at k = 0 (value sigma^2), so by Poisson summation it sums
    to the real-lattice sum of its transform ``_ewald_real_kernel`` at
    D_p + R, over cellvol, minus sigma^2; R = 0 is added by hand because the
    enumerator leaves the origin out.  Each side doubles its radius until the
    two cell-covering certificates together are below rel_tol * |value|.
    """
    volume = float(np.prod(box))
    prefactor = TWO_PI / volume
    pair_weight = float(np.sum(np.abs(w)))
    sigma_sq = width * width - eps * eps
    # the sum is periodic in every D_p; the minimum image keeps the real side
    # centred on the origin
    D = D - box * np.rint(D / box)
    reach = float(np.max(np.linalg.norm(D, axis=1)))
    real_box = TWO_PI / box     # its reciprocal lattice is the real lattice

    def reciprocal_terms(K):
        k_sq = np.einsum("ij,ij->i", K, K)
        return np.exp(-width * width * k_sq) / k_sq * (np.cos(K @ D.T) @ w)

    def reciprocal_majorant(r):
        return pair_weight * math.exp(-(width * r) ** 2) / (r * r)

    def real_terms(R):
        r = np.linalg.norm(R[:, None, :] + D[None, :, :], axis=-1)
        return _ewald_real_kernel(r, eps, width) @ w

    def real_majorant(r):
        # |D_p + R| >= |R| - reach > 0 beyond the first radius, and the
        # kernel lies under 2 pi^2 erfc(r / 2 width) / r, non-increasing
        gap = r - reach
        return pair_weight * 2.0 * PI_SQ * math.erfc(gap / (2.0 * width)) / gap

    def reciprocal_side(radius):
        terms, _ = _slab_contributions(box, radius, reciprocal_terms)
        tail = _tail_integral(reciprocal_majorant, box, radius)
        return prefactor * _deterministic_sum(terms), tail / (4.0 * PI_SQ)

    def real_side(radius):
        if sigma_sq <= 0.0:
            return 0.0, 0.0
        terms, _ = _slab_contributions(real_box, radius, real_terms)
        origin = _ewald_real_kernel(np.linalg.norm(D, axis=1), eps, width) @ w
        tail = _tail_integral(real_majorant, real_box, radius) / volume
        return (_deterministic_sum(np.append(terms, origin)) / (4.0 * PI_SQ),
                tail / (4.0 * PI_SQ))

    # first radii put each certificate's Gaussian about e^-36 down
    k_radius = _cell_diagonal(box) + 6.0 / width
    r_radius = float(np.linalg.norm(box)) + reach + 12.0 * width
    k_value, k_tail = reciprocal_side(k_radius)
    r_value, r_tail = real_side(r_radius)
    offset = prefactor * sigma_sq * float(np.sum(w))
    for _ in range(24):
        value = k_value + r_value - offset
        allowed = rel_tol * max(abs(value), 1e-12)
        if k_tail + r_tail <= allowed:
            return value
        if k_tail > 0.5 * allowed:
            k_radius *= 2.0
            k_value, k_tail = reciprocal_side(k_radius)
        if r_tail > 0.5 * allowed:
            r_radius *= 2.0
            r_value, r_tail = real_side(r_radius)
    raise BudgetError("mollified Coulomb tail did not certify within the radius cap")


def mollified_coulomb(positions, charges, L, eps: float,
                      rel_tol: float = 1e-6) -> float:
    """Gaussian-cut lattice Coulomb sum (2 pi / |V|) sum exp(-eps^2 k^2) pairs / |k|^2.

    The Ewald split ``_gaussian_coulomb_split`` at the width
    b = max(|V|^(1/3) / (2 sqrt pi), eps) certifies its reciprocal side with
    the Gaussian majorant exp(-b^2 r^2) / r^2 and its real side with
    2 pi^2 erfc(r / 2b) / r.  Each side takes a few hundred points; at
    b = eps the real side is empty.
    """
    x = np.atleast_2d(np.asarray(positions, dtype=float))
    e = np.asarray(charges, dtype=float)
    n = x.shape[0]
    if x.shape != (n, 3) or e.shape != (n,):
        raise ConfigError("positions must be (n, 3) and charges length n")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(e))):
        raise ConfigError("positions and charges must be finite")
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError("mollifier scale eps must be finite and positive")
    if n < 2:
        return 0.0
    box = _as_box(L)

    pairs_j, pairs_l = np.triu_indices(n, k=1)
    D = x[pairs_j] - x[pairs_l]
    if np.any(np.linalg.norm(D, axis=1) == 0.0):
        raise ConfigError("mollified Coulomb needs distinct particle positions")
    w = 2.0 * e[pairs_j] * e[pairs_l]
    width = max(float(np.prod(box)) ** (1.0 / 3.0) / (2.0 * math.sqrt(math.pi)),
                eps)
    return _gaussian_coulomb_split(D, w, box, eps, width, rel_tol)


def _radial_summand(radial, bound_fn, name: str,
                    analytic_limit: float) -> LatticeSummand:
    """The summand Phi(k) = radial(|k|), with ``radial_fn`` set."""
    def on_radii(r):
        return radial(np.asarray(r, dtype=float))

    return LatticeSummand(phi_fn=lambda K: on_radii(np.linalg.norm(K, axis=-1)),
                          bound_fn=bound_fn, radial_fn=on_radii, name=name,
                          analytic_limit=analytic_limit)


def inverse_quartic_summand() -> LatticeSummand:
    """1 / (|k|^2 (1 + |k|^2)), with integral 2 pi^2 over R^3."""
    def radial(r):
        return 1.0 / (r * r * (1.0 + r * r))

    return _radial_summand(radial, radial, "inverse-quartic", 2.0 * math.pi**2)


def screened_inverse_square_summand() -> LatticeSummand:
    """exp(-|k|^2) / |k|^2, with integral 2 pi^(3/2) over R^3."""
    return _radial_summand(lambda r: np.exp(-r * r) / (r * r),
                           lambda r: math.exp(-min(r * r, 700.0)) / (r * r),
                           "screened-inverse-square", 2.0 * math.pi**1.5)
