"""Independent cross-check routes used to freeze expected values in the tests.

These deliberately take a different computational path from the package code
(complex exponentials instead of real cosine/sine pairs, direct loops instead
of vectorized sums) so agreement is meaningful.
"""

import itertools
import math

import numpy as np
from scipy import fft
from scipy.integrate import quad
from scipy.linalg import eigh
from scipy.signal import fftconvolve
from scipy.special import erf, erfc, erfcx

from boxqed.coulomb import v1_gradient
from boxqed.errors import BudgetError, ConfigError
from boxqed.field import extend_parity, v2_gradient
from boxqed.propagator import (
    TWO_PI,
    _earlier_integrand,
    _interp_coeffs,
)
from boxqed.quadrature import adaptive_gauss_legendre


def complex_field_sum(x, a, modes, frame, config):
    """Vector potential via complex coefficients over the full mode set.

    Uses a(l,k) = (a1 - i a2)/sqrt(2) for every k (parity-extended), summed
    with e^{ik.x} over all of Lambda.  The result must be real for admissible
    coordinates and equal to the real-form reconstruction.
    """
    full = extend_parity(a)
    x = np.asarray(x, dtype=float)
    pref = np.sqrt(4.0 * np.pi) * config.c_light / config.volume
    total = np.zeros(3, dtype=complex)
    for wv in modes.lam:
        e1, e2 = frame.e(wv)
        phase = np.exp(1j * np.dot(wv.k, x))
        for l, evec in ((1, e1), (2, e2)):
            coeff = (full[(l, wv.s, 1)] - 1j * full[(l, wv.s, 2)]) / np.sqrt(2.0)
            total += coeff * phase * np.asarray(evec)
    return pref * total


def screened_coulomb_total(positions, charges, eps):
    """Continuum limit of the Gaussian-mollified Coulomb sum.

    Convolving the 1/(2|d|) kernel with the heat kernel of width eps gives
    erf(|d| / (2 eps)) / |d| per unordered pair (both orderings included).
    """
    x = np.atleast_2d(np.asarray(positions, dtype=float))
    e = np.asarray(charges, dtype=float)
    total = 0.0
    for j in range(len(x)):
        for l in range(j + 1, len(x)):
            dist = np.linalg.norm(x[j] - x[l])
            total += e[j] * e[l] * erf(dist / (2.0 * eps)) / dist
    return total


def step_matrix_by_quadrature(rho, omega, cap, hbar, volume,
                              half_width, nodes):
    """One-variable step matrix by direct Riemann quadrature of the kernel.

    Sandwiches the raw Gaussian step kernel between normalized Hermite
    functions on a wide uniform grid.  No artificial damping is added: the
    Hermite weights supply all the decay, so the grid must reach several
    oscillator lengths and the spacing must resolve the kernel phase.
    """
    lam = math.sqrt(omega / (hbar * volume))
    grid = np.linspace(-half_width, half_width, nodes)
    dx = grid[1] - grid[0]
    herm = np.empty((cap + 1, nodes))
    for m in range(cap + 1):
        coeffs = np.zeros(m + 1)
        coeffs[m] = 1.0
        norm = math.sqrt(lam) / math.sqrt(
            math.sqrt(math.pi) * 2.0**m * math.factorial(m))
        herm[m] = norm * np.polynomial.hermite.hermval(lam * grid, coeffs) \
            * np.exp(-0.5 * (lam * grid) ** 2)
    a = 1.0 / (2.0 * volume * rho) - rho * omega**2 / (6.0 * volume)
    b = -1.0 / (volume * rho) - rho * omega**2 / (6.0 * volume)
    nu = (2.0 * math.pi * hbar * volume * rho) ** -0.5 \
        * np.exp(-0.25j * math.pi) * np.exp(0.5j * rho * omega)
    out = np.zeros((cap + 1, cap + 1), dtype=complex)
    for start in range(0, nodes, 256):
        X = grid[start:start + 256, None]
        kernel = nu * np.exp(1j * (a * (X**2 + grid**2) + b * X * grid) / hbar)
        out += herm[:, start:start + 256] @ kernel @ herm.T
    return out * dx * dx


def looped_tilde_A(x, a, modes, frame, config):
    """Scalar-loop version of the mollified potential, no vectorization.

    The mollifiers are written out here from their definitions,
    psi(t) = sigma tanh(t / sigma) and g(x) = exp(-|x|^2 / (2 w^2)).
    """
    x = np.asarray(x, dtype=float)
    sigma, width = config.sigma_psi, config.width_g

    def psi(t):
        return sigma * math.tanh(t / sigma)

    pref = np.sqrt(4.0 * np.pi) * config.c_light / config.volume * np.sqrt(2.0)
    out = np.zeros(3)
    for wv in modes.lam_prime:
        kx = float(np.dot(wv.k, x))
        e1, e2 = frame.e(wv)
        for l, evec in ((1, e1), (2, e2)):
            a1 = a.entry(l, wv.s, 1)
            a2 = a.entry(l, wv.s, 2)
            out += (psi(a1) * np.cos(kx) + psi(a2) * np.sin(kx)) * np.asarray(evec)
    g = math.exp(-sum(c * c for c in x) / (2.0 * width * width))
    return pref * g * out


def looped_earlier_integrand(thetas, rho, z_part, y_part, Z_f, Y_f, ctx):
    """Theta integrand of the earlier-endpoint gradient, one node at a time.

    The per-node form the batched propagator integrand replaced: every node
    calls the kernels on a single point.
    """
    config = ctx.config
    n = config.n_particles
    charges = np.asarray(config.charges, dtype=float)
    n_field = ctx.n_field
    has_v1 = n >= 2 and np.any(charges != 0.0) and ctx.modes1.N > 0
    has_v2 = ctx.modes3.N > 0
    coupled = [j for j in range(n) if charges[j] != 0.0] if ctx.modes2.N else []
    disp = z_part - y_part if n else np.zeros((0, 3))
    thetas = np.atleast_1d(thetas)
    out = np.zeros((len(thetas), 3 * n + n_field))
    for pos, th in enumerate(thetas):
        q = (1.0 - th) * z_part + th * y_part if n else z_part
        a_vals = (1.0 - th) * Z_f + th * Y_f
        row_y = np.zeros((n, 3))
        row_Y = np.zeros(n_field)
        if has_v1:
            row_y -= rho * th * v1_gradient(q, charges, ctx.modes1, config)
        if has_v2:
            row_Y -= rho * th * v2_gradient(a_vals, ctx.modes3, config)
        for j in coupled:
            value, grad_x, grad_a = ctx.tilde_A(q[j], a_vals)
            factor = charges[j] / config.c_light
            row_y[j] += factor * (-value + th * (grad_x @ disp[j]))
            row_Y += factor * th * (disp[j] @ grad_a)
        out[pos, :3 * n] = row_y.reshape(-1)
        out[pos, 3 * n:] = row_Y
    return out


def _looped_earlier_gradient(t, s, z_part, y_part, Z_f, Y_f, ctx, rel_tol):
    """Earlier-endpoint gradients at one sigma node, one theta quadrature."""
    rho = t - s
    config = ctx.config
    n = config.n_particles
    masses = np.asarray(config.masses, dtype=float)

    grad_y = (masses[:, None] * (y_part - z_part) / rho) if n else \
        np.zeros((0, 3))
    grad_Y = (Y_f - Z_f) / (config.volume * rho)

    integrand = _earlier_integrand(rho, z_part, y_part, Z_f, Y_f, ctx)
    if integrand is None:
        return grad_y, grad_Y
    integral = adaptive_gauss_legendre(integrand, rel_tol=rel_tol,
                                       abs_floor=1e-14)
    grad_y = grad_y + integral[:3 * n].reshape(n, 3)
    grad_Y = grad_Y + integral[3 * n:]
    return grad_y, grad_Y


def looped_phi_values(t, s, x, y, z, X, Y, Z, ctx, rel_tol):
    """(phi, phi1) at one later endpoint, one theta quadrature per sigma node.

    The per-node form the joint sigma-by-theta quadrature replaced.
    """
    rho = t - s
    config = ctx.config
    n = config.n_particles
    masses = np.asarray(config.masses, dtype=float)
    n_field = ctx.n_field

    def sigma_integrand(sigmas):
        sigmas = np.atleast_1d(sigmas)
        out = np.zeros((len(sigmas), 3 * n + n_field))
        for pos, sig in enumerate(sigmas):
            y_sig = x + sig * (y - x) if n else x
            Y_sig = X + sig * (Y - X)
            g_y, g_Y = _looped_earlier_gradient(t, s, z, y_sig, Z, Y_sig, ctx,
                                                rel_tol)
            out[pos, :3 * n] = g_y.reshape(-1)
            out[pos, 3 * n:] = g_Y
        return out

    integral = adaptive_gauss_legendre(sigma_integrand, rel_tol=rel_tol,
                                       abs_floor=1e-14)
    phi = -rho / masses[:, None] * integral[:3 * n].reshape(n, 3) if n \
        else np.zeros((0, 3))
    phi1 = -rho * config.volume * integral[3 * n:]
    return phi, phi1


def looped_phi_jacobian_det(t, s, x, y, z, X, Y, Z, ctx, rel_tol, fd_scale):
    """Central-difference determinant of d(phi, phi1) / d(z, Z), one
    ``looped_phi_values`` pair per column."""
    n = ctx.config.n_particles
    dim = 3 * n + ctx.n_field

    def evaluate(z_flat, Z_vals):
        phi, phi1 = looped_phi_values(t, s, x, y, z_flat.reshape(n, 3) if n
                                      else z_flat.reshape(0, 3),
                                      X, Y, Z_vals, ctx, rel_tol)
        return np.concatenate([phi.reshape(-1), phi1])

    base = np.concatenate([z.reshape(-1), Z])
    jac = np.empty((dim, dim))
    for col in range(dim):
        h = fd_scale * max(1.0, abs(base[col]))
        plus = base.copy()
        minus = base.copy()
        plus[col] += h
        minus[col] -= h
        f_plus = evaluate(plus[:3 * n], plus[3 * n:])
        f_minus = evaluate(minus[:3 * n], minus[3 * n:])
        jac[:, col] = (f_plus - f_minus) / (2.0 * h)
    return float(np.linalg.det(jac))


def damped_fresnel_quadrature(a, eps, *, span=12.0, step=3.0e-3):
    """Riemann sum of exp((i a - eps) theta^2) on a symmetric grid.

    The grid reaches span / sqrt(eps) so the damping tail is negligible; the
    step must resolve the local phase 2 a theta at the edge.
    """
    if not a > 0.0 or not eps > 0.0:
        raise ConfigError("damped quadrature needs a > 0 and eps > 0")
    edge = span / math.sqrt(eps)
    n = int(math.ceil(edge / step))
    theta = np.arange(-n, n + 1) * step
    return complex(np.sum(np.exp((1j * a - eps) * theta**2)) * step)


def extrapolate_inverse_square(values, eps_values):
    """eps -> 0 limit of a damped Fresnel value through 1 / v^2.

    The damped integral is sqrt(pi / (eps - i a)), so its inverse square is
    affine in eps and two levels extrapolate it exactly; the principal square
    root restores the e^{i pi / 4} branch.
    """
    vals = np.asarray(values, dtype=complex)
    eps = np.asarray(eps_values, dtype=float)
    if vals.shape != eps.shape or len(vals) < 2:
        raise ConfigError("need matching value/eps sequences of length >= 2")
    intercept = np.polyfit(eps, 1.0 / vals**2, 1)[1]
    return complex(1.0 / np.sqrt(intercept))


def trapezoid_longitudinal_rule(scale, beta, *, kappa_max=12.0, eps=4.0e-3):
    """The damped trapezoid route to the galerkin zeta integral.

    Same contract as ``propagator._longitudinal_rule``: nodes (n,), weights
    (W, n) and the value the weight rows stand for.  The grid reaches
    max(10, kappa_max / scale) and its step resolves both the chirp
    exp(i zeta^2) at the edge and the smooth factor; the integrand is damped
    by exp(-e zeta^2) at e = eps, eps / 2, eps / 4 and the Richardson
    combination (t0 - 6 t1 + 8 t2) / 3 is folded into the weights and into
    the damped closed form of the line integral.
    """
    z_lim = max(10.0, kappa_max / scale)
    dz = min(math.pi / (2.5 * z_lim), 0.2 / scale)
    n_half = int(math.ceil(z_lim / dz))
    zeta = np.arange(-n_half, n_half + 1) * dz

    def richardson(level):
        return (level(eps) - 6.0 * level(eps / 2.0)
                + 8.0 * level(eps / 4.0)) / 3.0

    damping = richardson(lambda e: np.exp(-e * zeta * zeta))
    weights = dz * (np.exp(1j * zeta * zeta) * damping)[None, :] \
        * np.exp(-1j * np.outer(beta, zeta))
    line = richardson(lambda e: np.sqrt(math.pi / (e - 1j))
                      * np.exp(-beta**2 / (4.0 * (e - 1j))))
    return zeta, weights, line


def longitudinal_data(backend, rho):
    """(k3 s_f, beta) of the galerkin zeta integral at step rho."""
    config = backend.ctx.config
    wv = backend.ctx.modes2.lam_prime[0]
    s_f = math.sqrt(2.0 * config.hbar * rho / float(config.masses[0]))
    m3 = np.arange(-backend.wave_cutoff, backend.wave_cutoff + 1)
    return wv.norm * s_f, (TWO_PI / config.L[2]) * m3 * s_f


def einsum_galerkin_matrix(backend, rho, rule, x3_nodes):
    """Coupled one-step matrix on (field occupations) x (z-line plane waves).

    The per-node assembly the grouped galerkin loop replaced: every x3 node
    sums its (a,b,e,f) x (c,d,g,h) pair tensor over zeta by one GEMM per
    wave row and adds it with its explicit x3 Fourier factors.  ``rule`` is
    the (zeta, weights, line) triple of the longitudinal integral, as
    ``propagator._longitudinal_rule`` returns it, and ``x3_nodes`` the
    trapezoid nodes of the periodic x3 integral.

    Transverse endpoint integrals are exact Gaussians, each polarization
    block is an exact four-variable generating-function Gaussian per node,
    and the remaining periodic x3 integral is a trapezoid rule.  The
    kappa -> infinity limit of the integrand is split off and integrated
    through ``line``, so the vanishing-coupling case reproduces the analytic
    backend exactly.
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
    s3 = wv.s[2]

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
    if 48 * W * W * R**8 > 2_000_000_000:
        raise BudgetError(
            f"galerkin accumulators for cap {cap} and wave cutoff "
            f"{backend.wave_cutoff} would exceed two gigabytes; shrink one"
        )
    m3 = np.arange(-backend.wave_cutoff, backend.wave_cutoff + 1)
    s_f = math.sqrt(2.0 * hbar * rho / m_p)
    zeta, weights, line = rule

    def blocks(d, eta):
        return lu_gaussian_tables(rho, omega, d, coupling, eta, cap, hbar, vol)

    base_blocks = [blocks(np.zeros((1, 4)), etas[l])[0] for l in range(2)]
    flat = R**4
    pair_base = np.einsum("abcd,efgh->abefcdgh",
                          base_blocks[0], base_blocks[1]).reshape(flat, flat)

    acc = np.zeros((W, W, flat * flat), dtype=complex)
    chunk = 512
    same_blocks = etas[0] == etas[1]
    for j in range(x3_nodes):
        xi = TWO_PI * s3 * j / x3_nodes
        rotation = np.exp(1j * xi)
        x_fac = np.exp(1j * TWO_PI * (m3[None, :] - m3[:, None])
                       * j / x3_nodes)
        for start in range(0, len(zeta), chunk):
            zc = zeta[start:start + chunk]
            kappa = k3 * s_f * zc
            c1, c2 = _interp_coeffs(kappa)
            ec1 = rotation * c1
            ec2 = rotation * c2
            d = np.stack([ec1.real, ec1.imag, ec2.real, ec2.imag], axis=1)
            block0 = blocks(d, etas[0]).reshape(len(zc), flat)
            block1 = block0 if same_blocks else \
                blocks(d, etas[1]).reshape(len(zc), flat)
            w = weights[:, start:start + chunk]
            # one GEMM per wave row q: sum_z w[q, z] block0[z] (x) block1[z],
            # as (a,b,c,d) x (e,f,g,h), then put in (a,b,e,f) x (c,d,g,h)
            partial = np.stack([(w[q][:, None] * block0).T @ block1
                                for q in range(W)])
            partial = np.transpose(partial.reshape((W,) + (R,) * 8),
                                   (0, 1, 2, 5, 6, 3, 4, 7, 8))
            partial = partial.reshape(W, flat * flat) \
                - w.sum(axis=1)[:, None] * pair_base.reshape(-1)[None, :]
            acc += np.einsum("ab,bF->abF", x_fac, partial)

    normal = np.exp(-0.25j * math.pi) / math.sqrt(math.pi)
    total = normal / x3_nodes * acc
    for b in range(W):
        total[b, b] += normal * line[b] * pair_base.reshape(-1)

    global_phase = np.exp(-1j * rho * float(p_perp @ p_perp) / (2.0 * m_p * hbar))
    total = global_phase * total.reshape(W, W, flat, flat)
    matrix = np.transpose(total, (2, 0, 3, 1)).reshape(flat * W, flat * W)
    return matrix


def lu_gaussian_tables(rho, omega, d_vecs, coupling, eta, cap, hbar=1.0,
                       vol=1.0):
    """Four-variable step Gaussian tensors of one polarization block.

    The route the closed-form kernel ``propagator._gaussian_tables``
    replaced: per node the endpoint form M = B + coupling d d^T is assembled
    as a 4 x 4 matrix and passed to ``np.linalg.inv`` and ``np.linalg.det``,
    and the square root of det M is anchored to the uncoupled branch through
    the ratio to det_q^2.  Variables 0, 1 are the later endpoint's and pair
    with the earlier 2, 3.  The tensors include the two variables'
    zero-point phase exp(i rho omega); shape (batch, R, R, R, R).
    """
    lam_sq = omega / (hbar * vol)
    a_q = 1.0 / (2.0 * vol * rho) - rho * omega**2 / (6.0 * vol)
    b_q = -1.0 / (vol * rho) - rho * omega**2 / (6.0 * vol)
    A11 = lam_sq - 2j * a_q / hbar
    A12 = -1j * b_q / hbar
    det_q2 = (A11 - A12) * (A11 + A12)
    m_base = np.zeros((4, 4), dtype=complex)
    np.fill_diagonal(m_base, A11)
    m_base[0, 2] = m_base[2, 0] = A12
    m_base[1, 3] = m_base[3, 1] = A12
    norm_const = -1j / (TWO_PI * hbar * vol * rho) * TWO_PI**2 * lam_sq / math.pi
    fac1 = np.array([math.sqrt(math.factorial(i) / 2.0**i) for i in range(cap + 1)])
    fac4 = np.einsum("a,b,c,d->abcd", fac1, fac1, fac1, fac1)

    batch = d_vecs.shape[0]
    M = np.broadcast_to(m_base, (batch, 4, 4)).copy()
    M += coupling * np.einsum("zi,zj->zij", d_vecs, d_vecs)
    m_inv = np.linalg.inv(M)
    sqrt_det = det_q2 * np.sqrt(np.linalg.det(M) / (det_q2 * det_q2))
    lam_tilde = 2.0 * lam_sq * m_inv - np.eye(4)[None]
    mu = None
    scalar = np.ones(batch, dtype=complex)
    if eta != 0.0:
        m_inv_d = np.einsum("zij,zj->zi", m_inv, d_vecs)
        mu = 2.0 * math.sqrt(lam_sq) * eta * m_inv_d
        scalar = np.exp(0.5 * eta * eta * np.einsum("zi,zi->z", d_vecs, m_inv_d))
    tables = looped_coeff_tables(lam_tilde, mu, cap)
    const = norm_const * np.exp(1j * rho * omega) * scalar / sqrt_det
    return tables * const[:, None, None, None, None] * fac4[None]


def looped_coeff_tables(lam_tilde, mu, cap):
    """Taylor tables of exp(u^T lam_tilde u + mu . u), one entry at a time.

    The per-entry loop over the multi-indices sorted by total degree that
    the degree-by-degree gathers replaced.  The rank n is the last axis of
    ``lam_tilde`` (batch, n, n); shape (batch,) + (R,) * n.
    """
    R = cap + 1
    batch, n = lam_tilde.shape[:2]
    c = np.zeros((batch,) + (R,) * n, dtype=complex)
    c[(slice(None),) + (0,) * n] = 1.0
    alphas = sorted(itertools.product(range(R), repeat=n), key=sum)
    for alpha in alphas[1:]:
        i = next(ax for ax in range(n) if alpha[ax] > 0)
        acc = np.zeros(batch, dtype=complex)
        reduced = list(alpha)
        reduced[i] -= 1
        if mu is not None:
            acc += mu[:, i] * c[(slice(None), *reduced)]
        for j in range(n):
            idx = list(reduced)
            idx[j] -= 1
            if idx[j] < 0:
                continue
            acc = acc + 2.0 * lam_tilde[:, i, j] * c[(slice(None), *idx)]
        c[(slice(None), *alpha)] = acc / alpha[i]
    return c


def eigh_reference_evolve(H, state, t, hbar=1.0):
    """exp(-i H t / hbar) applied to a state through a dense eigendecomposition."""
    vals, vecs = eigh(H.matrix.toarray())
    phases = np.exp(-1j * vals * t / hbar)
    return vecs @ (phases * (vecs.conj().T @ state.coefficients))


def fftconvolve_three_squares_counts(n_max: int) -> np.ndarray:
    """Counts of integer triples with s1^2+s2^2+s3^2 = n for n = 0..n_max.

    Cube of the one-dimensional square-counting sequence, computed with FFT
    convolutions and rounded back to exact integers.
    """
    theta = np.zeros(n_max + 1)
    theta[0] = 1.0
    squares = np.arange(1, math.isqrt(n_max) + 1) ** 2
    theta[squares] = 2.0
    two = fftconvolve(theta, theta)[: n_max + 1]
    three = fftconvolve(two, theta)[: n_max + 1]
    return np.rint(three)


def single_cube_three_squares_counts(n_max: int) -> np.ndarray:
    """The same counts as the cube of the whole theta series in one real FFT,
    padded to 3 n_max + 1 entries so no kept entry aliases."""
    theta = np.zeros(n_max + 1)
    theta[0] = 1.0
    theta[np.arange(1, math.isqrt(n_max) + 1) ** 2] = 2.0
    size = fft.next_fast_len(3 * n_max + 1, real=True)
    spectrum = fft.rfft(theta, n=size)
    return np.rint(fft.irfft(spectrum ** 3, n=size)[: n_max + 1])


def _lattice_norms(spacing, radius):
    """Norms of the nonzero points spacing * n, n in Z^3, up to radius."""
    tops = np.floor(radius / np.asarray(spacing)).astype(int)
    axes = [h * np.arange(-top, top + 1) for h, top in zip(spacing, tops)]
    grid = np.meshgrid(*axes, indexing="ij")
    norms = np.sqrt(sum(axis ** 2 for axis in grid)).ravel()
    return norms[(norms > 0.0) & (norms <= radius)]


def ewald_lattice_sum(name, L, width=1.0):
    """Exact cellvol * sum over s != 0 of a radial summand at k = 2 pi s / L.

    Takes no route through the radial or slab code.  The summand is split as
    f = f G + f (1 - G) with G = exp(-width^2 k^2): f G decays like a
    Gaussian and is summed over the reciprocal lattice directly, and f (1 - G)
    is smooth at k = 0 (value width^2), so by Poisson summation its lattice
    sum equals the sum of its Fourier transform over the real lattice L n
    (P. P. Ewald, Ann. Phys. 369 (1921) 253).  The gaussian summand needs no
    split.  Both sides stop where their terms fall under about e^-45.
    ``name`` is "gaussian" (e^-k^2), "inverse-quartic" (1/(k^2 (1+k^2))) or
    "screened-inverse-square" (e^-k^2 / k^2); L is an edge or three edges.
    """
    box = np.broadcast_to(np.asarray(L, dtype=float), (3,))
    cellvol = (2.0 * math.pi) ** 3 / float(np.prod(box))
    dual = 2.0 * math.pi / box
    pi2, pi32 = math.pi ** 2, math.pi ** 1.5
    w2 = width * width
    if name == "gaussian":
        r = _lattice_norms(box, math.sqrt(180.0))
        return math.fsum(pi32 * np.exp(-0.25 * r * r)) + pi32 - cellvol
    if name == "inverse-quartic":
        k = _lattice_norms(dual, math.sqrt(45.0) / width)
        direct = np.exp(-w2 * k * k) / (k * k * (1.0 + k * k))
        r = _lattice_norms(box, max(45.0 + w2, 2.0 * width * math.sqrt(45.0)))
        u = r / (2.0 * width)
        # transforms of (1 - G)/k^2 and (1 - G)/(1 + k^2): erfc and Yukawa
        poisson = (pi2 / r) * (2.0 * erfc(u) - 2.0 * np.exp(-r)
                               + np.exp(w2 - r) * erfc(width - u)
                               - erfcx(width + u) * np.exp(-u * u))
        origin = 2.0 * pi2 * (1.0 - erfcx(width))
    elif name == "screened-inverse-square":
        wide = math.sqrt(1.0 + w2)
        k = _lattice_norms(dual, math.sqrt(45.0) / wide)
        direct = np.exp(-(wide * k) ** 2) / (k * k)
        r = _lattice_norms(box, 2.0 * wide * math.sqrt(45.0))
        poisson = (2.0 * pi2 / r) * (erfc(r / (2.0 * wide)) - erfc(0.5 * r))
        origin = 2.0 * pi32 * (1.0 - 1.0 / wide)
    else:
        raise ValueError(f"no closed-form transform for summand {name!r}")
    return (cellvol * math.fsum(direct) + math.fsum(poisson) + origin
            - cellvol * w2)


def enumerated_mollified_coulomb(positions, charges, L, eps, chi, chi_bound,
                                 rel_tol=1e-6):
    """(2 pi / |V|) sum over k != 0 of chi(eps k) sum_pairs 2 e_j e_l
    cos(k.d) / |k|^2, by enumerating the reciprocal lattice.

    Takes no route through the Ewald split or the package's enumerator: the
    lattice is walked one s1 plane at a time inside a radius that starts at
    8 * 2 pi / min(L) and doubles until the cell-covering bound on the tail,
    from the non-increasing radial majorant chi_bound(eps r) / r^2, is below
    rel_tol * |value|.  The terms are summed in sorted order.
    """
    x = np.asarray(positions, dtype=float)
    e = np.asarray(charges, dtype=float)
    box = np.broadcast_to(np.asarray(L, dtype=float), (3,))
    j, l = np.triu_indices(len(e), k=1)
    D, w = x[j] - x[l], 2.0 * e[j] * e[l]
    steps = 2.0 * math.pi / box
    diag = float(np.linalg.norm(steps))
    pair_weight = float(np.sum(np.abs(w)))
    radius = 8.0 * float(np.max(steps))
    for _ in range(24):
        tops = np.floor(radius / steps).astype(int)
        k2, k3 = np.meshgrid(steps[1] * np.arange(-tops[1], tops[1] + 1),
                             steps[2] * np.arange(-tops[2], tops[2] + 1),
                             indexing="ij")
        terms = []
        for s1 in range(-tops[0], tops[0] + 1):
            K = np.stack([np.full(k2.size, steps[0] * s1), k2.ravel(),
                          k3.ravel()], axis=1)
            k_sq = np.sum(K * K, axis=1)
            keep = (k_sq > 0.0) & (k_sq <= radius * radius)
            K, k_sq = K[keep], k_sq[keep]
            terms.append(chi(eps * K) / k_sq * (np.cos(K @ D.T) @ w))
        value = 2.0 * math.pi / float(np.prod(box)) \
            * float(np.sum(np.sort(np.concatenate(terms))))
        # 4 pi (v + d/2)^2 covers each exterior site's cell; the sum's
        # prefactor 2 pi / |V| is the cell volume over 4 pi^2
        cover, _ = quad(lambda v: (v + 0.5 * diag) ** 2 * pair_weight
                        * float(chi_bound(eps * v)) / (v * v),
                        radius - diag, np.inf, limit=200)
        if cover / math.pi <= rel_tol * max(abs(value), 1e-12):
            return value
        radius *= 2.0
    raise BudgetError("enumerated Coulomb tail did not certify")
