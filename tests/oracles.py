"""Independent cross-check routes used to freeze expected values in the tests.

These deliberately take a different computational path from the package code
(complex exponentials instead of real cosine/sine pairs, direct loops instead
of vectorized sums) so agreement is meaningful.
"""

import math

import numpy as np
from scipy.special import erf

from boxqed.coulomb import v1_gradient
from boxqed.field import FieldVector, extend_parity, tilde_A_with_derivatives, v2_gradient


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


def looped_tilde_A(x, a, modes, frame, mollifiers, config):
    """Scalar-loop version of the mollified potential, no vectorization."""
    x = np.asarray(x, dtype=float)
    pref = np.sqrt(4.0 * np.pi) * config.c_light / config.volume * np.sqrt(2.0)
    out = np.zeros(3)
    for wv in modes.lam_prime:
        kx = float(np.dot(wv.k, x))
        e1, e2 = frame.e(wv)
        for l, evec in ((1, e1), (2, e2)):
            a1 = a.entry(l, wv.s, 1)
            a2 = a.entry(l, wv.s, 2)
            out += (float(mollifiers.psi(a1)) * np.cos(kx)
                    + float(mollifiers.psi(a2)) * np.sin(kx)) * np.asarray(evec)
    return pref * mollifiers.g(x) * out


def looped_earlier_integrand(thetas, rho, z_part, y_part, Z_f, Y_f, ctx):
    """Theta integrand of the earlier-endpoint gradient, one node at a time.

    The per-node form the batched propagator integrand replaced: every node
    rebuilds its field vector and calls the kernels on a single point.
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
            row_Y -= rho * th * v2_gradient(FieldVector(a_vals, ctx.modes3), config)
        for j in coupled:
            value, grad_x, grad_a = tilde_A_with_derivatives(
                q[j], FieldVector(a_vals, ctx.modes3), ctx.modes2,
                ctx.frame, ctx.mollifiers, config)
            factor = charges[j] / config.c_light
            row_y[j] += factor * (-value + th * (grad_x @ disp[j]))
            row_Y += factor * th * (disp[j] @ grad_a)
        out[pos, :3 * n] = row_y.reshape(-1)
        out[pos, 3 * n:] = row_Y
    return out
