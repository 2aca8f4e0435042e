"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single summary line with the measured numbers so a
`pytest -v` run doubles as the acceptance report.  Tolerances are pinned;
nothing here is tuned at runtime.
"""

import math

import numpy as np
from numpy.polynomial import hermite as H

from boxqed import ModeSet, SimulationConfig
from boxqed.action import (
    BrokenPath,
    Subdivision,
    broken_action,
    constraint_identity_check,
    segment_action,
)
from boxqed.cli import main as cli_main
from boxqed.coulomb import (
    inverse_quartic_summand,
    mollified_coulomb,
    richardson_limit,
    riemann_sum,
    screened_inverse_square_summand,
)
from boxqed.field import ModelContext
from boxqed.fock import (
    OscillatorBasis,
    StateVector,
    assemble_hamiltonian,
    complex_modes,
    h_rad,
    ladder_ops,
    photon_state,
    reference_evolve,
    vacuum,
)
from boxqed.propagator import (
    StepBackend,
    compose,
    convergence_study,
    fit_growth_rate,
    fresnel_gaussian,
    fundamental_step,
    g_epsilon_extrapolated,
    quadratic_variable_step,
    residual_study,
    rho_star_search,
    xi_mode_factor,
)

TWO_PI = 2.0 * math.pi
BOX = (TWO_PI, TWO_PI, TWO_PI)
VOL = TWO_PI ** 3
K_REP = (0, 0, 1)
K_NEG = (0, 0, -1)

ONE_MODE = ModeSet.from_s_triples([K_REP], BOX)
EMPTY = ModeSet.from_s_triples([], BOX)
ZLINE_WAVES = np.array([(0, 0, m) for m in range(-3, 4)])


def sup_abs(matrix):
    dense = np.asarray(matrix.todense() if hasattr(matrix, "todense") else matrix)
    return float(np.max(np.abs(dense))) if dense.size else 0.0


def field_backend(cap=4, offset_modes=False):
    config = SimulationConfig(L=BOX)
    first = ONE_MODE if offset_modes else EMPTY
    ctx = ModelContext.custom(config, first, EMPTY, ONE_MODE)
    basis = OscillatorBasis(ONE_MODE, cap=cap, volume=config.volume)
    return StepBackend("analytic-quadratic", basis, ctx)


def normalized_random_state(dim, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(vec).normalized()


def oscillator_matrix_by_quadrature(basis, width=12.0, nodes=6001):
    """Single-variable Hamiltonian matrix elements by direct integration.

    Eigenfunction values and exact second derivatives come from Hermite
    series calculus; the coordinate-space operator is applied pointwise and
    integrated against each level with a plain Riemann sum, whose error is
    negligible for these Gaussian-decaying integrands.
    """
    cap = basis.cap
    lam = basis.lambdas()[0]
    hbar, omega, volume = basis.hbar, basis.omegas()[0], basis.volume
    a = np.linspace(-width / lam, width / lam, nodes)
    u = lam * a
    gauss = np.exp(-0.5 * u * u)
    psi = np.zeros((cap + 1, nodes))
    h_psi = np.zeros((cap + 1, nodes))
    for n in range(cap + 1):
        series = np.zeros(cap + 1)
        series[n] = 1.0 / math.sqrt(2.0 ** n * math.factorial(n)
                                    * math.sqrt(math.pi))
        second = (H.hermval(u, H.hermder(series, 2))
                  - 2.0 * H.hermval(u, H.hermmulx(H.hermder(series)))
                  + H.hermval(u, H.hermmulx(H.hermmulx(series)))
                  - H.hermval(u, series)) * gauss
        psi[n] = H.hermval(u, series) * gauss
        kinetic = -(volume * hbar ** 2 / 2.0) * lam ** 2 * second
        potential = (omega ** 2 / (2.0 * volume)) * a * a * psi[n]
        h_psi[n] = kinetic + potential - 0.5 * hbar * omega * psi[n]
    return lam * (psi @ h_psi.T) * (a[1] - a[0])


def test_criterion_01_ladder_and_number_algebra():
    """Ladder commutators, vacuum annihilation, two-sided number-operator
    factorization with an independent quadrature cross-check, exact photon
    eigenvalues, and orthonormality of the multi-photon family."""
    config = SimulationConfig(L=BOX, M=(1, 1, 1))
    basis = OscillatorBasis.from_config(config, ONE_MODE, 4)
    cap = basis.cap
    assert cap >= 4 and basis.dim == (cap + 1) ** 4

    table = basis.occupation_table()
    interior = np.flatnonzero(table.max(axis=1) < cap)
    variables = [(l, K_REP, i) for l in (1, 2) for i in (1, 2)]
    pairs = [ladder_ops(v, basis) for v in variables]

    dev_comm = 0.0
    eye = np.eye(len(interior))
    for vi, (down_i, up_i) in enumerate(pairs):
        for vj, (down_j, up_j) in enumerate(pairs):
            comm = (down_i.matrix @ up_j.matrix
                    - up_j.matrix @ down_i.matrix).toarray()
            block = comm[np.ix_(interior, interior)]
            target = eye if vi == vj else 0.0
            dev_comm = max(dev_comm, float(np.max(np.abs(block - target))))
    assert dev_comm <= 1e-12

    vac = vacuum(basis)
    dev_vac = max(
        complex_modes(l, k, basis)[0].apply(vac).norm
        for l in (1, 2) for k in (K_REP, K_NEG)
    )
    assert dev_vac == 0.0

    weights = basis.hbar * basis.omegas()
    h = h_rad(basis)
    normal = sum(w * (up.matrix @ down.matrix)
                 for w, (down, up) in zip(weights, pairs))
    dev_normal = sup_abs(h.matrix - normal)
    assert dev_normal <= 1e-12
    # the reversed ordering differs by one unit per variable on states whose
    # occupations stay below the cap
    reversed_sum = sum(w * (down.matrix @ up.matrix)
                       for w, (down, up) in zip(weights, pairs))
    shifted = np.asarray(reversed_sum.todense()).diagonal().real \
        - float(np.sum(weights))
    dev_reversed = float(np.max(np.abs(
        shifted[interior] - h.matrix.diagonal().real[interior])))
    assert dev_reversed <= 1e-12

    diag = h.matrix.diagonal().real
    off_diag = sup_abs(h.matrix - np.diag(diag))
    assert off_diag == 0.0
    expected = table @ weights
    assert np.max(np.abs(diag - expected)) == 0.0

    quad = oscillator_matrix_by_quadrature(basis)
    target = np.diag(np.arange(cap + 1) * basis.hbar * basis.omegas()[0])
    dev_quad = float(np.max(np.abs(quad - target)))
    assert dev_quad <= 1e-8

    dev_eig = 0.0
    for count in range(1, cap + 1):
        state = photon_state({(1, K_REP): count}, basis)
        out = h.apply(state)
        expected_out = count * basis.hbar * basis.omegas()[0] \
            * state.coefficients
        dev_eig = max(dev_eig, float(np.max(np.abs(
            out.coefficients - expected_out))))
    assert dev_eig <= 1e-12

    family = []
    for p1 in range(cap + 1):
        for q1 in range(cap + 1 - p1):
            for p2 in range(cap + 1):
                for q2 in range(cap + 1 - p2):
                    occs = {(1, K_REP): p1, (1, K_NEG): q1,
                            (2, K_REP): p2, (2, K_NEG): q2}
                    state = photon_state(
                        {key: n for key, n in occs.items() if n}, basis)
                    family.append(state.coefficients)
    frame = np.array(family)
    gram = frame.conj() @ frame.T
    dev_gram = float(np.max(np.abs(gram - np.eye(len(frame)))))
    assert dev_gram <= 1e-10

    print(f"criterion 1: PASS - commutator dev {dev_comm:.1e}, "
          f"factorization dev {max(dev_normal, dev_reversed):.1e}, "
          f"quadrature dev {dev_quad:.1e}, eigenvalue dev {dev_eig:.1e}, "
          f"gram dev {dev_gram:.1e} over {len(frame)} states")


def test_criterion_02_coulomb_limit():
    """Mollified lattice sums converge to the screened pair energy, and the
    joint cutoff refinement climbs monotonically toward the bare value."""
    pair = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    coarse = mollified_coulomb(pair, (1.0, 1.0), 20.0, eps=0.25)
    fine = mollified_coulomb(pair, (1.0, 1.0), 40.0, eps=0.25)
    estimate = richardson_limit(fine, coarse)
    target = math.erf(2.0)
    rel = abs(estimate - target) / target
    assert rel <= 0.01

    joint = [
        mollified_coulomb(pair, (1.0, 1.0), L, eps=eps)
        for eps, L in ((1.0, 20.0), (0.5, 30.0), (0.25, 40.0))
    ]
    assert joint[0] < joint[1] < joint[2] < 1.0

    print(f"criterion 2: PASS - extrapolated {estimate:.6f} vs erf(2) = "
          f"{target:.6f} (rel {rel:.2e}), joint sequence "
          f"{joint[0]:.4f} < {joint[1]:.4f} < {joint[2]:.4f} -> 1")


def test_criterion_03_riemann_sums():
    """Cube sums of an integrable summand approach the integral, while the
    flattened-box family keeps a certified positive excess."""
    target = 2.0 * math.pi ** 2
    errors = [
        abs(riemann_sum(inverse_quartic_summand(), L).value - target)
        for L in (15.0, 30.0, 60.0)
    ]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] / target <= 0.05

    summand = screened_inverse_square_summand()
    integral = 2.0 * math.pi ** 1.5
    excesses = []
    for ell in (4, 8, 16):
        box = (float(ell * ell), float(ell), float(ell))
        excess = riemann_sum(summand, box).value - integral
        excesses.append(excess)
        cellvol = TWO_PI ** 3 / (box[0] * box[1] * box[2])
        k1 = TWO_PI / box[0]
        site_bound = cellvol * math.exp(-k1 * k1) / (k1 * k1)
        if ell >= 8:
            assert excess >= site_bound
    assert 0.0 < excesses[0] < excesses[1] < excesses[2]

    print(f"criterion 3: PASS - cube errors {errors[0]:.3f} > {errors[1]:.3f} "
          f"> {errors[2]:.3f} (final rel {errors[2] / target:.3f}), "
          f"anisotropic excesses {excesses[0]:.2f} < {excesses[1]:.2f} < "
          f"{excesses[2]:.2f} above the single-site bound")


def test_criterion_04_constraint_identity():
    """The charge-density elimination identity holds to within 1e-10 of the
    natural per-configuration scale over a thousand random draws."""
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        x = rng.uniform(-10.0, 10.0, size=(n, 3))
        e = rng.uniform(-2.0, 2.0, size=n)
        k = rng.integers(-3, 4, size=3)
        while not k.any():
            k = rng.integers(-3, 4, size=3)
        lhs, rhs = constraint_identity_check(x, e, k)
        scale = 16.0 * math.pi ** 2 * float(e @ e) / float(k @ k) + abs(rhs)
        worst = max(worst, abs(lhs - rhs) / max(scale, 1e-12))
    assert worst <= 1e-10
    print(f"criterion 4: PASS - worst relative defect {worst:.2e} "
          f"over 1000 configurations")


def test_criterion_05_action_algebra():
    """Concatenation additivity, midpoint-refinement invariance, and the
    decoupled straight-line value 2.5."""
    config = SimulationConfig(L=BOX, M=(1, 1, 1), n_particles=2,
                              masses=(1.0, 2.0), charges=(1.0, -0.5),
                              sigma_psi=0.8, width_g=2.0)
    ctx = ModelContext.from_config(config)

    rng = np.random.default_rng(14)
    verts = rng.uniform(-1.0, 1.0, size=(3, 2, 3))
    fields = rng.standard_normal((3, ctx.n_field))
    path = BrokenPath(Subdivision((0.0, 0.4, 1.0)), verts, fields)
    hand = (
        segment_action(0.4, 0.0, verts[1], verts[0], fields[1], fields[0], ctx)
        + segment_action(1.0, 0.4, verts[2], verts[1], fields[2], fields[1], ctx)
    )
    total = broken_action(path, ctx)
    dev_add = abs(total - hand) / max(1.0, abs(total))
    assert dev_add <= 1e-10

    dev_mid = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ends = rng.uniform(-1.0, 1.0, size=(2, 2, 3))
        f_ends = rng.standard_normal((2, ctx.n_field))
        horizon = 0.9
        coarse = BrokenPath(Subdivision.uniform(horizon, 1), ends, f_ends)
        fine = BrokenPath(
            Subdivision.uniform(horizon, 2),
            np.stack([ends[0], 0.5 * (ends[0] + ends[1]), ends[1]]),
            np.stack([f_ends[0], 0.5 * (f_ends[0] + f_ends[1]), f_ends[1]]),
        )
        a, b = broken_action(coarse, ctx), broken_action(fine, ctx)
        dev_mid = max(dev_mid, abs(a - b) / max(1.0, abs(a)))
    assert dev_mid <= 1e-10

    single = SimulationConfig(L=BOX, n_particles=1, masses=(1.0,),
                              charges=(0.0,))
    sctx = ModelContext.custom(single, ONE_MODE, ONE_MODE, ONE_MODE)
    zero = np.zeros(4)
    value = segment_action(1.0, 0.0, np.array([[1.0, 0.0, 0.0]]),
                           np.array([[0.0, 0.0, 0.0]]), zero, zero, sctx)
    dev_hand = abs(value - 2.5)
    assert dev_hand <= 1e-10

    print(f"criterion 5: PASS - additivity dev {dev_add:.1e}, midpoint dev "
          f"{dev_mid:.1e}, straight-line value {value:.12f} (dev "
          f"{dev_hand:.1e})")


def test_criterion_06_propagator_convergence():
    """Mesh-halving studies: a single field variable against its spectrum, a
    full mode through the public API, and the coupled galerkin system against
    a dense reference."""
    # one variable, quarter period: errors halve and end below one percent
    cap = 6
    rng = np.random.default_rng(3)
    f = rng.normal(size=cap + 1) + 1j * rng.normal(size=cap + 1)
    f /= np.linalg.norm(f)
    horizon = math.pi / 2
    exact = np.exp(-1j * np.arange(cap + 1) * horizon) * f
    errors = []
    for segments in (4, 8, 16, 32, 64):
        step = quadratic_variable_step(horizon / segments, 1.0, cap,
                                       volume=VOL)
        out = f.copy()
        for _ in range(segments):
            out = step @ out
        errors.append(float(np.linalg.norm(out - exact)))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    order_var = math.log(errors[0] / errors[-1]) / (4.0 * math.log(2.0))
    assert order_var >= 1.0
    assert errors[-1] < 1e-2

    # full mode: all four variables contract coherently, so the composed
    # error floors near (omega T)^2 / (3 N); first order still holds and the
    # per-variable budget above is the one that reaches below one percent
    backend = field_backend(cap=4)
    state = normalized_random_state(backend.state_dim, seed=7)
    occupations = np.array([sum(backend.basis.occupations(i))
                            for i in range(backend.basis.dim)])
    reference = np.exp(-1j * occupations * horizon) * state.coefficients
    mode_study = convergence_study(state, backend, horizon,
                                   [4, 8, 16, 32, 64], reference)
    assert mode_study.monotone
    assert min(mode_study.orders) >= 0.9
    assert mode_study.final_error <= 1.3e-2

    # coupled system, one particle and one mode, galerkin backend
    gconf = SimulationConfig(L=BOX, n_particles=1, masses=(1.0,),
                             charges=(0.9,), sigma_psi=1e6)
    gctx = ModelContext.custom(gconf, EMPTY, ONE_MODE, ONE_MODE)
    gbasis = OscillatorBasis(ONE_MODE, cap=2, volume=gconf.volume)
    gback = StepBackend("galerkin", gbasis, gctx)
    hamiltonian = assemble_hamiltonian(gconf, gbasis, ctx=gctx,
                                       wave_indices=ZLINE_WAVES)
    start = np.zeros(gbasis.dim * 7, dtype=complex)
    start[3] = 1.0
    g_state = StateVector(start)
    g_ref = reference_evolve(hamiltonian, g_state, 0.5)
    g_study = convergence_study(g_state, gback, 0.5, [1, 2, 4, 8], g_ref)
    assert g_study.monotone
    assert min(g_study.orders) >= 0.9
    assert g_study.final_error < 5e-2

    print(f"criterion 6: PASS - one-variable final {errors[-1]:.2e} "
          f"(order {order_var:.2f}), one-mode final "
          f"{mode_study.final_error:.2e} (contraction floor), galerkin final "
          f"{g_study.final_error:.2e} over meshes 1..8")


def test_criterion_07_residual_scaling():
    """The generator residual of a single step shrinks with the step, with a
    log-log slope of at least one half."""
    backend = field_backend(cap=4)
    state = normalized_random_state(backend.state_dim, seed=5)
    rhos = [2.0 ** -k for k in range(3, 10)]
    study = residual_study(state, backend, rhos)
    residuals = [row[2] for row in study.rows]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert study.slope >= 0.5
    print(f"criterion 7: PASS - log-log slope {study.slope:.3f} over rho "
          f"2^-3 .. 2^-9, residuals {residuals[0]:.2e} -> {residuals[-1]:.2e}")


def test_criterion_08_stability():
    """Composed norms that never exceed their first step's (growth bound
    K <= 0), near-unitarity of the decoupled step, a sampled Jacobian
    certificate at the returned step bound, and monotonicity of that bound
    under enlargement of the decoupled mode set."""
    backend = field_backend(cap=4)
    state = normalized_random_state(backend.state_dim, seed=9)
    sub = Subdivision.uniform(math.pi / 2, 16)
    _, norms = compose(state, sub, backend, collect_norms=True)
    k_analytic = fit_growth_rate(sub.times[1:], norms)
    assert math.isfinite(k_analytic) and k_analytic <= 0.0

    gconf = SimulationConfig(L=BOX, n_particles=1, masses=(1.0,),
                             charges=(0.9,), sigma_psi=1e6)
    gctx = ModelContext.custom(gconf, EMPTY, ONE_MODE, ONE_MODE)
    gbasis = OscillatorBasis(ONE_MODE, cap=2, volume=gconf.volume)
    gback = StepBackend("galerkin", gbasis, gctx)
    start = np.zeros(gbasis.dim * 7, dtype=complex)
    start[3] = 1.0
    gsub = Subdivision.uniform(0.5, 8)
    _, gnorms = compose(StateVector(start), gsub, gback, collect_norms=True)
    k_galerkin = fit_growth_rate(gsub.times[1:], gnorms)
    assert math.isfinite(k_galerkin) and k_galerkin <= 0.0

    step = quadratic_variable_step(1e-4, 1.0, 6, volume=VOL)
    dev_unitary = float(np.max(np.abs(
        step.conj().T @ step - np.eye(step.shape[0]))))
    assert dev_unitary <= 1e-8

    cconf = SimulationConfig(L=BOX, n_particles=1, masses=(1.0,),
                             charges=(20.0,), sigma_psi=1e6)
    ctx_small = ModelContext.custom(cconf, EMPTY, ONE_MODE, ONE_MODE)
    r_small = rho_star_search(cconf, sample_budget=1, ctx=ctx_small,
                              bisect_iters=3)
    assert not r_small.ceiling_hit
    assert r_small.min_det_at_value >= 0.5

    two_modes = ModeSet.from_s_triples([(0, 0, 1), (0, 0, 2)], BOX)
    ctx_large = ModelContext.custom(cconf, EMPTY, ONE_MODE, two_modes)
    r_large = rho_star_search(cconf, sample_budget=1, ctx=ctx_large,
                              bisect_iters=3)
    assert float(r_large) >= float(r_small)
    assert r_large.min_det_at_value >= 0.5

    print(f"criterion 8: PASS - growth bounds {k_analytic:.4f} / "
          f"{k_galerkin:.4f}, unitary dev {dev_unitary:.2e}, step bound "
          f"{float(r_small):.4f} (min det {r_small.min_det_at_value:.3f}) "
          f"-> {float(r_large):.4f} under mode enlargement")


def test_criterion_09_offset_equivalence():
    """The damped scalar-offset step recovers the plain step after
    extrapolation, and the per-mode factor matches the squared Fresnel
    integral at vanishing damping."""
    backend = field_backend(cap=4, offset_modes=True)
    state = normalized_random_state(backend.state_dim, seed=8)
    plain = fundamental_step(state, 0.5, 0.0, backend)
    extrap = g_epsilon_extrapolated(state, 0.5, 0.0, backend)
    dev_step = float(np.max(np.abs(
        extrap.coefficients - plain.coefficients)))
    assert dev_step <= 1e-6

    config = SimulationConfig(L=BOX)
    dev_xi = 0.0
    for rho in (0.25, 0.5, 1.0):
        a = rho / (4.0 * math.pi * config.hbar * config.volume)
        square = fresnel_gaussian(a) ** 2
        normalized = a / (1j * math.pi) * square
        eps = 1e-5 * math.sqrt(a)
        factor = xi_mode_factor(1.0, rho, eps, config)
        dev_xi = max(dev_xi,
                     abs(square - 1j * math.pi / a) / abs(math.pi / a),
                     abs(factor - normalized))
    assert dev_xi <= 1e-8

    print(f"criterion 9: PASS - extrapolated step dev {dev_step:.2e}, "
          f"Fresnel-square factor dev {dev_xi:.2e}")


def test_criterion_10_determinism(tmp_path):
    """A recorded manifest replays to byte-identical CSV outputs."""
    checked = []
    for name, args in (
        ("fock_spectrum.csv",
         ["fock-spectrum", "--mode", "0,0,1", "--cap", "2", "--seed", "3"]),
        ("g_equivalence.csv",
         ["g-equivalence", "--mode", "0,0,1", "--cap", "3", "--t", "0.5",
          "--seed", "11"]),
    ):
        first = tmp_path / f"run-{name}"
        replay = tmp_path / f"replay-{name}"
        assert cli_main(args + ["--out", str(first)]) == 0
        assert cli_main(["rerun", "--manifest", str(first / "manifest.json"),
                         "--out", str(replay)]) == 0
        original = (first / name).read_bytes()
        assert (replay / name).read_bytes() == original
        checked.append(f"{name} ({len(original)} bytes)")
    print(f"criterion 10: PASS - byte-identical replays for "
          f"{' and '.join(checked)}")
