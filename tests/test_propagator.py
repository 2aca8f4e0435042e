"""Step operators, composed propagation, phi maps, and the offset-damped step."""

import dataclasses
import functools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from boxqed import ModeSet, SimulationConfig
from boxqed.action import Subdivision
from boxqed.errors import BudgetError, ConfigError
from boxqed.field import FieldVector, ModelContext
from boxqed.fock import (
    OscillatorBasis,
    StateVector,
    assemble_hamiltonian,
    reference_evolve,
    vacuum,
)
from boxqed.propagator import (
    AnalyticQuadraticStep,
    GalerkinStep,
    StepBackend,
    compose,
    convergence_study,
    fit_growth_rate,
    fresnel_gaussian,
    fundamental_step,
    g_epsilon_extrapolated,
    g_epsilon_levels,
    g_epsilon_step,
    phi_maps,
    quadratic_variable_step,
    residual_study,
    rho_star_search,
    sample_endpoints,
    xi_mode_factor,
)
from boxqed import propagator
from boxqed.lattice import build_mode_set
from boxqed.propagator import (
    _coeff_tables,
    _earlier_integrand,
    _galerkin_matrix,
    _gaussian_tables,
    _interp_coeffs,
    _longitudinal_rule,
    _pair_gaussian,
)
from oracles import (
    damped_fresnel_quadrature,
    einsum_galerkin_matrix,
    extrapolate_inverse_square,
    longitudinal_data,
    looped_coeff_tables,
    looped_earlier_integrand,
    looped_phi_jacobian_det,
    looped_phi_values,
    lu_gaussian_tables,
    step_matrix_by_quadrature,
    trapezoid_longitudinal_rule,
)

TWO_PI = 2.0 * math.pi
BOX = (TWO_PI, TWO_PI, TWO_PI)
VOL = TWO_PI**3

ONE_MODE = ModeSet.from_s_triples([(0, 0, 1)], BOX)
EMPTY = ModeSet.from_s_triples([], BOX)
ZLINE_WAVES = np.array([(0, 0, m) for m in range(-3, 4)])


def field_only_backend(cap=4, offset_modes=False):
    """Analytic backend on a single mode, optionally with Lambda'_1 = {k}."""
    config = SimulationConfig(L=BOX)
    first = ONE_MODE if offset_modes else EMPTY
    ctx = ModelContext.custom(config, first, EMPTY, ONE_MODE)
    basis = OscillatorBasis(ONE_MODE, cap=cap, volume=config.volume)
    return StepBackend("analytic-quadratic", basis, ctx)


def galerkin_parts(charge, cap=2, s3=1):
    config = SimulationConfig(L=BOX, n_particles=1, masses=(1.0,),
                              charges=(charge,), sigma_psi=1e6)
    mode = ModeSet.from_s_triples([(0, 0, s3)], BOX)
    ctx = ModelContext.custom(config, EMPTY, mode, mode)
    basis = OscillatorBasis(mode, cap=cap, volume=config.volume)
    return config, ctx, basis


def random_state(dim, seed=7, basis=None):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(vec).normalized()


class TestFresnelTools:
    def test_closed_form_values(self):
        one = fresnel_gaussian(1.0)
        assert abs(one - 1.2533141373155003 * (1.0 + 1.0j)) <= 1e-12
        # modulus halves when the coefficient quadruples
        assert abs(abs(fresnel_gaussian(4.0)) - 0.5 * abs(one)) <= 1e-12

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ConfigError):
            fresnel_gaussian(0.0)
        with pytest.raises(ConfigError):
            fresnel_gaussian(-2.0)

    def test_damped_quadrature_extrapolates_to_closed_form(self):
        """The 1/value^2 route is affine in the damping, so two levels land
        on the undamped Fresnel value to quadrature accuracy."""
        eps_levels = [0.05, 0.1]
        for a in (0.5, 1.0, 2.0):
            vals = [damped_fresnel_quadrature(a, eps) for eps in eps_levels]
            limit = extrapolate_inverse_square(vals, eps_levels)
            assert abs(limit - fresnel_gaussian(a)) <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_modulus_and_phase(self, seed):
        rng = np.random.default_rng(seed)
        a = 10.0 ** rng.uniform(-1.5, 1.5)
        value = fresnel_gaussian(a)
        assert abs(abs(value) - math.sqrt(math.pi / a)) <= 1e-12 * abs(value)
        assert abs(np.angle(value) - math.pi / 4) <= 1e-12


class TestVariableStep:
    def test_matches_direct_kernel_quadrature(self):
        """Riemann quadrature of the raw kernel between Hermite functions
        reproduces the generating-function matrix elements."""
        direct = step_matrix_by_quadrature(0.4, 1.0, 2, 1.0, VOL, 130.0, 6501)
        closed = quadratic_variable_step(0.4, 1.0, 2, volume=VOL)
        assert np.abs(direct - closed).max() <= 1e-10

    def test_identity_limit(self):
        step = quadratic_variable_step(1e-9, 1.0, 4, volume=VOL)
        assert np.abs(step - np.eye(5)).max() <= 1e-7

    def test_unitary_at_small_step(self):
        step = quadratic_variable_step(1e-4, 1.0, 4, volume=VOL)
        dev = np.linalg.norm(step.conj().T @ step - np.eye(5), 2)
        assert dev <= 1e-8

    def test_contraction_identity(self):
        # The step kernel contracts every level by the same factor; the
        # identity is checked on the interior block where the occupation
        # cutoff cannot leak in.
        rho = 0.01
        step = quadratic_variable_step(rho, 1.0, 6, volume=VOL)
        gram = (step.conj().T @ step) * (1.0 + rho**2 / 6.0)
        assert np.abs(gram[:5, :5] - np.eye(5)).max() <= 1e-12

    def test_parity_selection(self):
        step = quadratic_variable_step(0.3, 1.0, 5, volume=VOL)
        m, n = np.indices(step.shape)
        assert np.all(step[(m + n) % 2 == 1] == 0.0)

    def test_step_size_guards(self):
        with pytest.raises(ConfigError):
            quadratic_variable_step(2.0, 1.0, 2, volume=VOL)
        with pytest.raises(ConfigError):
            quadratic_variable_step(0.0, 1.0, 2, volume=VOL)
        with pytest.raises(ConfigError):
            quadratic_variable_step(-0.1, 1.0, 2, volume=VOL)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_contraction_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        rho = rng.uniform(0.01, 0.2)
        omega = rng.uniform(0.5, 1.5)
        step = quadratic_variable_step(rho, omega, 5, volume=VOL)
        gram = (step.conj().T @ step) * (1.0 + (rho * omega) ** 2 / 6.0)
        assert np.abs(gram[:4, :4] - np.eye(4)).max() <= 1e-10


class TestStepBackend:
    def test_rejects_unknown_kind_and_bad_eps(self):
        backend = field_only_backend()
        with pytest.raises(ConfigError):
            StepBackend("trotter", backend.basis, backend.ctx)
        # the undamped Filon rule has no regularizer and no cutoff to set
        for knob in ({"eps": 4e-3}, {"kappa_max": 12.0}):
            with pytest.raises(TypeError):
                StepBackend("analytic-quadratic", backend.basis, backend.ctx,
                            **knob)

    def test_rejects_coupled_analytic(self):
        config, ctx, basis = galerkin_parts(1.0)
        with pytest.raises(ConfigError, match="vanishing coupling"):
            StepBackend("analytic-quadratic", basis, ctx,
                        wave_indices=ZLINE_WAVES)

    def test_basis_must_live_on_third_cutoff(self):
        config = SimulationConfig(L=BOX)
        two = ModeSet.from_s_triples([(0, 0, 1), (0, 0, 2)], BOX)
        ctx = ModelContext.custom(config, EMPTY, EMPTY, two)
        basis = OscillatorBasis(ONE_MODE, cap=2, volume=config.volume)
        with pytest.raises(ConfigError, match="Lambda'_3"):
            StepBackend("analytic-quadratic", basis, ctx)

    def test_basis_constants_must_match(self):
        config = SimulationConfig(L=BOX)
        ctx = ModelContext.custom(config, EMPTY, EMPTY, ONE_MODE)
        basis = OscillatorBasis(ONE_MODE, cap=2)   # volume defaults to 1
        with pytest.raises(ConfigError, match="constants"):
            StepBackend("analytic-quadratic", basis, ctx)

    def test_step_operator_is_cached(self):
        backend = field_only_backend(cap=2)
        first = backend.step_operator(0.25)
        assert backend.step_operator(0.25) is first
        assert backend.step_operator(0.125) is not first

    def test_step_cache_is_bounded_oldest_first(self):
        backend = field_only_backend(cap=2)
        cap = propagator._STEP_CACHE_CAP
        rhos = [0.5 / (j + 1) for j in range(cap + 5)]
        first = backend.step_operator(rhos[0])
        for rho in rhos[1:]:
            backend.step_operator(rho)
        assert len(backend._cache) == cap
        assert backend.step_operator(rhos[-1]) is backend.step_operator(rhos[-1])
        back = backend.step_operator(rhos[0])
        assert back is not first
        assert len(backend._cache) == cap
        for old, new in zip(first.mats, back.mats):
            assert old.tobytes() == new.tobytes()

    def test_state_dimensions(self):
        assert field_only_backend(cap=3).state_dim == 4**4
        _, ctx, basis = galerkin_parts(0.5)
        assert StepBackend("galerkin", basis, ctx).state_dim == basis.dim * 7

    def test_kinds_build_their_own_types(self):
        assert isinstance(field_only_backend(), AnalyticQuadraticStep)
        _, ctx, basis = galerkin_parts(0.5)
        assert isinstance(StepBackend("galerkin", basis, ctx), GalerkinStep)

    def test_knob_of_the_other_kind_is_rejected(self):
        backend = field_only_backend()
        for knob in ({"wave_cutoff": 3}, {"transverse": (5, 5)},
                     {"x3_nodes": 8}, {"budget": 1}):
            with pytest.raises(TypeError):
                StepBackend("analytic-quadratic", backend.basis, backend.ctx,
                            **knob)
        _, ctx, basis = galerkin_parts(0.5)
        for knob in ({"wave_indices": ZLINE_WAVES}, {"x3_nodes": 8}):
            with pytest.raises(TypeError):
                StepBackend("galerkin", basis, ctx, **knob)

    def test_fields_are_frozen(self):
        analytic = field_only_backend()
        _, ctx, basis = galerkin_parts(0.5)
        galerkin = StepBackend("galerkin", basis, ctx)
        for step, name, value in ((analytic, "wave_indices", ZLINE_WAVES),
                                  (analytic, "basis", basis),
                                  (galerkin, "transverse", (1, 0)),
                                  (galerkin, "wave_cutoff", 2)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(step, name, value)


class TestFundamentalStep:
    def test_equal_times_is_exact_identity(self):
        backend = field_only_backend(cap=2)
        f = random_state(backend.state_dim, seed=1, basis=backend.basis)
        out = fundamental_step(f, 0.3, 0.3, backend)
        assert np.array_equal(out.coefficients, f.coefficients)
        assert out.coefficients is not f.coefficients

    def test_time_order_and_dimension_guards(self):
        backend = field_only_backend(cap=2)
        f = random_state(backend.state_dim, basis=backend.basis)
        with pytest.raises(ConfigError):
            fundamental_step(f, 0.0, 0.5, backend)
        short = StateVector(f.coefficients[:-1])
        with pytest.raises(ConfigError, match="dimension"):
            fundamental_step(short, 0.5, 0.0, backend)

    def test_norm_preserved_at_small_step(self):
        backend = field_only_backend()
        f = random_state(backend.state_dim)
        out = fundamental_step(f, 1e-4, 0.0, backend)
        assert abs(out.norm - 1.0) <= 1e-8

    def test_vacuum_deviation_scales_quadratically(self):
        backend = field_only_backend()
        vac = vacuum(backend.basis)
        devs = []
        for rho in (0.02, 0.01, 0.005):
            out = fundamental_step(vac, rho, 0.0, backend)
            devs.append(np.linalg.norm(out.coefficients - vac.coefficients))
            assert devs[-1] <= rho
        for bigger, smaller in zip(devs, devs[1:]):
            assert 3.5 <= bigger / smaller <= 4.5


class TestComposeAndGrowth:
    def test_single_segment_equals_one_step(self):
        backend = field_only_backend(cap=3)
        f = random_state(backend.state_dim, seed=2, basis=backend.basis)
        once = fundamental_step(f, 0.5, 0.0, backend)
        composed = compose(f, Subdivision.uniform(0.5, 1), backend)
        assert np.array_equal(composed.coefficients, once.coefficients)

    def test_collected_norms_fit_to_zero_growth(self):
        backend = field_only_backend(cap=3)
        f = random_state(backend.state_dim, seed=2, basis=backend.basis)
        _, norms = compose(f, Subdivision.uniform(1.0, 10), backend,
                           collect_norms=True)
        assert len(norms) == 10
        rate = fit_growth_rate(np.linspace(0.1, 1.0, 10), norms)
        assert rate <= 0.0

    def test_growth_fit_recovers_synthetic_rate(self):
        times = np.linspace(0.2, 2.0, 8)
        norms = np.exp(0.3 * times)
        assert abs(fit_growth_rate(times, norms) - 0.3) <= 1e-10

    def test_growth_bound_holds_on_a_growing_sequence(self):
        """A growing, wobbling sequence: K > 0, no norm exceeds the bound,
        and one norm meets it, so no smaller K would do."""
        times = np.linspace(0.2, 2.0, 10)
        norms = np.exp(0.3 * times) * (1.0 + 0.05 * np.sin(5.0 * times))
        rate = fit_growth_rate(times, norms)
        assert rate > 0.0
        ratio = norms / (norms[0] * np.exp(rate * (times - times[0])))
        assert ratio.max() <= 1.0 + 1e-12
        assert ratio[1:].max() >= 1.0 - 1e-12

    def test_growth_fit_input_guards(self):
        with pytest.raises(ConfigError):
            fit_growth_rate([0.1, 0.2], [1.0])
        with pytest.raises(ConfigError):
            fit_growth_rate([0.1], [1.0])
        with pytest.raises(ConfigError):
            fit_growth_rate([0.1, 0.2], [1.0, -1.0])
        with pytest.raises(ConfigError):
            fit_growth_rate([0.2, 0.2], [1.0, 1.0])


class TestConvergenceStudy:
    def test_single_variable_mesh_halving(self):
        """Composed steps of one field variable against the oscillator
        spectrum: errors halve with the mesh and end below one percent."""
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
            errors.append(np.linalg.norm(out - exact))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        orders = [math.log(a / b) / math.log(2.0)
                  for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 0.9
        assert errors[-1] < 1e-2

    def test_one_mode_mesh_halving(self):
        backend = field_only_backend()
        f = random_state(backend.state_dim, seed=7, basis=backend.basis)
        occupations = np.array([sum(backend.basis.occupations(i))
                                for i in range(backend.basis.dim)])
        horizon = math.pi / 2
        reference = np.exp(-1j * occupations * horizon) * f.coefficients
        study = convergence_study(f, backend, horizon, [4, 8, 16, 32, 64],
                                  reference)
        assert study.monotone
        assert min(study.orders) >= 0.9
        # all four variables contract coherently, so the composed error sits
        # near (omega T)^2 / (3 N) regardless of the state
        assert study.final_error <= 1.3e-2
        assert study.rows[0][1] <= 2.5e-1

    def test_rejects_zero_state(self):
        backend = field_only_backend(cap=2)
        zero = StateVector(np.zeros(backend.state_dim, dtype=complex))
        with pytest.raises(ConfigError):
            convergence_study(zero, backend, 0.5, [1, 2], zero)

    def test_growth_rate_fits_the_finest_mesh(self):
        backend = field_only_backend(cap=2)
        f = random_state(backend.state_dim, seed=4, basis=backend.basis)
        reference = fundamental_step(f, 0.2, 0.0, backend)
        study = convergence_study(f, backend, 0.2, [4, 2], reference)
        sub = Subdivision.uniform(0.2, 4)
        _, norms = compose(f, sub, backend, collect_norms=True)
        assert study.growth_rate == fit_growth_rate(sub.times[1:], norms)
        # one step has no slope to fit
        single = convergence_study(f, backend, 0.2, [1], reference)
        assert single.growth_rate is None


class TestResidualStudy:
    RHOS = [2.0**-k for k in range(3, 10)]

    def test_slope_and_monotone_decay(self):
        backend = field_only_backend()
        f = random_state(backend.state_dim, seed=5, basis=backend.basis)
        study = residual_study(f, backend, self.RHOS)
        assert study.slope >= 0.5
        residuals = [row[2] for row in study.rows]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_vacuum_control_is_differencing_insensitive(self):
        """On the vacuum the residual is dominated by the step operator, not
        by the centered difference: shrinking delta barely moves it."""
        backend = field_only_backend()
        vac = vacuum(backend.basis)
        coarse = residual_study(vac, backend, self.RHOS)
        fine = residual_study(vac, backend, self.RHOS, dt_factor=0.03125)
        assert coarse.slope >= 0.5
        for (_, _, a), (_, _, b) in zip(coarse.rows, fine.rows):
            assert abs(a - b) <= 1e-2 * a

    def test_requires_hamiltonian_with_particles(self):
        _, ctx, basis = galerkin_parts(0.5)
        backend = StepBackend("galerkin", basis, ctx)
        f = random_state(backend.state_dim, seed=6)
        with pytest.raises(ConfigError, match="Hamiltonian"):
            residual_study(f, backend, [0.1])


def one_mode_ctx(n_particles=0, charges=(), masses=(), coupled=False):
    config = SimulationConfig(L=BOX, n_particles=n_particles, masses=masses,
                              charges=charges)
    second = ONE_MODE if coupled else EMPTY
    return ModelContext.custom(config, EMPTY, second, ONE_MODE)


class TestPhiMaps:
    def test_zero_coupling_particle_map_is_affine(self):
        ctx = one_mode_ctx(2, charges=(0.0, 0.0), masses=(1.0, 2.0))
        rng = np.random.default_rng(9)
        x, y, z = (rng.uniform(-2.0, 2.0, size=(2, 3)) for _ in range(3))
        X, Y, Z = (rng.normal(size=4) for _ in range(3))
        point = phi_maps(0.4, 0.1, x, y, z, X, Y, Z, ctx, jacobian=False)
        assert point.identity_residual <= 1e-7
        assert np.abs(point.phi - (z - 0.5 * (x + y))).max() <= 1e-8

    def test_field_map_formula_and_determinant(self):
        ctx = one_mode_ctx()
        rng = np.random.default_rng(11)
        X, Y, Z = (rng.normal(size=4) for _ in range(3))
        rho = 0.3
        point = phi_maps(rho, 0.0, None, None, None, X, Y, Z, ctx)
        predicted = Z - 0.5 * (X + Y) \
            + rho**2 * (Z / 6.0 + X / 3.0 + (Y - X) / 6.0)
        assert np.abs(point.phi1 - predicted).max() <= 1e-9
        expected_det = (1.0 + rho**2 / 6.0) ** 4
        assert abs(point.jacobian_det - expected_det) <= 1e-6 * expected_det

    def test_particle_only_determinant_is_one(self):
        config = SimulationConfig(L=BOX, n_particles=2, masses=(1.0, 2.0),
                                  charges=(0.0, 0.0))
        ctx = ModelContext.custom(config, EMPTY, EMPTY, EMPTY)
        rng = np.random.default_rng(13)
        x, y, z = (rng.uniform(-2.0, 2.0, size=(2, 3)) for _ in range(3))
        empty_f = np.zeros(0)
        point = phi_maps(0.7, 0.0, x, y, z, empty_f, empty_f, empty_f, ctx)
        assert abs(point.jacobian_det - 1.0) <= 1e-7
        assert np.abs(point.phi - (z - 0.5 * (x + y))).max() <= 1e-12

    def test_coupled_difference_identity(self):
        ctx = one_mode_ctx(2, charges=(1.0, -0.5), masses=(1.0, 2.0),
                           coupled=True)
        rng = np.random.default_rng(9)
        x, y, z = (rng.uniform(-2.0, 2.0, size=(2, 3)) for _ in range(3))
        X, Y, Z = (rng.normal(size=4) for _ in range(3))
        point = phi_maps(0.4, 0.1, x, y, z, X, Y, Z, ctx, jacobian=False)
        assert point.identity_residual <= 1e-7
        assert point.jacobian_det is None

    def test_accepts_field_vectors(self):
        ctx = one_mode_ctx()
        rng = np.random.default_rng(17)
        X, Y, Z = (rng.normal(size=4) for _ in range(3))
        plain = phi_maps(0.3, 0.0, None, None, None, X, Y, Z, ctx,
                         jacobian=False, verify=False)
        wrapped = phi_maps(0.3, 0.0, None, None, None,
                           FieldVector(X, ONE_MODE), FieldVector(Y, ONE_MODE),
                           FieldVector(Z, ONE_MODE), ctx,
                           jacobian=False, verify=False)
        assert np.array_equal(plain.phi1, wrapped.phi1)

    def test_rejects_field_vectors_on_other_modes(self):
        ctx = one_mode_ctx()
        other = ModeSet.from_s_triples([(0, 1, 0)], BOX)
        X, Y, Z = (FieldVector(np.full(4, v), other) for v in (0.1, 0.2, 0.3))
        with pytest.raises(ConfigError, match="mode set"):
            phi_maps(0.3, 0.0, None, None, None, X, Y, Z, ctx,
                     jacobian=False, verify=False)

    def test_input_guards(self):
        ctx = one_mode_ctx()
        X = np.zeros(4)
        with pytest.raises(ConfigError):
            phi_maps(0.1, 0.1, None, None, None, X, X, X, ctx)
        with pytest.raises(ConfigError):
            phi_maps(0.0, 0.1, None, None, None, X, X, X, ctx)
        coupled = one_mode_ctx(1, charges=(1.0,), masses=(1.0,), coupled=True)
        with pytest.raises(ConfigError, match="particle endpoints"):
            phi_maps(0.3, 0.0, None, None, None, X, X, X, coupled)


def _charged_ctx(modes3, charge=20.0):
    config = SimulationConfig(L=BOX, n_particles=1, masses=(1.0,),
                              charges=(charge,), sigma_psi=1e6)
    return ModelContext.custom(config, EMPTY, ONE_MODE, modes3)


def _two_particle_ctx():
    config = SimulationConfig(L=BOX, M=(1, 1, 1), n_particles=2,
                              masses=(1.0, 2.0), charges=(1.0, -0.5),
                              sigma_psi=0.8, width_g=2.0)
    return ModelContext.from_config(config)


class TestEarlierIntegrand:
    """The batched theta integrand against the per-node loop it replaced."""

    @pytest.mark.parametrize("make_ctx", [
        lambda: _charged_ctx(ONE_MODE),
        _two_particle_ctx,
        lambda: _charged_ctx(ModeSet.from_s_triples([(0, 0, 1), (0, 0, 2)], BOX)),
    ], ids=["criterion8-one-mode", "two-particle-v1", "two-mode-large"])
    def test_matches_looped_oracle(self, make_ctx):
        ctx = make_ctx()
        n = ctx.config.n_particles
        rng = np.random.default_rng(17)
        if ctx.modes1.N:
            assert n >= 2, "the V1 branch needs two particles"
        rho = 0.6
        # one endpoint pair unbatched, then batches of one and of three
        for batch in ((), (1,), (3,)):
            z, y = (rng.uniform(-0.5 * TWO_PI, 0.5 * TWO_PI, size=batch + (n, 3))
                    for _ in range(2))
            Z, Y = (rng.standard_normal(batch + (ctx.n_field,)) for _ in range(2))
            integrand = _earlier_integrand(rho, z, y, Z, Y, ctx)
            for thetas in (0.5 + 0.5 * np.polynomial.legendre.leggauss(16)[0],
                           rng.uniform(0.0, 1.0, size=5), np.array([0.0, 1.0])):
                got = integrand(thetas)
                assert got.shape == (len(thetas),) + batch + (3 * n + ctx.n_field,)
                for index in np.ndindex(batch):
                    want = looped_earlier_integrand(thetas, rho, z[index], y[index],
                                                    Z[index], Y[index], ctx)
                    point = got[(slice(None),) + index]
                    assert np.max(np.abs(point - want)) \
                        <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("make_ctx", [
        lambda: _charged_ctx(ONE_MODE),
        _two_particle_ctx,
        lambda: _charged_ctx(TWO_MODES),
    ], ids=["criterion8-one-mode", "two-particle-v1", "two-mode-large"])
    def test_jacobian_rows_match_central_differences(self, make_ctx):
        """The Jacobian rows against central differences of the values in
        the later endpoint (z, Z), over a batch of two endpoint pairs; the
        values ride along unchanged."""
        ctx = make_ctx()
        n = ctx.config.n_particles
        dim = 3 * n + ctx.n_field
        rng = np.random.default_rng(19)
        rho = 0.6
        z, y = (rng.uniform(-0.5 * TWO_PI, 0.5 * TWO_PI, size=(2, n, 3))
                for _ in range(2))
        Z, Y = (rng.standard_normal((2, ctx.n_field)) for _ in range(2))
        thetas = np.array([0.0, 0.3, 0.85, 1.0])
        got = _earlier_integrand(rho, z, y, Z, Y, ctx, jacobian=True)(thetas)
        assert np.array_equal(got[..., :dim],
                              _earlier_integrand(rho, z, y, Z, Y, ctx)(thetas))
        h = 1e-5
        for b in range(2):
            base = np.concatenate([z[b].reshape(-1), Z[b]])
            fd = np.empty((len(thetas), dim, dim))
            for col in range(dim):
                sides = []
                for sign in (1.0, -1.0):
                    moved = base.copy()
                    moved[col] += sign * h
                    sides.append(_earlier_integrand(
                        rho, moved[:3 * n].reshape(n, 3), y[b], moved[3 * n:],
                        Y[b], ctx)(thetas))
                fd[:, :, col] = (sides[0] - sides[1]) / (2.0 * h)
            for k in range(len(thetas)):
                jac = propagator._jacobian_blocks(got[k, b, dim:], n, dim)
                assert np.max(np.abs(jac - fd[k])) <= 1e-7 * np.max(np.abs(fd))


def _criterion5_v1_ctx():
    """Criterion 5's two-particle config: V1 on its full first mode set,
    coupling and field on one mode so the looped oracle stays quick."""
    config = SimulationConfig(L=BOX, M=(1, 1, 1), n_particles=2,
                              masses=(1.0, 2.0), charges=(1.0, -0.5),
                              sigma_psi=0.8, width_g=2.0)
    return ModelContext.custom(config, build_mode_set(config, 1), ONE_MODE,
                               ONE_MODE)


TWO_MODES = ModeSet.from_s_triples([(0, 0, 1), (0, 0, 2)], BOX)


class TestJointPhiQuadrature:
    """Phi values and Jacobians from the joint sigma-by-theta quadrature over
    all difference sides, against the per-node, per-column loop."""

    CASES = [
        (lambda: _charged_ctx(ONE_MODE), 1.0),
        (lambda: _charged_ctx(ONE_MODE), 0.5),
        (lambda: _charged_ctx(ONE_MODE), 0.25),
        (lambda: _charged_ctx(TWO_MODES), 0.5),
        (_criterion5_v1_ctx, 0.5),
        (lambda: one_mode_ctx(), 0.5),
    ]
    IDS = ["criterion8-one-mode-1", "criterion8-one-mode-1/2",
           "criterion8-one-mode-1/4", "criterion8-two-mode",
           "two-particle-v1", "zero-particle"]

    @staticmethod
    def _endpoints(ctx, seed=3):
        return sample_endpoints(np.random.default_rng(seed), ctx, 3)

    @pytest.mark.parametrize("make_ctx,rho", CASES, ids=IDS)
    def test_matches_looped_oracle(self, make_ctx, rho):
        ctx = make_ctx()
        if ctx.config.n_particles == 2:
            assert ctx.modes1.N > 0, "the V1 branch must be exercised"
        (x, y, z), (X, Y, Z) = self._endpoints(ctx)
        point = phi_maps(rho, 0.0, x, y, z, X, Y, Z, ctx, rel_tol=1e-6)
        phi, phi1 = looped_phi_values(rho, 0.0, x, y, z, X, Y, Z, ctx, 1e-6)
        got = np.concatenate([point.phi.reshape(-1), point.phi1])
        want = np.concatenate([phi.reshape(-1), phi1])
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
        assert point.identity_residual <= 1e-6
        det = looped_phi_jacobian_det(rho, 0.0, x, y, z, X, Y, Z, ctx, 1e-6, 1e-5)
        assert abs(point.jacobian_det - det) <= 1e-8 * abs(det)

    def test_byte_cap_counts_the_jacobian_block(self, monkeypatch):
        """One charge on one mode: dim 7, so a node carries 7 values and 44
        entries with the Jacobian block (3 particle rows of 7, the 4 x 3
        particle columns of the field rows and the 4 field diagonal entries)."""
        ctx = _charged_ctx(ONE_MODE)
        (x, y, z), (X, Y, Z) = self._endpoints(ctx)
        whole = phi_maps(0.5, 0.0, x, y, z, X, Y, Z, ctx, rel_tol=1e-6)
        panel = 16 * 16 * 8 * 3
        monkeypatch.setattr(propagator, "_PHI_PANEL_BYTES", panel * 44)
        capped = phi_maps(0.5, 0.0, x, y, z, X, Y, Z, ctx, rel_tol=1e-6)
        assert capped.jacobian_det == whole.jacobian_det
        monkeypatch.setattr(propagator, "_PHI_PANEL_BYTES", panel * 44 - 1)
        with pytest.raises(BudgetError, match="cap"):
            phi_maps(0.5, 0.0, x, y, z, X, Y, Z, ctx, rel_tol=1e-6)
        # the values alone still fit
        monkeypatch.setattr(propagator, "_PHI_PANEL_BYTES", panel * 7)
        values = phi_maps(0.5, 0.0, x, y, z, X, Y, Z, ctx, rel_tol=1e-6,
                          jacobian=False)
        assert values.jacobian_det is None and values.det_bound is None
        assert np.allclose(values.phi1, whole.phi1, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("make_ctx,rho", CASES, ids=IDS)
    def test_det_bound_covers_a_tighter_quadrature(self, make_ctx, rho):
        """The first-order bound from rel_tol = 1e-6 covers the distance to
        the determinant at rel_tol = 1e-12."""
        ctx = make_ctx()
        (x, y, z), (X, Y, Z) = self._endpoints(ctx)
        loose = phi_maps(rho, 0.0, x, y, z, X, Y, Z, ctx, rel_tol=1e-6, verify=False)
        tight = phi_maps(rho, 0.0, x, y, z, X, Y, Z, ctx, rel_tol=1e-12, verify=False)
        assert 0.0 < loose.det_bound < abs(loose.jacobian_det)
        assert abs(loose.jacobian_det - tight.jacobian_det) <= loose.det_bound
        assert tight.det_bound < 1e-4 * loose.det_bound

    def test_side_over_the_cap_raises_before_quadrature(self, monkeypatch):
        ctx = _charged_ctx(ONE_MODE)
        (x, y, z), (X, Y, Z) = self._endpoints(ctx)
        monkeypatch.setattr(propagator, "_PHI_PANEL_BYTES", 1024)

        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran above the byte cap")

        monkeypatch.setattr(propagator, "adaptive_gauss_legendre", no_quadrature)
        with pytest.raises(BudgetError, match="cap"):
            phi_maps(0.5, 0.0, x, y, z, X, Y, Z, ctx, verify=False)


class TestRhoStarSearch:
    def test_zero_coupling_returns_ceiling(self):
        config = SimulationConfig(L=BOX)
        ctx = ModelContext.custom(config, EMPTY, EMPTY, ONE_MODE)
        result = rho_star_search(config, sample_budget=2, ctx=ctx)
        assert result.ceiling_hit
        assert float(result) == result.ceiling == 1.0
        # decoupled variables contribute (1 + rho^2 omega^2 / 6) each
        assert abs(result.min_det_at_value - (7.0 / 6.0) ** 4) <= 1e-3
        assert all(ok for _, _, ok in result.probes)

    def test_strong_coupling_returns_interior_value(self):
        config = SimulationConfig(L=BOX, n_particles=1, masses=(1.0,),
                                  charges=(20.0,), sigma_psi=1e6)
        ctx = ModelContext.custom(config, EMPTY, ONE_MODE, ONE_MODE)
        result = rho_star_search(config, sample_budget=1, ctx=ctx,
                                 bisect_iters=3)
        assert not result.ceiling_hit
        assert 0.05 <= float(result) <= 0.95
        assert result.min_det_at_value >= 0.5
        assert result.probes[0][2] is False    # the ceiling probe failed
        assert len(result.probes) == 4

    def test_many_mode_context_bisects_quickly(self):
        """Criterion 5's cutoffs (13 modes on each) on a box of edge 2,
        charged so that the ceiling fails: dim 58, four probes."""
        config = SimulationConfig(L=(2.0, 2.0, 2.0), M=(1, 1, 1), n_particles=2,
                                  masses=(1.0, 2.0), charges=(20.0, -10.0),
                                  sigma_psi=0.8, width_g=2.0)
        ctx = ModelContext.from_config(config)
        assert min(ctx.modes1.N, ctx.modes2.N, ctx.modes3.N) >= 13
        started = time.perf_counter()
        result = rho_star_search(config, sample_budget=1, ctx=ctx, bisect_iters=3)
        assert time.perf_counter() - started < 10.0
        assert len(result.probes) == 4
        assert not result.ceiling_hit
        assert result.probes[0][2] is False
        assert 0.0 < float(result) < 1.0
        assert result.min_det_at_value >= 0.5

    def test_probe_within_its_bound_of_half_is_undecided(self, monkeypatch):
        """A probe is undecided when [min(det - bound), min(det + bound)]
        over its samples holds 1/2; it is still passed or failed by its
        computed min det."""
        config = SimulationConfig(L=BOX, n_particles=1, masses=(1.0,),
                                  charges=(20.0,), sigma_psi=1e6)
        ctx = ModelContext.custom(config, EMPTY, ONE_MODE, ONE_MODE)
        scripted = iter([(0.49, 0.02), (0.7, 0.1),     # ceiling: undecided
                         (0.45, 0.01), (0.7, 0.1),     # 1/2: failed
                         (0.55, 0.01), (0.6, 0.01)])   # 1/4: passed
        monkeypatch.setattr(propagator, "_phi_jacobian_det",
                            lambda jac, jac_error: next(scripted))
        result = rho_star_search(config, sample_budget=2, ctx=ctx,
                                 bisect_iters=2)
        assert result.probes == ((1.0, 0.49, False), (0.5, 0.45, False),
                                 (0.25, 0.55, True))
        assert result.undecided == (1.0,)

    def test_input_guards(self):
        config = SimulationConfig(L=BOX)
        with pytest.raises(ConfigError):
            rho_star_search(config, sample_budget=0)
        with pytest.raises(ConfigError):
            rho_star_search(config, ceiling=-1.0)


class TestOffsetDampedStep:
    def test_xi_factor_closed_form(self):
        config = SimulationConfig(L=BOX)
        factor = xi_mode_factor(1.0, 0.5, 0.2, config)
        a = 0.5 / (4.0 * math.pi * config.volume)
        assert abs(factor - a / (a + 0.04j)) <= 1e-15
        with pytest.raises(ConfigError):
            xi_mode_factor(1.0, 0.0, 0.2, config)

    def test_offset_normalization_cancels_fresnel_square(self):
        """The undamped offset integral of one mode is a two-dimensional
        Fresnel integral; its square matches i pi / a analytically."""
        config = SimulationConfig(L=BOX)
        for rho in (0.25, 0.5, 1.0):
            a = rho * 1.0 / (4.0 * math.pi * config.hbar * config.volume)
            square = fresnel_gaussian(a) ** 2
            target = 1j * math.pi / a
            assert abs(square - target) <= 1e-8 * abs(target)

    def test_empty_first_cutoff_is_plain_step(self):
        backend = field_only_backend(cap=3, offset_modes=False)
        f = random_state(backend.state_dim, seed=8, basis=backend.basis)
        plain = fundamental_step(f, 0.5, 0.0, backend)
        damped = g_epsilon_step(f, 0.5, 0.0, 0.3, backend)
        extrap = g_epsilon_extrapolated(f, 0.5, 0.0, backend)
        assert np.array_equal(damped.coefficients, plain.coefficients)
        assert np.array_equal(extrap.coefficients, plain.coefficients)

    def test_extrapolated_step_matches_plain_step(self):
        backend = field_only_backend(cap=4, offset_modes=True)
        f = random_state(backend.state_dim, seed=8, basis=backend.basis)
        plain = fundamental_step(f, 0.5, 0.0, backend)
        extrap = g_epsilon_extrapolated(f, 0.5, 0.0, backend)
        assert np.abs(extrap.coefficients - plain.coefficients).max() <= 1e-6

    def test_default_levels_halve_eps_squared(self):
        backend = field_only_backend(cap=2, offset_modes=True)
        eps0, mid, last = g_epsilon_levels(0.5, backend)
        # |k| = 1: the mode coefficient is a = rho / (4 pi hbar |V|)
        assert eps0 == pytest.approx(math.sqrt(0.01 * 0.5 / (4.0 * math.pi * VOL)),
                                     rel=1e-15)
        assert (mid, last) == (eps0 / math.sqrt(2.0), eps0 / 2.0)
        assert g_epsilon_levels(0.5, backend, eps0=0.3)[0] == 0.3
        f = random_state(backend.state_dim, seed=8, basis=backend.basis)
        explicit = g_epsilon_extrapolated(f, 0.5, 0.0, backend, eps0=eps0)
        assert np.array_equal(explicit.coefficients,
                              g_epsilon_extrapolated(f, 0.5, 0.0, backend).coefficients)

    def test_damping_shrinks_the_norm(self):
        backend = field_only_backend(cap=3, offset_modes=True)
        f = random_state(backend.state_dim, seed=8, basis=backend.basis)
        plain = fundamental_step(f, 0.5, 0.0, backend)
        damped = g_epsilon_step(f, 0.5, 0.0, 0.5, backend)
        assert damped.norm < plain.norm

    def test_first_cutoff_size_guard(self):
        config = SimulationConfig(L=BOX)
        three = ModeSet.from_s_triples([(0, 0, 1), (0, 0, 2), (0, 0, 3)], BOX)
        ctx = ModelContext.custom(config, three, EMPTY, three)
        basis = OscillatorBasis(three, cap=1, volume=config.volume)
        backend = StepBackend("analytic-quadratic", basis, ctx)
        f = random_state(backend.state_dim, seed=8, basis=basis)
        with pytest.raises(ConfigError, match="two first-cutoff"):
            g_epsilon_step(f, 0.5, 0.0, 0.3, backend)

    def test_time_and_eps_guards(self):
        backend = field_only_backend(cap=2, offset_modes=True)
        f = random_state(backend.state_dim, seed=8, basis=backend.basis)
        with pytest.raises(ConfigError):
            g_epsilon_step(f, 0.0, 0.0, 0.3, backend)
        with pytest.raises(ConfigError):
            g_epsilon_step(f, 0.5, 0.0, 0.0, backend)
        with pytest.raises(ConfigError):
            g_epsilon_extrapolated(f, 0.5, 0.5, backend)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_scalar_extrapolation_error(self, seed):
        # the three-level combination cancels the damping to well below the
        # advertised tolerance for the default starting epsilon
        rng = np.random.default_rng(seed)
        a = 10.0 ** rng.uniform(-2.0, 1.0)
        eps0 = math.sqrt(0.01 * a)
        levels = [eps0, eps0 / math.sqrt(2.0), eps0 / 2.0]
        factors = [a / (a + 1j * eps**2) for eps in levels]
        combined = (factors[0] - 6.0 * factors[1] + 8.0 * factors[2]) / 3.0
        assert abs(combined - 1.0) <= 1e-6


class TestGalerkinBackend:
    def test_matches_analytic_backend_when_uncharged(self):
        config, ctx, basis = galerkin_parts(0.0)
        galerkin = StepBackend("galerkin", basis, ctx)
        analytic = StepBackend("analytic-quadratic", basis, ctx,
                               wave_indices=ZLINE_WAVES)
        f = random_state(basis.dim * 7, seed=3)
        out_g = fundamental_step(f, 0.5, 0.0, galerkin)
        out_a = fundamental_step(f, 0.5, 0.0, analytic)
        assert np.abs(out_g.coefficients - out_a.coefficients).max() <= 1e-8

    def test_coupled_step_converges_to_reference(self):
        config, ctx, basis = galerkin_parts(0.9)
        backend = StepBackend("galerkin", basis, ctx)
        hamiltonian = assemble_hamiltonian(config, basis, ctx=ctx,
                                           wave_indices=ZLINE_WAVES)
        start = np.zeros(basis.dim * 7, dtype=complex)
        start[3] = 1.0      # field vacuum, particle momentum zero
        f = StateVector(start)
        reference = reference_evolve(hamiltonian, f, 0.5)
        study = convergence_study(f, backend, 0.5, [1, 2, 4], reference)
        assert study.monotone
        assert min(study.orders) >= 0.9
        assert study.final_error <= 2.5e-2

    def test_static_gates(self):
        config, ctx, basis = galerkin_parts(0.9)
        # default psi mollifier bends over the occupied field range
        bent = SimulationConfig(L=BOX, n_particles=1, masses=(1.0,),
                                charges=(0.9,))
        bent_ctx = ModelContext.custom(bent, EMPTY, ONE_MODE, ONE_MODE)
        bent_basis = OscillatorBasis(ONE_MODE, cap=2, volume=bent.volume)
        with pytest.raises(ConfigError, match="linearly"):
            StepBackend("galerkin", bent_basis, bent_ctx)
        # narrow spatial cutoff
        narrow = SimulationConfig(L=BOX, n_particles=1, masses=(1.0,),
                                  charges=(0.9,), sigma_psi=1e6, width_g=2.0)
        narrow_ctx = ModelContext.custom(narrow, EMPTY, ONE_MODE, ONE_MODE)
        narrow_basis = OscillatorBasis(ONE_MODE, cap=2, volume=narrow.volume)
        with pytest.raises(ConfigError, match="flat"):
            StepBackend("galerkin", narrow_basis, narrow_ctx)
        # two particles
        pair = SimulationConfig(L=BOX, n_particles=2, masses=(1.0, 1.0),
                                charges=(0.9, -0.9), sigma_psi=1e6)
        pair_ctx = ModelContext.custom(pair, EMPTY, ONE_MODE, ONE_MODE)
        with pytest.raises(ConfigError, match="one particle"):
            StepBackend("galerkin", basis, pair_ctx)
        # coupling mode off the third axis
        x_mode = ModeSet.from_s_triples([(1, 0, 0)], BOX)
        x_ctx = ModelContext.custom(config, EMPTY, x_mode, x_mode)
        x_basis = OscillatorBasis(x_mode, cap=2, volume=config.volume)
        with pytest.raises(ConfigError, match="third axis"):
            StepBackend("galerkin", x_basis, x_ctx)
        # no coupling mode at all
        none_ctx = ModelContext.custom(config, EMPTY, EMPTY, ONE_MODE)
        with pytest.raises(ConfigError, match="single coupling mode"):
            StepBackend("galerkin", basis, none_ctx)
        # occupation and wave cutoff ranges
        deep = OscillatorBasis(ONE_MODE, cap=7, volume=config.volume)
        with pytest.raises(ConfigError, match="caps above 6"):
            StepBackend("galerkin", deep, ctx)
        with pytest.raises(ConfigError, match="wave cutoff"):
            StepBackend("galerkin", basis, ctx, wave_cutoff=0)
        with pytest.raises(ConfigError, match="wave cutoff"):
            StepBackend("galerkin", basis, ctx, wave_cutoff=7)
        with pytest.raises(ConfigError, match="pair"):
            StepBackend("galerkin", basis, ctx, transverse=(0,))

    @pytest.mark.parametrize("charge, cap, transverse, rho", [
        (0.9, 2, (0, 0), 0.5),
        (0.9, 2, (0, 0), 1.0 / 16.0),
        # transverse momentum makes the two polarization blocks differ
        (0.9, 1, (1, 0), 0.5),
        (0.0, 2, (0, 0), 0.5),
    ])
    def test_matches_einsum_assembly(self, charge, cap, transverse, rho):
        _, ctx, basis = galerkin_parts(charge, cap=cap)
        backend = StepBackend("galerkin", basis, ctx, transverse=transverse)
        matrix = _galerkin_matrix(backend, rho)
        rule = _longitudinal_rule(*longitudinal_data(backend, rho))
        expected = einsum_galerkin_matrix(backend, rho, rule,
                                          backend.x3_nodes)
        assert matrix.shape == expected.shape
        scale = np.abs(expected).max()
        assert np.abs(matrix - expected).max() <= 1e-12 * scale

    @pytest.mark.parametrize("s3, cap, wave_cutoff, transverse", [
        (1, 2, 3, (0, 0)),
        (2, 2, 3, (0, 0)),
        (1, 3, 4, (0, 0)),
        (3, 1, 3, (0, 0)),
        # eta != 0: the two polarization blocks differ
        (1, 2, 3, (1, 0)),
    ])
    def test_x3_rule_is_exact_at_the_integrand_bandwidth(
            self, s3, cap, wave_cutoff, transverse):
        """The x3 integrand is a trigonometric polynomial of degree
        8 s3 cap + 2 wave_cutoff: one node more is exact, one fewer is not."""
        _, ctx, basis = galerkin_parts(20.0, cap=cap, s3=s3)
        backend = StepBackend("galerkin", basis, ctx, wave_cutoff=wave_cutoff,
                              transverse=transverse)
        rho = 0.125 if cap == 3 else 0.25
        n = 8 * s3 * cap + 2 * wave_cutoff + 1
        rule = _longitudinal_rule(*longitudinal_data(backend, rho))
        exact = einsum_galerkin_matrix(backend, rho, rule, 2 * n + 1)
        scale = np.abs(exact).max()
        matrix = _galerkin_matrix(backend, rho)
        assert np.abs(matrix - exact).max() <= 1e-13 * scale
        short = einsum_galerkin_matrix(backend, rho, rule, n - 1)
        assert np.abs(short - exact).max() > 1e-6 * scale

    def test_step_cache_follows_knobs(self):
        """Two steps on one basis and context, apart only in their knobs,
        each cache the operator of their own knobs."""
        _, ctx, basis = galerkin_parts(0.9)
        straight = StepBackend("galerkin", basis, ctx)
        tilted = StepBackend("galerkin", basis, ctx, transverse=(1, 0))
        first = straight.step_operator(0.5).matrix
        second = tilted.step_operator(0.5).matrix
        scale = np.abs(second).max()
        assert np.abs(first - second).max() > 1e-6 * scale
        assert np.array_equal(straight.step_operator(0.5).matrix,
                              _galerkin_matrix(straight, 0.5))
        assert np.array_equal(tilted.step_operator(0.5).matrix,
                              _galerkin_matrix(tilted, 0.5))

    def test_assembly_memory_peak(self):
        """Criterion 6's matrix at rho = 0.125 peaks at most 12 MiB above
        the call: the accumulator and its transpose take 9.8 MiB, so the
        group buffer and tables must be the only other large arrays, and
        they must be gone before the transpose."""
        _, ctx, basis = galerkin_parts(0.9)
        backend = StepBackend("galerkin", basis, ctx)
        _galerkin_matrix(backend, 0.125)      # fill the module caches first
        tracemalloc.start()
        try:
            _galerkin_matrix(backend, 0.125)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    def test_zeta_chunks_assemble_like_one_build(self, monkeypatch):
        """Tables built 40 zeta nodes at a time, so that later chunks add
        into the group buffer, give the one-build matrix to rounding."""
        _, ctx, basis = galerkin_parts(0.9)
        backend = StepBackend("galerkin", basis, ctx, transverse=(1, 0))
        whole = _galerkin_matrix(backend, 0.25)
        monkeypatch.setattr(propagator, "_ZETA_CHUNK", 40)
        chunked = _galerkin_matrix(backend, 0.25)
        assert np.abs(chunked - whole).max() <= 1e-14 * np.abs(whole).max()

    def test_budget_guards(self, monkeypatch):
        config, ctx, basis = galerkin_parts(0.9)
        # the chirp rule's scalar nodes grow like 1 / rho
        with pytest.raises(BudgetError, match="chirp"):
            StepBackend("galerkin", basis, ctx).step_operator(1e-4)
        wide = OscillatorBasis(ONE_MODE, cap=6, volume=config.volume)
        heavy = StepBackend("galerkin", wide, ctx)
        with pytest.raises(BudgetError, match="accumulator"):
            heavy.step_operator(0.5)
        monkeypatch.setattr(propagator, "_GALERKIN_BUDGET", 100)
        with pytest.raises(BudgetError):
            StepBackend("galerkin", basis, ctx).step_operator(0.5)


# The four step sizes of criterion 6's meshes 1, 2, 4 and 8.
MESH_RHOS = (0.5, 0.25, 0.125, 0.0625)


def _panel_edges(zeta, panel):
    """Edges of one 16-node Filon panel, from its Gauss-Legendre nodes."""
    nodes = zeta[16 * panel:16 * panel + 16]
    gl = np.polynomial.legendre.leggauss(16)[0]
    center = nodes.mean()
    half = (nodes[-1] - nodes[0]) / (gl[-1] - gl[0])
    return center - half, center + half


def _chirp_moments(lo, hi, beta):
    """Integrals of exp(i (zeta^2 - beta zeta)) and zeta times it over
    [lo, hi], through erf at complex argument."""
    rot = np.exp(0.25j * math.pi)
    shift = beta / 2.0

    def fresnel(u):
        return 0.5 * math.sqrt(math.pi) * rot * erf(u / rot)

    def chirp(z):
        return np.exp(1j * (z * z - beta * z))

    zeroth = np.exp(-0.25j * beta**2) * (fresnel(hi - shift) - fresnel(lo - shift))
    # zeta = (zeta - beta / 2) + beta / 2, and the first part is exact
    first = (chirp(hi) - chirp(lo)) / 2j + shift * zeroth
    return zeroth, first


class TestFilonRule:
    @pytest.mark.parametrize("rho", MESH_RHOS)
    def test_weight_rows_sum_to_the_line_integral(self, rho):
        _, ctx, basis = galerkin_parts(0.9)
        backend = StepBackend("galerkin", basis, ctx)
        scale, beta = longitudinal_data(backend, rho)
        zeta, weights, line = _longitudinal_rule(scale, beta)
        closed = math.sqrt(math.pi) * np.exp(0.25j * math.pi) \
            * np.exp(-0.25j * beta**2)
        assert len(zeta) == 96
        assert np.abs(line - closed).max() <= 1e-14
        assert np.abs(weights.sum(axis=1) - closed).max() <= 1e-9

    @pytest.mark.parametrize("rho", MESH_RHOS)
    def test_interior_panel_moments_match_erf(self, rho):
        _, ctx, basis = galerkin_parts(0.9)
        backend = StepBackend("galerkin", basis, ctx)
        scale, beta = longitudinal_data(backend, rho)
        zeta, weights, _ = _longitudinal_rule(scale, beta)
        panels = len(zeta) // 16
        for panel in range(1, panels - 1):
            lo, hi = _panel_edges(zeta, panel)
            cols = slice(16 * panel, 16 * panel + 16)
            zeroth, first = _chirp_moments(lo, hi, beta)
            got0 = weights[:, cols].sum(axis=1)
            got1 = weights[:, cols] @ zeta[cols]
            assert np.abs(got0 - zeroth).max() <= 1e-12 * np.abs(zeroth).max()
            assert np.abs(got1 - first).max() <= 1e-12 * np.abs(first).max()

    @pytest.mark.parametrize("transverse", [(0, 0), (1, 0)])
    def test_self_convergence_under_wider_reach_and_finer_panels(
            self, transverse, monkeypatch):
        _, ctx, basis = galerkin_parts(0.9)
        backend = StepBackend("galerkin", basis, ctx, transverse=transverse)
        base = [_galerkin_matrix(backend, rho) for rho in MESH_RHOS]
        monkeypatch.setattr(propagator, "_FILON_REACH",
                            2.0 * propagator._FILON_REACH)
        monkeypatch.setattr(propagator, "_FILON_PANEL",
                            0.5 * propagator._FILON_PANEL)
        for rho, coarse in zip(MESH_RHOS, base):
            fine = _galerkin_matrix(backend, rho)
            assert np.abs(fine - coarse).max() <= 1e-9 * np.abs(fine).max()

    def test_closer_to_the_wide_trapezoid_route_than_the_narrow_one(
            self, monkeypatch):
        """At each mesh step the Filon matrix is nearer the damped trapezoid
        route at kappa_max = 24 than that route at kappa_max = 12 is."""
        _, ctx, basis = galerkin_parts(0.9)
        backend = StepBackend("galerkin", basis, ctx)
        filon = [_galerkin_matrix(backend, rho) for rho in MESH_RHOS]
        routes = {}
        for kappa_max in (12.0, 24.0):
            monkeypatch.setattr(
                propagator, "_longitudinal_rule",
                functools.partial(trapezoid_longitudinal_rule,
                                  kappa_max=kappa_max))
            routes[kappa_max] = [_galerkin_matrix(backend, rho)
                                 for rho in MESH_RHOS]
        for new, narrow, wide in zip(filon, routes[12.0], routes[24.0]):
            assert np.abs(new - wide).max() < np.abs(narrow - wide).max()

    def test_trapezoid_route_assembles_like_the_einsum_oracle(
            self, monkeypatch):
        _, ctx, basis = galerkin_parts(0.9)
        backend = StepBackend("galerkin", basis, ctx)
        rule = trapezoid_longitudinal_rule(*longitudinal_data(backend, 0.5))
        expected = einsum_galerkin_matrix(backend, 0.5, rule, backend.x3_nodes)
        monkeypatch.setattr(propagator, "_longitudinal_rule",
                            trapezoid_longitudinal_rule)
        matrix = _galerkin_matrix(backend, 0.5)
        assert np.abs(matrix - expected).max() <= 1e-12 * np.abs(expected).max()


class TestCoeffTables:
    @pytest.mark.parametrize("cap", [0, 1, 2, 4])
    @pytest.mark.parametrize("with_mu", [False, True])
    def test_matches_looped_oracle(self, cap, with_mu):
        """At both ranks the step kernel uses: 2 (analytic), 4 (galerkin)."""
        for n in (2, 4):
            rng = np.random.default_rng(cap + 10 * with_mu + (100 if n == 2 else 0))
            batch = 5
            lam = rng.normal(size=(batch, n, n)) \
                + 1j * rng.normal(size=(batch, n, n))
            lam = 0.5 * (lam + np.transpose(lam, (0, 2, 1)))
            mu = rng.normal(size=(batch, n)) + 1j * rng.normal(size=(batch, n)) \
                if with_mu else None
            got = _coeff_tables(lam, mu, cap)
            expected = looped_coeff_tables(lam, mu, cap)
            assert got.shape == expected.shape == (batch,) + (cap + 1,) * n
            assert np.abs(got - expected).max() \
                <= 1e-14 * np.abs(expected).max()


class TestGaussianKernel:
    @pytest.mark.parametrize("charge", [0.0, 0.9])
    @pytest.mark.parametrize("rho", [0.5, 0.0625])
    def test_closed_form_matches_assembled_inverse(self, rho, charge):
        """Sherman-Morrison tables against per-node np.linalg.inv/det with
        the anchored square root, on the galerkin nodes of both blocks."""
        config, ctx, basis = galerkin_parts(charge, cap=3)
        backend = StepBackend("galerkin", basis, ctx, transverse=(1, 0))
        wv = ctx.modes2.lam_prime[0]
        omega = config.c_light * wv.norm
        scale, beta = longitudinal_data(backend, rho)
        zeta, _, _ = _longitudinal_rule(scale, beta)
        c1, c2 = _interp_coeffs(scale * zeta)
        gamma = charge * math.sqrt(8.0 * math.pi) / VOL
        # unit mass and hbar, as in galerkin_parts
        coupling = 1j * rho * gamma * gamma
        p_perp = np.array([TWO_PI / BOX[0], 0.0, 0.0])
        pair = _pair_gaussian(rho, omega, 1.0, VOL)
        for j in range(0, 32, 8):
            rotation = np.exp(1j * TWO_PI * wv.s[2] * j / 32)
            d = np.stack([(rotation * c1).real, (rotation * c1).imag,
                          (rotation * c2).real, (rotation * c2).imag], axis=1)
            for evec in ctx.frame.e(wv):
                eta = 1j * rho * gamma * float(p_perp @ evec)
                got = _gaussian_tables(pair, 4, basis.cap, d, coupling, eta)
                expected = lu_gaussian_tables(rho, omega, d, coupling, eta,
                                              basis.cap, vol=VOL)
                assert got.shape == expected.shape == (len(d),) + (4,) * 4
                assert np.abs(got - expected).max() \
                    <= 1e-12 * np.abs(expected).max()
