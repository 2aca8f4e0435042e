"""Segment and broken-line actions, the constraint identity, scalar offsets."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from boxqed import ModeSet, SimulationConfig
from boxqed.action import (
    BrokenPath,
    Subdivision,
    broken_action,
    constraint_identity_check,
    scalar_offset_term,
    segment_action,
)
from boxqed.errors import BudgetError, ConfigError, InvariantViolation
from boxqed.field import FieldVector, ModelContext, potential_V2
from boxqed.coulomb import potential_V1
from boxqed.quadrature import adaptive_gauss_legendre

TWO_PI = 2.0 * math.pi


def single_mode_ctx(n_particles=1, masses=(1.0,), charges=(0.0,), **kwargs):
    config = SimulationConfig(
        L=(TWO_PI, TWO_PI, TWO_PI), n_particles=n_particles,
        masses=masses, charges=charges, **kwargs
    )
    modes = ModeSet.from_s_triples([(0, 0, 1)], config.L)
    return ModelContext.custom(config, modes, modes, modes)


def coupled_ctx():
    config = SimulationConfig(
        L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1), n_particles=2,
        masses=(1.0, 2.0), charges=(1.0, -0.5), sigma_psi=0.8, width_g=2.0,
    )
    return ModelContext.from_config(config)


def empty_mode_ctx():
    config = SimulationConfig(
        L=(TWO_PI, TWO_PI, TWO_PI), n_particles=2,
        masses=(1.0, 2.0), charges=(1.0, -1.0),
    )
    empty = ModeSet.from_s_triples([], config.L)
    return ModelContext.custom(config, empty, empty, empty)


class TestSubdivision:
    def test_uniform(self):
        sub = Subdivision.uniform(2.0, 4)
        assert sub.times == (0.0, 0.5, 1.0, 1.5, 2.0)
        assert sub.mesh == 0.5
        assert sub.n_segments == 4

    def test_rejects_bad_grids(self):
        with pytest.raises(ConfigError):
            Subdivision((0.5, 1.0))
        with pytest.raises(ConfigError):
            Subdivision((0.0, 1.0, 1.0))
        with pytest.raises(ConfigError):
            Subdivision((0.0,))


class TestBrokenPath:
    def path(self, nv=3, n=2, nf=4, seed=0):
        rng = np.random.default_rng(seed)
        sub = Subdivision.uniform(1.0, nv - 1)
        return BrokenPath(sub, rng.standard_normal((nv, n, 3)),
                          rng.standard_normal((nv, nf)))

    def test_vertex_count_mismatch(self):
        sub = Subdivision.uniform(1.0, 2)
        with pytest.raises(ConfigError):
            BrokenPath(sub, np.zeros((2, 1, 3)), np.zeros((3, 4)))

    def test_nodes_exact(self):
        path = self.path()
        for idx, tau in enumerate(path.subdivision.times):
            x, X = path.evaluate(tau)
            assert np.array_equal(x, path.particle_vertices[idx])
            assert np.array_equal(X, path.field_vertices[idx])

    def test_interior_interpolation(self):
        path = self.path()
        x, X = path.evaluate(0.25)
        assert np.allclose(x, 0.5 * (path.particle_vertices[0] + path.particle_vertices[1]))
        assert np.allclose(X, 0.5 * (path.field_vertices[0] + path.field_vertices[1]))

    def test_outside_range(self):
        with pytest.raises(ConfigError):
            self.path().evaluate(1.5)

    def test_offset_shape_checked(self):
        sub = Subdivision.uniform(1.0, 2)
        with pytest.raises(ConfigError):
            BrokenPath(sub, np.zeros((3, 1, 3)), np.zeros((3, 4)),
                       scalar_offsets=np.zeros((3, 1, 2)))


class TestAdaptiveQuadrature:
    def test_polynomial(self):
        assert adaptive_gauss_legendre(lambda t: t ** 7) == pytest.approx(0.125, abs=1e-14)

    def test_exponential(self):
        assert adaptive_gauss_legendre(np.exp) == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_sharp_peak(self):
        w = 1e-2
        target = (math.atan(0.7 / w) + math.atan(0.3 / w)) / w
        got = adaptive_gauss_legendre(lambda t: 1.0 / (w * w + (t - 0.3) ** 2))
        assert got == pytest.approx(target, rel=1e-9)

    def test_vector_valued(self):
        got = adaptive_gauss_legendre(lambda t: np.stack([t, t ** 2], axis=-1))
        assert np.allclose(got, [0.5, 1.0 / 3.0], atol=1e-13)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integrand_raises(self, bad):
        calls = []

        def integrand(t):
            calls.append(len(t))
            return np.where(t > 0.9, bad, t)

        with pytest.raises(InvariantViolation, match="not finite"):
            adaptive_gauss_legendre(integrand, max_depth=4)
        assert calls == [16]

    def test_jump_test_makes_no_call(self):
        calls = []

        def integrand(t):
            calls.append(len(t))
            return np.exp(t)

        adaptive_gauss_legendre(integrand)
        assert calls == [16, 16, 16]

    def test_jump_at_max_depth_raises(self):
        # the kink sits where [0, 0.5] and [0.5, 1] meet, unseen by either
        with pytest.raises(BudgetError, match="meeting at 0.5 .* maximum depth 1"):
            adaptive_gauss_legendre(lambda t: np.abs(t - 0.501), max_depth=1)

    def test_unconverged_panel_at_max_depth_raises(self):
        # a kink off the dyadic grid cannot meet a tolerance below rounding
        # within four halvings; the driver must say so, not return a value
        with pytest.raises(BudgetError, match="maximum depth 4"):
            adaptive_gauss_legendre(lambda t: np.abs(t - 1.0 / 3.0),
                                    rel_tol=1e-17, abs_floor=0.0, max_depth=4)

    @settings(max_examples=30, deadline=None)
    @given(start=st.floats(-5.0, 5.0), width=st.floats(0.1, 10.0),
           where=st.floats(0.0, 0.99), column=st.integers(0, 2))
    def test_nan_anywhere_raises(self, start, width, where, column):
        # NaN from a random point on, in one column of a vector integrand;
        # the first panel's last node lies past it
        cut = start + where * width

        def integrand(t):
            out = np.stack([np.ones_like(t), t, t * t], axis=-1)
            out[t >= cut, column] = math.nan
            return out

        with pytest.raises(InvariantViolation, match="not finite"):
            adaptive_gauss_legendre(integrand, start, start + width)

    # Kinks next to a panel end, where no node of the panel or of its halves
    # lies: with the shift test alone, |t - 0.501| came out 4e-6 too small.
    # Inside a panel the shift can also vanish by coincidence: at 0.4577...
    # with slope 1/4 the shift passed the 1e-12 floor while the panel was
    # 4.4e-11 off, and at 0.0902... with slope 1/8 the total came out 1.7e-10
    # too small.
    @settings(max_examples=30, deadline=None)
    @given(kink=st.floats(0.01, 0.99), slope=st.floats(0.1, 10.0))
    @example(kink=0.45776549041256437, slope=0.25)
    @example(kink=0.0902438484935265, slope=0.125)
    @example(kink=0.501, slope=1.0)
    @example(kink=0.5 - 1e-5, slope=1.0)
    @example(kink=0.2501, slope=1.0)
    @example(kink=0.7502, slope=1.0)
    @example(kink=0.285149015001663, slope=1.0)
    @example(kink=0.7148353773702055, slope=1.0)
    def test_kink_at_a_random_point_converges(self, kink, slope):
        got = adaptive_gauss_legendre(lambda t: slope * np.abs(t - kink))
        exact = 0.5 * slope * (kink**2 + (1.0 - kink) ** 2)
        assert abs(got - exact) <= 1e-10 * exact

    # At cusp 0.9599594468261277 the halves of [0.5, 1] matched the whole to
    # 2e-7 relative while the value was 4e-4 off; the jump where the halves
    # meet exposes it.
    @settings(max_examples=30, deadline=None)
    @given(cusp=st.floats(0.0, 1.0), depth=st.integers(1, 6))
    @example(cusp=0.9599594468261277, depth=1)
    def test_unreachable_tolerance_raises(self, cusp, depth):
        # sqrt|t - c| has an unbounded derivative at c, wherever c falls, so
        # the panel holding it never meets a tolerance below rounding
        f = lambda t: np.sqrt(np.abs(t - cusp))
        with pytest.raises(BudgetError, match=f"maximum depth {depth}"):
            adaptive_gauss_legendre(f, rel_tol=1e-20, abs_floor=0.0,
                                    max_depth=depth)
        # the same integrand against its closed form at a reachable tolerance
        exact = (2.0 / 3.0) * (cusp**1.5 + (1.0 - cusp) ** 1.5)
        assert abs(adaptive_gauss_legendre(f, rel_tol=1e-6, max_depth=40)
                   - exact) <= 1e-5 * exact


class TestSegmentAction:
    def test_decoupled_unit_example(self):
        ctx = single_mode_ctx()
        x = np.array([[0.0, 0.0, 0.0]])
        y = np.array([[1.0, 0.0, 0.0]])
        zero = np.zeros(4)
        value = segment_action(1.0, 0.0, x, y, zero, zero, ctx)
        assert value == pytest.approx(2.5, abs=1e-10)

    def test_zero_displacement_reduces_to_potentials(self):
        ctx = coupled_ctx()
        rng = np.random.default_rng(8)
        x = rng.uniform(-1.0, 1.0, size=(2, 3))
        X = rng.standard_normal(ctx.n_field)
        t, s = 1.7, 0.4
        value = segment_action(t, s, x, x, X, X, ctx)
        v1 = potential_V1(x, ctx.config.charges, ctx.modes1, ctx.config)
        v2 = potential_V2(X, ctx.modes3, ctx.config)
        assert value == pytest.approx(-(t - s) * (v1 + v2), rel=1e-10)

    def test_rejects_bad_times(self):
        ctx = single_mode_ctx()
        zero = np.zeros(4)
        with pytest.raises(ConfigError):
            segment_action(0.0, 0.0, np.zeros((1, 3)), np.zeros((1, 3)), zero, zero, ctx)

    def test_rejects_field_vectors_on_other_modes(self):
        ctx = single_mode_ctx(n_particles=0, masses=(), charges=())
        other = ModeSet.from_s_triples([(0, 1, 0)], ctx.config.L)
        X = FieldVector(np.ones(4), other)
        Y = FieldVector(np.zeros(4), other)
        with pytest.raises(ConfigError, match="mode set"):
            segment_action(0.5, 0.0, None, None, X, Y, ctx)

    def test_rejects_field_vectors_of_the_wrong_length(self):
        ctx = single_mode_ctx(n_particles=0, masses=(), charges=())
        wide = ModeSet.from_s_triples([(0, 0, 1), (0, 1, 0)], ctx.config.L)
        with pytest.raises(ConfigError):
            segment_action(0.5, 0.0, None, None, FieldVector(np.ones(8), wide),
                           np.zeros(4), ctx)
        batch = FieldVector(np.ones((2, 4)), ctx.modes3)
        with pytest.raises(ConfigError, match="length 4"):
            segment_action(0.5, 0.0, None, None, batch, np.zeros(4), ctx)

    def test_gauge_term_antisymmetry(self):
        # Kinetic and potential blocks are orientation-even; whatever remains
        # is the coupled line integral and must flip sign under reversal.
        ctx = coupled_ctx()
        rng = np.random.default_rng(21)
        x = rng.uniform(-1.0, 1.0, size=(2, 3))
        y = rng.uniform(-1.0, 1.0, size=(2, 3))
        X = rng.standard_normal(ctx.n_field)
        Y = rng.standard_normal(ctx.n_field)
        t, s = 1.3, 0.3
        dt = t - s
        masses = np.asarray(ctx.config.masses)
        kinetic = float(np.sum(masses * np.sum((x - y) ** 2, axis=1))) / (2.0 * dt)
        kinetic += float((X - Y) @ (X - Y)) / (2.0 * ctx.config.volume * dt)
        v1_int, _ = integrate.quad(
            lambda th: potential_V1((1 - th) * x + th * y, ctx.config.charges,
                                    ctx.modes1, ctx.config), 0.0, 1.0)
        v2_int, _ = integrate.quad(
            lambda th: potential_V2((1 - th) * X + th * Y, ctx.modes3, ctx.config),
            0.0, 1.0)
        base = kinetic - dt * (v1_int + v2_int)
        forward = segment_action(t, s, x, y, X, Y, ctx)
        backward = segment_action(t, s, y, x, Y, X, ctx)
        gauge_f = forward - base
        gauge_b = backward - base
        scale = max(abs(forward), abs(backward), 1.0)
        assert abs(gauge_f + gauge_b) <= 1e-9 * scale
        assert abs(gauge_f) > 1e-6      # the coupling actually contributes

    def test_kinetic_positivity_without_modes(self):
        ctx = empty_mode_ctx()
        rng = np.random.default_rng(3)
        sub = Subdivision.uniform(1.0, 3)
        path = BrokenPath(sub, rng.standard_normal((4, 2, 3)), np.zeros((4, 0)))
        assert broken_action(path, ctx) >= 0.0


class TestBrokenAction:
    def test_single_segment_matches(self):
        ctx = coupled_ctx()
        rng = np.random.default_rng(12)
        verts = rng.uniform(-1.0, 1.0, size=(2, 2, 3))
        fields = rng.standard_normal((2, ctx.n_field))
        path = BrokenPath(Subdivision.uniform(0.8, 1), verts, fields)
        direct = segment_action(0.8, 0.0, verts[1], verts[0], fields[1], fields[0], ctx)
        assert broken_action(path, ctx) == direct

    def test_two_segments_equal_hand_sum(self):
        ctx = coupled_ctx()
        rng = np.random.default_rng(14)
        verts = rng.uniform(-1.0, 1.0, size=(3, 2, 3))
        fields = rng.standard_normal((3, ctx.n_field))
        path = BrokenPath(Subdivision((0.0, 0.4, 1.0)), verts, fields)
        hand = (
            segment_action(0.4, 0.0, verts[1], verts[0], fields[1], fields[0], ctx)
            + segment_action(1.0, 0.4, verts[2], verts[1], fields[2], fields[1], ctx)
        )
        assert broken_action(path, ctx) == hand

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        split=st.floats(min_value=0.15, max_value=0.85),
    )
    def test_collinear_refinement_invariance(self, seed, split):
        ctx = coupled_ctx()
        rng = np.random.default_rng(seed)
        verts = rng.uniform(-1.0, 1.0, size=(2, 2, 3))
        fields = rng.standard_normal((2, ctx.n_field))
        horizon = 0.9
        coarse = BrokenPath(Subdivision.uniform(horizon, 1), verts, fields)
        mid_x = (1.0 - split) * verts[0] + split * verts[1]
        mid_F = (1.0 - split) * fields[0] + split * fields[1]
        fine = BrokenPath(
            Subdivision((0.0, split * horizon, horizon)),
            np.stack([verts[0], mid_x, verts[1]]),
            np.stack([fields[0], mid_F, fields[1]]),
        )
        a, b = broken_action(coarse, ctx), broken_action(fine, ctx)
        assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)


class TestConstraintIdentity:
    def test_orthogonal_pair_value(self):
        x = np.array([[0.7, 0.0, 0.0], [0.0, 0.0, 0.0]])
        lhs, rhs = constraint_identity_check(x, (1.0, 1.0), (0.0, 0.0, 1.0))
        target = -32.0 * math.pi ** 2
        assert lhs == pytest.approx(target, rel=1e-12)
        assert rhs == pytest.approx(target, rel=1e-12)
        assert target == pytest.approx(-315.827, abs=5e-4)

    def test_single_particle_trivial(self):
        lhs, rhs = constraint_identity_check(
            np.array([[0.3, 0.1, -0.2]]), (1.5,), (0.0, 1.0, 0.0))
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        x = rng.uniform(-3.0, 3.0, size=(n, 3))
        e = rng.uniform(-2.0, 2.0, size=n)
        k = rng.uniform(-2.0, 2.0, size=3)
        if np.linalg.norm(k) < 1e-3:
            k = np.array([1.0, 0.0, 0.0])
        lhs, rhs = constraint_identity_check(x, e, k)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_zero_mode_rejected(self):
        with pytest.raises(ConfigError):
            constraint_identity_check(np.zeros((1, 3)), (1.0,), (0.0, 0.0, 0.0))


class TestPhiPathAction:
    """The scalar-offset cost that ``broken_action`` adds on a phi-shifted path."""

    def test_unit_mode_offset_adds_one(self):
        ctx = single_mode_ctx()
        vol = ctx.config.volume
        xi = np.array([[math.sqrt(2.0 * math.pi * vol),
                        math.sqrt(2.0 * math.pi * vol)]])
        assert scalar_offset_term(1.0, 0.0, xi, ctx) == pytest.approx(1.0, abs=1e-12)

    def test_offset_sign_invariance(self):
        ctx = single_mode_ctx()
        xi = np.array([[0.7, -1.2]])
        assert scalar_offset_term(2.0, 0.5, xi, ctx) == \
            scalar_offset_term(2.0, 0.5, -xi, ctx)

    def test_offset_shape_rejected(self):
        ctx = single_mode_ctx()
        with pytest.raises(ConfigError):
            scalar_offset_term(1.0, 0.0, np.zeros((2, 2)), ctx)
