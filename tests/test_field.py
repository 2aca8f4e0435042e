"""Field coordinates, reconstruction, mollifiers, and the quadratic potential."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxqed import ModeSet, SimulationConfig, build_mode_set, build_polarization
from boxqed.errors import ConfigError
from boxqed.field import (
    FieldVector,
    ModelContext,
    extend_parity,
    potential_V2,
    reconstruct_A,
    v2_gradient,
)

from oracles import complex_field_sum, looped_tilde_A

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def ctx():
    config = SimulationConfig(L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1))
    return ModelContext.from_config(config)


@pytest.fixture(scope="module")
def ctx_nested():
    config = SimulationConfig(L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 2))
    return ModelContext.from_config(config)


def random_field(modes, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return FieldVector(scale * rng.standard_normal(4 * modes.N), modes)


class TestFieldVector:
    def test_layout(self, ctx):
        vec = FieldVector.zeros(ctx.modes3)
        s = ctx.modes3.lam_prime[5].s
        assert vec.offset(1, s, 1) == 4 * 5
        assert vec.offset(1, s, 2) == 4 * 5 + 1
        assert vec.offset(2, s, 1) == 4 * 5 + 2
        assert vec.offset(2, s, 2) == 4 * 5 + 3

    def test_from_entries_and_grid(self, ctx):
        s = ctx.modes3.lam_prime[0].s
        vec = FieldVector.from_entries(ctx.modes3, {(2, s, 1): 3.5})
        assert vec.entry(2, s, 1) == 3.5
        assert vec.grid[0, 1, 0] == 3.5
        assert np.count_nonzero(vec.values) == 1

    def test_wrong_length(self, ctx):
        with pytest.raises(ConfigError):
            FieldVector(np.zeros(3), ctx.modes3)

    def test_bad_indices(self, ctx):
        vec = FieldVector.zeros(ctx.modes3)
        with pytest.raises(ConfigError):
            vec.offset(3, ctx.modes3.lam_prime[0].s, 1)


class TestParity:
    def test_extension_signs(self, ctx):
        vec = random_field(ctx.modes3, seed=11)
        full = extend_parity(vec)
        assert len(full) == 8 * ctx.modes3.N
        for wv in ctx.modes3.lam_prime:
            neg = wv.negated().s
            for l in (1, 2):
                assert full[(l, neg, 1)] == -full[(l, wv.s, 1)]
                assert full[(l, neg, 2)] == full[(l, wv.s, 2)]


class TestReconstruction:
    def test_single_coefficient_cosine(self, ctx):
        # One unit cosine coordinate gives sqrt(8 pi) c / |V| cos(k.x) e1(k).
        wv = next(w for w in ctx.modes2.lam_prime if w.s == (0, 0, 1))
        vec = FieldVector.from_entries(ctx.modes3, {(1, wv.s, 1): 1.0})
        e1, _ = ctx.frame.e(wv)
        amp = math.sqrt(8.0 * math.pi) * ctx.config.c_light / ctx.config.volume
        for x in (np.zeros(3), np.array([0.3, -1.1, 0.7]), np.array([0.0, 0.0, 2.0])):
            expected = amp * math.cos(np.dot(wv.k, x)) * np.asarray(e1)
            got = reconstruct_A(x, vec, ctx.modes2, ctx.frame, ctx.config)
            assert np.allclose(got, expected, atol=1e-14)

    def test_matches_complex_oracle(self, ctx):
        vec = random_field(ctx.modes3, seed=3)
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.uniform(-math.pi, math.pi, size=3)
            oracle = complex_field_sum(x, vec, ctx.modes2, ctx.frame, ctx.config)
            assert np.max(np.abs(oracle.imag)) <= 1e-12
            got = reconstruct_A(x, vec, ctx.modes2, ctx.frame, ctx.config)
            assert np.allclose(got, oracle.real, atol=1e-12)

    def test_oracle_on_nested_sets(self, ctx_nested):
        # Field variables on the larger Lambda'_3, reconstruction over Lambda_2.
        c = ctx_nested
        assert c.modes2.N < c.modes3.N
        vec = random_field(c.modes3, seed=5)
        x = np.array([0.9, 0.1, -0.4])
        oracle = complex_field_sum(x, vec, c.modes2, c.frame, c.config)
        got = reconstruct_A(x, vec, c.modes2, c.frame, c.config)
        assert np.max(np.abs(oracle.imag)) <= 1e-12
        assert np.allclose(got, oracle.real, atol=1e-12)

    def test_periodicity(self, ctx):
        vec = random_field(ctx.modes3, seed=23)
        x = np.array([0.25, -0.6, 1.3])
        base = reconstruct_A(x, vec, ctx.modes2, ctx.frame, ctx.config)
        for axis in range(3):
            shift = np.zeros(3)
            shift[axis] = ctx.config.L[axis]
            moved = reconstruct_A(x + shift, vec, ctx.modes2, ctx.frame, ctx.config)
            assert np.allclose(moved, base, atol=1e-12)

    def test_coulomb_gauge_divergence(self, ctx):
        vec = random_field(ctx.modes3, seed=31)
        rng = np.random.default_rng(91)
        h = 1e-5
        sup = 0.0
        divs = []
        for _ in range(6):
            x = rng.uniform(-math.pi, math.pi, size=3)
            sup = max(sup, np.max(np.abs(
                reconstruct_A(x, vec, ctx.modes2, ctx.frame, ctx.config))))
            div = 0.0
            for m in range(3):
                step = np.zeros(3)
                step[m] = h
                plus = reconstruct_A(x + step, vec, ctx.modes2, ctx.frame, ctx.config)
                minus = reconstruct_A(x - step, vec, ctx.modes2, ctx.frame, ctx.config)
                div += (plus[m] - minus[m]) / (2.0 * h)
            divs.append(abs(div))
        assert max(divs) <= 1e-6 * sup

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_reality_property(self, ctx, seed):
        vec = random_field(ctx.modes3, seed=seed)
        x = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, size=3)
        oracle = complex_field_sum(x, vec, ctx.modes2, ctx.frame, ctx.config)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(oracle.imag)) <= 1e-12 * scale


class TestMollifiers:
    def test_psi_odd_and_near_identity(self):
        ctx = ModelContext.from_config(SimulationConfig(sigma_psi=50.0))
        for theta in (0.1, 1.7, 42.0, 3.3e2):
            assert float(ctx.psi(theta)[0]) + float(ctx.psi(-theta)[0]) == 0.0
        assert float(ctx.psi(0.01)[0]) == pytest.approx(0.01, rel=1e-7)
        # Bounded by sigma.
        assert abs(float(ctx.psi(1e9)[0])) <= 50.0

    def test_g_at_origin_and_gradient(self):
        ctx = ModelContext.from_config(SimulationConfig(width_g=3.0))
        assert ctx.g(np.zeros(3))[0] == 1.0
        x = np.array([0.4, -1.0, 2.2])
        value, grad = ctx.g(x, order=1)
        assert value == ctx.g(x)[0]
        h = 1e-6
        for m in range(3):
            step = np.zeros(3)
            step[m] = h
            fd = (ctx.g(x + step)[0] - ctx.g(x - step)[0]) / (2.0 * h)
            assert grad[m] == pytest.approx(fd, rel=1e-7, abs=1e-12)

    def test_psi_prime_matches_difference(self):
        ctx = ModelContext.from_config(SimulationConfig(sigma_psi=0.8))
        for theta in (-2.0, -0.3, 0.0, 0.5, 1.9):
            value, slope = ctx.psi(theta, order=1)
            assert value == ctx.psi(theta)[0]
            h = 1e-6
            fd = (float(ctx.psi(theta + h)[0]) - float(ctx.psi(theta - h)[0])) / (2.0 * h)
            assert float(slope) == pytest.approx(fd, rel=1e-8, abs=1e-10)

    def test_second_derivatives_match_differences(self):
        ctx = ModelContext.from_config(SimulationConfig(sigma_psi=0.8, width_g=3.0))
        h = 1e-6
        for theta in (-2.0, -0.3, 0.0, 0.5, 1.9):
            value, slope, curve = ctx.psi(theta, order=2)
            assert (value, slope) == ctx.psi(theta, order=1)
            fd = (float(ctx.psi(theta + h, order=1)[1])
                  - float(ctx.psi(theta - h, order=1)[1])) / (2.0 * h)
            assert float(curve) == pytest.approx(fd, rel=1e-7, abs=1e-10)
        x = np.array([[0.4, -1.0, 2.2], [1.5, 0.3, -0.6]])
        value, grad, hess = ctx.g(x, order=2)
        assert np.array_equal(value, ctx.g(x)[0])
        assert np.array_equal(grad, ctx.g(x, order=1)[1])
        assert hess.shape == (2, 3, 3)
        for m in range(3):
            step = np.zeros(3)
            step[m] = h
            fd = (ctx.g(x + step, order=1)[1] - ctx.g(x - step, order=1)[1]) / (2.0 * h)
            assert np.allclose(hess[:, m, :], fd, rtol=1e-7, atol=1e-12)

    @pytest.mark.parametrize("order", [-1, 3])
    def test_orders_beyond_two_are_rejected(self, ctx, order):
        with pytest.raises(ConfigError, match="order"):
            ctx.psi(0.5, order=order)
        with pytest.raises(ConfigError, match="order"):
            ctx.g(np.zeros(3), order=order)


def tilde_value(ctx, x, values):
    """The mollified potential alone, without gradients."""
    value, _, _ = ctx.tilde_A(x, values, need_x=False, need_a=False)
    return value


def mollified_ctx():
    config = SimulationConfig(
        L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1), sigma_psi=0.7, width_g=2.5
    )
    return ModelContext.from_config(config)


class TestTildeA:
    def test_reduces_to_A_for_wide_mollifiers(self):
        config = SimulationConfig(
            L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1), sigma_psi=1e8, width_g=1e9
        )
        ctx = ModelContext.from_config(config)
        vec = random_field(ctx.modes3, seed=2)
        x = np.array([1.2, 0.4, -0.9])
        plain = reconstruct_A(x, vec, ctx.modes2, ctx.frame, ctx.config)
        tilde = tilde_value(ctx, x, vec.values)
        assert np.allclose(tilde, plain, rtol=1e-12, atol=1e-15)

    def test_matches_looped_oracle(self):
        ctx = mollified_ctx()
        vec = random_field(ctx.modes3, seed=13)
        for x in (np.zeros(3), np.array([0.8, -0.2, 1.5])):
            got = tilde_value(ctx, x, vec.values)
            want = looped_tilde_A(x, vec, ctx.modes2, ctx.frame, ctx.config)
            assert np.allclose(got, want, atol=1e-13)

    def test_gradients_match_finite_differences(self):
        ctx = mollified_ctx()
        values = random_field(ctx.modes3, seed=29).values
        x = np.array([0.3, -0.7, 0.9])
        value, grad_x, grad_a = ctx.tilde_A(x, values)
        assert np.array_equal(value, tilde_value(ctx, x, values))
        h = 1e-6
        for m in range(3):
            step = np.zeros(3)
            step[m] = h
            fd = (tilde_value(ctx, x + step, values)
                  - tilde_value(ctx, x - step, values)) / (2.0 * h)
            assert np.allclose(grad_x[m], fd, atol=5e-7)
        rng = np.random.default_rng(4)
        for flat in rng.choice(4 * ctx.modes3.N, size=8, replace=False):
            bump = np.zeros_like(values)
            bump[flat] = h
            fd = (tilde_value(ctx, x, values + bump)
                  - tilde_value(ctx, x, values - bump)) / (2.0 * h)
            assert np.allclose(grad_a[:, flat], fd, atol=5e-7)

    def test_batch_matches_single_point_calls(self):
        ctx = mollified_ctx()
        rng = np.random.default_rng(31)
        xs = rng.uniform(-2.0, 2.0, size=(2, 3, 3))
        values = rng.standard_normal((2, 3, 4 * ctx.modes3.N))
        batch = ctx.tilde_A(xs, values)
        assert [part.shape for part in batch] == [
            (2, 3, 3), (2, 3, 3, 3), (2, 3, 3, 4 * ctx.modes3.N)]
        for idx in np.ndindex(2, 3):
            single = ctx.tilde_A(xs[idx], values[idx])
            for got, want in zip(batch, single):
                assert np.max(np.abs(got[idx] - want)) <= 1e-12 * np.max(np.abs(want))
        # a single point broadcasts against a batch of field values
        shared = ctx.tilde_A(xs[0, 0], values[0])
        for got, want in zip(shared, batch):
            assert got.shape == want[0].shape
        assert np.allclose(shared[0][0], batch[0][0, 0], rtol=1e-12, atol=0.0)
        assert np.array_equal(tilde_value(ctx, xs, values), batch[0])

    def test_batched_grad_x_matches_central_differences(self):
        ctx = mollified_ctx()
        rng = np.random.default_rng(37)
        xs = rng.uniform(-2.0, 2.0, size=(6, 3))
        values = rng.standard_normal((6, 4 * ctx.modes3.N))
        _, grad_x, _ = ctx.tilde_A(xs, values)
        h = 1e-6
        for m in range(3):
            step = np.zeros(3)
            step[m] = h
            fd = (tilde_value(ctx, xs + step, values)
                  - tilde_value(ctx, xs - step, values)) / (2.0 * h)
            assert np.allclose(grad_x[:, m, :], fd, atol=5e-7)

    def test_second_derivatives_match_finite_differences(self):
        """hess_xx and hess_xa against differences of the gradients in x,
        and hess_aa against differences of grad_a in a, which must be
        diagonal."""
        ctx = mollified_ctx()
        values = random_field(ctx.modes3, seed=41).values
        x = np.array([0.3, -0.7, 0.9])
        parts = ctx.tilde_A(x, values, second=True)
        for got, want in zip(parts[:3], ctx.tilde_A(x, values)):
            assert np.array_equal(got, want)
        _, _, _, hess_xx, hess_xa, hess_aa = parts
        n_flat = 4 * ctx.modes3.N
        assert (hess_xx.shape, hess_xa.shape, hess_aa.shape) \
            == ((3, 3, 3), (3, 3, n_flat), (3, n_flat))
        h = 1e-6
        for m in range(3):
            step = np.zeros(3)
            step[m] = h
            _, gx_up, ga_up = ctx.tilde_A(x + step, values)
            _, gx_down, ga_down = ctx.tilde_A(x - step, values)
            assert np.allclose(hess_xx[m], (gx_up - gx_down) / (2.0 * h), atol=1e-8)
            assert np.allclose(hess_xa[m], (ga_up - ga_down) / (2.0 * h), atol=1e-8)
        for flat in range(n_flat):
            bump = np.zeros_like(values)
            bump[flat] = h
            fd = (ctx.tilde_A(x, values + bump)[2]
                  - ctx.tilde_A(x, values - bump)[2]) / (2.0 * h)
            assert np.allclose(fd[:, flat], hess_aa[:, flat], atol=1e-8)
            fd[:, flat] = 0.0
            assert np.max(np.abs(fd)) <= 1e-9

    def test_second_derivatives_batch_and_empty_coupling(self):
        ctx = mollified_ctx()
        rng = np.random.default_rng(43)
        xs = rng.uniform(-2.0, 2.0, size=(2, 3, 3))
        values = rng.standard_normal((2, 3, 4 * ctx.modes3.N))
        batch = ctx.tilde_A(xs, values, second=True)
        for idx in np.ndindex(2, 3):
            for got, want in zip(batch, ctx.tilde_A(xs[idx], values[idx], second=True)):
                assert np.max(np.abs(got[idx] - want)) <= 1e-12 * np.max(np.abs(want))
        config = SimulationConfig(L=(TWO_PI, TWO_PI, TWO_PI))
        one = ModeSet.from_s_triples([(0, 0, 1)], config.L)
        empty = ModeSet.from_s_triples([], config.L)
        uncoupled = ModelContext.custom(config, empty, empty, one)
        parts = uncoupled.tilde_A(xs, np.ones((2, 3, 4)), second=True)
        assert [part.shape for part in parts] == [
            (2, 3, 3), (2, 3, 3, 3), (2, 3, 3, 4), (2, 3, 3, 3, 3),
            (2, 3, 3, 3, 4), (2, 3, 3, 4)]
        assert not any(np.any(part) for part in parts)

    def test_rejects_values_of_the_wrong_length(self, ctx):
        with pytest.raises(ConfigError):
            ctx.tilde_A(np.zeros(3), np.zeros(4 * ctx.modes3.N + 1))


class TestPotentialV2:
    def one_mode_ctx(self):
        config = SimulationConfig(L=(TWO_PI, TWO_PI, TWO_PI))
        modes = ModeSet.from_s_triples([(0, 0, 1)], config.L)
        return config, modes

    def test_vacuum_value(self):
        config, modes = self.one_mode_ctx()
        assert potential_V2(np.zeros(4), modes, config) == pytest.approx(-2.0, abs=1e-13)

    def test_single_scaled_coordinate(self):
        # Setting one coordinate to sqrt(|V| hbar / (c|k|)) cancels that
        # variable's subtraction, leaving -3/2 hbar c |k|.
        config, modes = self.one_mode_ctx()
        s = modes.lam_prime[0].s
        amp = math.sqrt(config.volume * config.hbar / config.c_light)
        vec = FieldVector.from_entries(modes, {(1, s, 1): amp})
        assert potential_V2(vec.values, modes, config) == pytest.approx(-1.5, abs=1e-13)

    def test_quadratic_scaling(self):
        config = SimulationConfig(L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1))
        ctx = ModelContext.from_config(config)
        values = random_field(ctx.modes3, seed=41).values
        base = potential_V2(np.zeros(ctx.n_field), ctx.modes3, config)
        v_one = potential_V2(values, ctx.modes3, config) - base
        v_two = potential_V2(2.0 * values, ctx.modes3, config) - base
        assert v_two == pytest.approx(4.0 * v_one, rel=1e-12)

    def test_gradient_matches_difference(self):
        config = SimulationConfig(L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1))
        ctx = ModelContext.from_config(config)
        values = random_field(ctx.modes3, seed=43).values
        grad = v2_gradient(values, ctx.modes3, config)
        # Central differences are exact for a quadratic, so a wide step
        # only reduces roundoff.
        h = 1e-4
        for flat in (0, 7, 4 * ctx.modes3.N - 1):
            bump = np.zeros_like(values)
            bump[flat] = h
            fd = (potential_V2(values + bump, ctx.modes3, config)
                  - potential_V2(values - bump, ctx.modes3, config)) / (2.0 * h)
            assert grad[flat] == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_batch_matches_single_points(self):
        config = SimulationConfig(L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1))
        ctx = ModelContext.from_config(config)
        values = np.random.default_rng(47).standard_normal((5, 4 * ctx.modes3.N))
        energies = potential_V2(values, ctx.modes3, config)
        gradients = v2_gradient(values, ctx.modes3, config)
        assert energies.shape == (5,) and gradients.shape == values.shape
        for row, energy, gradient in zip(values, energies, gradients):
            assert energy == potential_V2(row, ctx.modes3, config)
            assert np.array_equal(gradient, v2_gradient(row, ctx.modes3, config))

    def test_rejects_values_of_the_wrong_length(self):
        config, modes = self.one_mode_ctx()
        for values in (np.zeros(8), np.zeros((3, 5)), np.float64(0.0)):
            with pytest.raises(ConfigError, match="length 4"):
                potential_V2(values, modes, config)
            with pytest.raises(ConfigError, match="length 4"):
                v2_gradient(values, modes, config)


class TestModelContext:
    def test_nested_mapping(self, ctx_nested):
        c = ctx_nested
        assert c.cols2.shape == (c.modes2.N, 2, 2)
        for pos, wv in enumerate(c.modes2.lam_prime):
            slot = int(c.cols2[pos, 0, 0]) // 4
            assert c.modes3.lam_prime[slot].s == wv.s
            assert np.array_equal(c.cols2[pos], 4 * slot + np.array([[0, 1], [2, 3]]))

    def test_rejects_non_subset(self):
        config = SimulationConfig(L=(TWO_PI, TWO_PI, TWO_PI))
        wide = ModeSet.from_s_triples([(0, 0, 2)], config.L)
        narrow = ModeSet.from_s_triples([(0, 0, 1)], config.L)
        with pytest.raises(ConfigError):
            ModelContext.custom(config, narrow, wide, narrow)

    def test_field_frequencies(self, ctx):
        freqs = ctx.field_frequencies()
        assert freqs.shape == (4 * ctx.modes3.N,)
        for idx, wv in enumerate(ctx.modes3.lam_prime):
            assert np.allclose(freqs[4 * idx:4 * idx + 4],
                               ctx.config.c_light * wv.norm)
