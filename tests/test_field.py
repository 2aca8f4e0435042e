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
    MollifierPair,
    extend_parity,
    potential_V2,
    reconstruct_A,
    reconstruct_tilde_A,
    tilde_A_with_derivatives,
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
        config = SimulationConfig(sigma_psi=50.0)
        moll = MollifierPair.defaults(config)
        for theta in (0.1, 1.7, 42.0, 3.3e2):
            assert float(moll.psi(theta)) + float(moll.psi(-theta)) == 0.0
        assert float(moll.psi(0.01)) == pytest.approx(0.01, rel=1e-7)
        # Bounded by sigma.
        assert abs(float(moll.psi(1e9))) <= 50.0

    def test_g_at_origin_and_gradient(self):
        config = SimulationConfig(width_g=3.0)
        moll = MollifierPair.defaults(config)
        assert moll.g(np.zeros(3)) == 1.0
        x = np.array([0.4, -1.0, 2.2])
        h = 1e-6
        for m in range(3):
            step = np.zeros(3)
            step[m] = h
            fd = (moll.g(x + step) - moll.g(x - step)) / (2.0 * h)
            assert moll.g_grad(x)[m] == pytest.approx(fd, rel=1e-7, abs=1e-12)

    def test_psi_prime_matches_difference(self):
        config = SimulationConfig(sigma_psi=0.8)
        moll = MollifierPair.defaults(config)
        for theta in (-2.0, -0.3, 0.0, 0.5, 1.9):
            h = 1e-6
            fd = (float(moll.psi(theta + h)) - float(moll.psi(theta - h))) / (2.0 * h)
            assert float(moll.psi_prime(theta)) == pytest.approx(fd, rel=1e-8, abs=1e-10)


class TestTildeA:
    def test_reduces_to_A_for_wide_mollifiers(self):
        config = SimulationConfig(
            L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1), sigma_psi=1e8, width_g=1e9
        )
        ctx = ModelContext.from_config(config)
        vec = random_field(ctx.modes3, seed=2)
        x = np.array([1.2, 0.4, -0.9])
        plain = reconstruct_A(x, vec, ctx.modes2, ctx.frame, ctx.config)
        tilde = reconstruct_tilde_A(x, vec, ctx.modes2, ctx.frame, ctx.mollifiers, ctx.config)
        assert np.allclose(tilde, plain, rtol=1e-12, atol=1e-15)

    def test_matches_looped_oracle(self):
        config = SimulationConfig(
            L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1), sigma_psi=0.7, width_g=2.5
        )
        ctx = ModelContext.from_config(config)
        vec = random_field(ctx.modes3, seed=13)
        for x in (np.zeros(3), np.array([0.8, -0.2, 1.5])):
            got = reconstruct_tilde_A(x, vec, ctx.modes2, ctx.frame, ctx.mollifiers, ctx.config)
            want = looped_tilde_A(x, vec, ctx.modes2, ctx.frame, ctx.mollifiers, ctx.config)
            assert np.allclose(got, want, atol=1e-13)

    def test_gradients_match_finite_differences(self):
        config = SimulationConfig(
            L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1), sigma_psi=0.7, width_g=2.5
        )
        ctx = ModelContext.from_config(config)
        vec = random_field(ctx.modes3, seed=29)
        x = np.array([0.3, -0.7, 0.9])
        value, grad_x, grad_a = tilde_A_with_derivatives(
            x, vec, ctx.modes2, ctx.frame, ctx.mollifiers, ctx.config
        )
        assert np.allclose(
            value,
            reconstruct_tilde_A(x, vec, ctx.modes2, ctx.frame, ctx.mollifiers, ctx.config),
        )
        h = 1e-6
        for m in range(3):
            step = np.zeros(3)
            step[m] = h
            plus = reconstruct_tilde_A(x + step, vec, ctx.modes2, ctx.frame,
                                       ctx.mollifiers, ctx.config)
            minus = reconstruct_tilde_A(x - step, vec, ctx.modes2, ctx.frame,
                                        ctx.mollifiers, ctx.config)
            fd = (plus - minus) / (2.0 * h)
            assert np.allclose(grad_x[m], fd, atol=5e-7)
        rng = np.random.default_rng(4)
        for flat in rng.choice(4 * ctx.modes3.N, size=8, replace=False):
            bumped = FieldVector(vec.values.copy(), ctx.modes3)
            bumped.values[flat] += h
            dropped = FieldVector(vec.values.copy(), ctx.modes3)
            dropped.values[flat] -= h
            plus = reconstruct_tilde_A(x, bumped, ctx.modes2, ctx.frame,
                                       ctx.mollifiers, ctx.config)
            minus = reconstruct_tilde_A(x, dropped, ctx.modes2, ctx.frame,
                                        ctx.mollifiers, ctx.config)
            fd = (plus - minus) / (2.0 * h)
            assert np.allclose(grad_a[:, flat], fd, atol=5e-7)


    def test_batch_matches_single_point_calls(self):
        config = SimulationConfig(
            L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1), sigma_psi=0.7, width_g=2.5
        )
        ctx = ModelContext.from_config(config)
        rng = np.random.default_rng(31)
        xs = rng.uniform(-2.0, 2.0, size=(2, 3, 3))
        values = rng.standard_normal((2, 3, 4 * ctx.modes3.N))
        args = (ctx.modes2, ctx.frame, ctx.mollifiers, ctx.config)
        batch = tilde_A_with_derivatives(xs, FieldVector(values, ctx.modes3), *args)
        assert [part.shape for part in batch] == [
            (2, 3, 3), (2, 3, 3, 3), (2, 3, 3, 4 * ctx.modes3.N)]
        for idx in np.ndindex(2, 3):
            single = tilde_A_with_derivatives(
                xs[idx], FieldVector(values[idx], ctx.modes3), *args)
            for got, want in zip(batch, single):
                assert np.max(np.abs(got[idx] - want)) <= 1e-12 * np.max(np.abs(want))
        # a single point broadcasts against a batch of field values
        shared = tilde_A_with_derivatives(xs[0, 0], FieldVector(values[0], ctx.modes3), *args)
        for got, want in zip(shared, batch):
            assert got.shape == want[0].shape
        assert np.allclose(shared[0][0], batch[0][0, 0], rtol=1e-12, atol=0.0)
        via_context, _, _ = ctx.tilde_A(xs, values, need_x=False, need_a=False)
        assert np.array_equal(via_context, batch[0])

    def test_batched_grad_x_matches_central_differences(self):
        config = SimulationConfig(
            L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1), sigma_psi=0.7, width_g=2.5
        )
        ctx = ModelContext.from_config(config)
        rng = np.random.default_rng(37)
        xs = rng.uniform(-2.0, 2.0, size=(6, 3))
        vec = FieldVector(rng.standard_normal((6, 4 * ctx.modes3.N)), ctx.modes3)
        args = (ctx.modes2, ctx.frame, ctx.mollifiers, ctx.config)
        _, grad_x, _ = tilde_A_with_derivatives(xs, vec, *args)
        h = 1e-6
        for m in range(3):
            step = np.zeros(3)
            step[m] = h
            fd = (reconstruct_tilde_A(xs + step, vec, *args)
                  - reconstruct_tilde_A(xs - step, vec, *args)) / (2.0 * h)
            assert np.allclose(grad_x[:, m, :], fd, atol=5e-7)


class TestPotentialV2:
    def one_mode_ctx(self):
        config = SimulationConfig(L=(TWO_PI, TWO_PI, TWO_PI))
        modes = ModeSet.from_s_triples([(0, 0, 1)], config.L)
        return config, modes

    def test_vacuum_value(self):
        config, modes = self.one_mode_ctx()
        vec = FieldVector.zeros(modes)
        assert potential_V2(vec, modes, config) == pytest.approx(-2.0, abs=1e-13)

    def test_single_scaled_coordinate(self):
        # Setting one coordinate to sqrt(|V| hbar / (c|k|)) cancels that
        # variable's subtraction, leaving -3/2 hbar c |k|.
        config, modes = self.one_mode_ctx()
        s = modes.lam_prime[0].s
        amp = math.sqrt(config.volume * config.hbar / config.c_light)
        vec = FieldVector.from_entries(modes, {(1, s, 1): amp})
        assert potential_V2(vec, modes, config) == pytest.approx(-1.5, abs=1e-13)

    def test_quadratic_scaling(self):
        config = SimulationConfig(L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1))
        ctx = ModelContext.from_config(config)
        vec = random_field(ctx.modes3, seed=41)
        double = FieldVector(2.0 * vec.values, ctx.modes3)
        base = potential_V2(FieldVector.zeros(ctx.modes3), ctx.modes3, config)
        v_one = potential_V2(vec, ctx.modes3, config) - base
        v_two = potential_V2(double, ctx.modes3, config) - base
        assert v_two == pytest.approx(4.0 * v_one, rel=1e-12)

    def test_gradient_matches_difference(self):
        config = SimulationConfig(L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1))
        ctx = ModelContext.from_config(config)
        vec = random_field(ctx.modes3, seed=43)
        grad = v2_gradient(vec, config)
        # Central differences are exact for a quadratic, so a wide step
        # only reduces roundoff.
        h = 1e-4
        for flat in (0, 7, 4 * ctx.modes3.N - 1):
            up = FieldVector(vec.values.copy(), ctx.modes3)
            up.values[flat] += h
            down = FieldVector(vec.values.copy(), ctx.modes3)
            down.values[flat] -= h
            fd = (potential_V2(up, ctx.modes3, config)
                  - potential_V2(down, ctx.modes3, config)) / (2.0 * h)
            assert grad[flat] == pytest.approx(fd, rel=1e-7, abs=1e-9)


    def test_batch_matches_single_points(self):
        config = SimulationConfig(L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1))
        ctx = ModelContext.from_config(config)
        values = np.random.default_rng(47).standard_normal((5, 4 * ctx.modes3.N))
        batch = FieldVector(values, ctx.modes3)
        energies = potential_V2(batch, ctx.modes3, config)
        gradients = v2_gradient(batch, config)
        assert energies.shape == (5,) and gradients.shape == values.shape
        for row, energy, gradient in zip(values, energies, gradients):
            single = FieldVector(row, ctx.modes3)
            assert energy == potential_V2(single, ctx.modes3, config)
            assert np.array_equal(gradient, v2_gradient(single, config))


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
