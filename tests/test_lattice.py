"""Mode-set construction, halving, and polarization frame checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxqed import ConfigError, SimulationConfig, build_mode_set, build_polarization
from boxqed.lattice import ModeSet, WaveVector

TWO_PI = 2.0 * math.pi


def cube_config(M=1, L=TWO_PI):
    return SimulationConfig(L=(L, L, L), M=(M, M, M))


class TestSimulationConfig:
    def test_cutoff_ordering_enforced(self):
        with pytest.raises(ConfigError, match="M2 <= M3"):
            SimulationConfig(M=(1, 2, 1))

    def test_charge_length_must_match_n_particles(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n_particles=2, masses=(1.0, 1.0), charges=(1.0,))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("key", ["L", "hbar", "c_light", "sigma_psi",
                                     "width_g", "masses", "charges"])
    def test_non_finite_values_rejected(self, key, value):
        fields = {"L": (value, 1.0, 1.0), "masses": (value,), "charges": (value,)}
        kwargs = {"n_particles": 1, "masses": (1.0,), "charges": (0.5,),
                  key: fields.get(key, value)}
        with pytest.raises(ConfigError, match="finite"):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 1.5])
    @pytest.mark.parametrize("key", ["M", "n_particles"])
    def test_integer_fields_reject_non_integers(self, key, value):
        fields = {"M": (value, 1, 1)}
        with pytest.raises(ConfigError, match="integer"):
            SimulationConfig(**{key: fields.get(key, value)})

    def test_volume(self):
        config = SimulationConfig(L=(2.0, 3.0, 4.0))
        assert config.volume == pytest.approx(24.0)

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# sample configuration\n"
            "L1 = 6.283185307179586\nL2 = 6.283185307179586\nL3 = 6.283185307179586\n"
            "M1 = 1\nM2 = 1\nM3 = 2\n"
            "n_particles = 2\nmasses = 1.0, 2.0\ncharges = 1.0, -1.0\n"
        )
        config = SimulationConfig.from_file(path)
        assert config.M == (1, 1, 2)
        assert config.charges == (1.0, -1.0)

    def test_from_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("L9 = 1.0\n")
        with pytest.raises(ConfigError, match="unknown key"):
            SimulationConfig.from_file(path)


class TestBuildModeSet:
    def test_count_M1(self):
        modes = build_mode_set(cube_config(M=1), which=1)
        assert len(modes.lam) == 26
        assert modes.N == 13

    def test_count_M2(self):
        modes = build_mode_set(cube_config(M=2), which=1)
        assert len(modes.lam) == 124
        assert modes.N == 62

    def test_k_arithmetic(self):
        wv = WaveVector((1, 0, 0), (4.0 * math.pi, TWO_PI, TWO_PI))
        assert wv.k == pytest.approx([0.5, 0.0, 0.0])

    def test_halving_partitions_lambda(self):
        modes = build_mode_set(cube_config(M=2), which=1)
        prime = {wv.s for wv in modes.lam_prime}
        minus = {wv.negated().s for wv in modes.lam_prime}
        assert prime.isdisjoint(minus)
        assert prime | minus == {wv.s for wv in modes.lam}

    def test_prime_subset_inclusion_when_cutoffs_nested(self):
        config = SimulationConfig(M=(1, 1, 2))
        modes2 = build_mode_set(config, which=2)
        modes3 = build_mode_set(config, which=3)
        prime3 = {wv.s for wv in modes3.lam_prime}
        assert {wv.s for wv in modes2.lam_prime} <= prime3

    def test_explicit_mode_set(self):
        modes = ModeSet.from_s_triples([(0, 0, 1)], L=(TWO_PI,) * 3)
        assert modes.N == 1
        assert {wv.s for wv in modes.lam} == {(0, 0, 1), (0, 0, -1)}

    def test_explicit_mode_set_rejects_negative_representative(self):
        with pytest.raises(ConfigError):
            ModeSet.from_s_triples([(0, 0, -1)], L=(TWO_PI,) * 3)


class TestPolarization:
    def test_canonical_frame_on_z_axis(self):
        modes = ModeSet.from_s_triples([(0, 0, 1)], L=(TWO_PI,) * 3)
        frame = build_polarization(modes)
        e1, e2 = frame.e(modes.lam_prime[0])
        np.testing.assert_allclose(e1, [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(e2, [0.0, 1.0, 0.0], atol=1e-15)

    def test_parity_negation_exact(self):
        modes = build_mode_set(cube_config(M=1), which=1)
        frame = build_polarization(modes)
        for wv in modes.lam_prime:
            e1, e2 = frame.e(wv)
            f1, f2 = frame.e(wv.negated())
            assert np.array_equal(f1, -e1)
            assert np.array_equal(f2, -e2)

    def test_orthonormality(self):
        modes = build_mode_set(cube_config(M=2), which=1)
        frame = build_polarization(modes)
        for wv in modes.lam:
            e1, e2 = frame.e(wv)
            khat = wv.k / wv.norm
            assert abs(np.dot(e1, e1) - 1.0) < 1e-14
            assert abs(np.dot(e2, e2) - 1.0) < 1e-14
            assert abs(np.dot(e1, e2)) < 1e-14
            assert abs(np.dot(e1, khat)) < 1e-14
            assert abs(np.dot(e2, khat)) < 1e-14

    def test_determinant_is_plus_or_minus_one(self):
        modes = build_mode_set(cube_config(M=2), which=1)
        frame = build_polarization(modes)
        for wv in modes.lam:
            e1, e2 = frame.e(wv)
            khat = wv.k / wv.norm
            det = np.linalg.det(np.column_stack([e1, e2, khat]))
            assert abs(abs(det) - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    M=st.integers(min_value=1, max_value=3),
    L=st.tuples(
        st.floats(min_value=0.5, max_value=50.0),
        st.floats(min_value=0.5, max_value=50.0),
        st.floats(min_value=0.5, max_value=50.0),
    ),
)
def test_mode_set_invariants_property(M, L):
    config = SimulationConfig(L=L, M=(M, M, M))
    modes = build_mode_set(config, which=3)
    assert len(modes.lam) == (2 * M + 1) ** 3 - 1
    assert 2 * modes.N == len(modes.lam)
    prime = {wv.s for wv in modes.lam_prime}
    assert all((s in prime) != ((-s[0], -s[1], -s[2]) in prime) for s in (wv.s for wv in modes.lam))
    frame = build_polarization(modes)
    for wv in modes.lam_prime[:: max(1, modes.N // 5)]:
        e1, e2 = frame.e(wv)
        assert abs(np.dot(e1, wv.k)) < 1e-12 * max(1.0, wv.norm)
        assert abs(np.dot(e2, wv.k)) < 1e-12 * max(1.0, wv.norm)

