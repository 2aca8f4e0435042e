"""Cutoff Coulomb energy, lattice Riemann sums, and the mollified limit."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import fft, integrate
from scipy.special import erf

from boxqed import SimulationConfig, build_mode_set, coulomb
from boxqed.coulomb import (
    LatticeSummand,
    inverse_quartic_summand,
    mollified_coulomb,
    potential_V1,
    richardson_limit,
    riemann_sum,
    screened_inverse_square_summand,
    v1_gradient,
    v1_hessian,
)
from boxqed.errors import BudgetError, ConfigError, InvariantViolation

from oracles import (
    enumerated_mollified_coulomb,
    ewald_lattice_sum,
    fftconvolve_three_squares_counts,
    screened_coulomb_total,
    single_cube_three_squares_counts,
)

TWO_PI = 2.0 * math.pi
FROZEN_V1 = 22.0 / (3.0 * math.pi ** 2)


@pytest.fixture(scope="module")
def unit_ctx():
    config = SimulationConfig(L=(TWO_PI, TWO_PI, TWO_PI), M=(1, 1, 1))
    return config, build_mode_set(config, 1)


def gaussian_summand():
    return LatticeSummand(
        phi_fn=lambda K: np.exp(-np.einsum("...i,...i->...", K, K)),
        bound_fn=lambda r: math.exp(-min(r * r, 700.0)),
        radial_fn=lambda r: np.exp(-np.asarray(r, dtype=float) ** 2),
        name="gaussian",
        analytic_limit=math.pi ** 1.5,
    )


def bump_summand():
    def radial(r):
        r = np.asarray(r, dtype=float)
        u2 = (r / 2.0) ** 2
        with np.errstate(divide="ignore", over="ignore"):
            vals = np.where(u2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - u2, 1e-300)), 0.0)
        return vals

    return LatticeSummand(
        phi_fn=lambda K: radial(np.linalg.norm(K, axis=-1)),
        bound_fn=lambda r: float(radial(r)),
        radial_fn=radial,
        name="bump",
    )


class TestPotentialV1:
    def test_frozen_coincident_value(self, unit_ctx):
        config, modes = unit_ctx
        x = np.zeros((2, 3))
        value = potential_V1(x, (1.0, 1.0), modes, config)
        assert value == pytest.approx(FROZEN_V1, rel=1e-12)
        assert value == pytest.approx(0.74302, abs=1e-5)

    def test_swap_symmetry(self, unit_ctx):
        config, modes = unit_ctx
        x = np.array([[0.3, -0.2, 1.1], [0.9, 0.4, -0.5]])
        forward = potential_V1(x, (1.0, -0.7), modes, config)
        backward = potential_V1(x[::-1], (-0.7, 1.0), modes, config)
        assert forward == pytest.approx(backward, rel=1e-13)

    def test_opposite_charges_flip_sign(self, unit_ctx):
        config, modes = unit_ctx
        x = np.zeros((2, 3))
        assert potential_V1(x, (1.0, -1.0), modes, config) == pytest.approx(
            -FROZEN_V1, rel=1e-12
        )

    def test_small_systems_vanish(self, unit_ctx):
        config, modes = unit_ctx
        assert potential_V1(np.zeros((1, 3)), (1.0,), modes, config) == 0.0
        assert potential_V1(np.zeros((0, 3)), (), modes, config) == 0.0

    def test_translation_and_period_invariance(self, unit_ctx):
        config, modes = unit_ctx
        x = np.array([[0.3, -0.2, 1.1], [0.9, 0.4, -0.5], [-1.2, 0.0, 0.7]])
        e = (1.0, -0.5, 0.25)
        base = potential_V1(x, e, modes, config)
        shifted = potential_V1(x + np.array([0.7, -2.1, 0.4]), e, modes, config)
        assert abs(shifted - base) <= 1e-12
        wrapped = x.copy()
        wrapped[1] += np.array([config.L[0], 0.0, 0.0])
        assert abs(potential_V1(wrapped, e, modes, config) - base) <= 1e-12

    def test_gradient_matches_finite_differences(self, unit_ctx):
        config, modes = unit_ctx
        rng = np.random.default_rng(5)
        x = rng.uniform(-2.0, 2.0, size=(3, 3))
        e = (1.0, -0.7, 0.4)
        grad = v1_gradient(x, e, modes, config)
        h = 1e-6
        for j in range(3):
            for m in range(3):
                up = x.copy()
                up[j, m] += h
                down = x.copy()
                down[j, m] -= h
                fd = (potential_V1(up, e, modes, config)
                      - potential_V1(down, e, modes, config)) / (2.0 * h)
                assert grad[j, m] == pytest.approx(fd, abs=5e-8)


    def test_hessian_matches_gradient_differences(self, unit_ctx):
        config, modes = unit_ctx
        rng = np.random.default_rng(7)
        x = rng.uniform(-2.0, 2.0, size=(3, 3))
        e = (1.0, -0.7, 0.4)
        hess = v1_hessian(x, e, modes, config)
        assert hess.shape == (3, 3, 3, 3)
        assert np.allclose(hess, np.transpose(hess, (2, 3, 0, 1)), rtol=0.0, atol=1e-15)
        h = 1e-6
        for l in range(3):
            for d in range(3):
                up = x.copy()
                up[l, d] += h
                down = x.copy()
                down[l, d] -= h
                fd = (v1_gradient(up, e, modes, config)
                      - v1_gradient(down, e, modes, config)) / (2.0 * h)
                assert np.allclose(hess[:, :, l, d], fd, atol=5e-8)
        # a batch matches single configurations; one particle has no pairs
        xs = rng.uniform(-2.0, 2.0, size=(2, 4, 3, 3))
        batch = v1_hessian(xs, e, modes, config)
        assert batch.shape == (2, 4, 3, 3, 3, 3)
        for idx in np.ndindex(2, 4):
            assert np.allclose(batch[idx], v1_hessian(xs[idx], e, modes, config),
                               rtol=1e-13, atol=1e-16)
        assert not np.any(v1_hessian(x[:1], (1.0,), modes, config))

    def test_batch_matches_single_configurations(self, unit_ctx):
        config, modes = unit_ctx
        xs = np.random.default_rng(6).uniform(-2.0, 2.0, size=(4, 3, 3))
        e = (1.0, -0.7, 0.4)
        energies = potential_V1(xs, e, modes, config)
        grads = v1_gradient(xs, e, modes, config)
        assert energies.shape == (4,) and grads.shape == xs.shape
        for x, energy, grad in zip(xs, energies, grads):
            assert energy == pytest.approx(potential_V1(x, e, modes, config), rel=1e-13)
            assert np.allclose(grad, v1_gradient(x, e, modes, config), rtol=1e-13, atol=0.0)


class TestLatticeSummand:
    def test_valid_summand_passes(self):
        inverse_quartic_summand().validate()
        bump_summand().validate()

    def test_majorant_violation(self):
        bad = LatticeSummand(
            phi_fn=lambda K: 1.0 / (1.0 + np.einsum("...i,...i->...", K, K)),
            bound_fn=lambda r: 0.5 / (1.0 + r * r),
            name="undersized-bound",
        )
        with pytest.raises(InvariantViolation):
            bad.validate()

    def test_divergent_majorant_rejected(self):
        # r^2 / max(r^2, 1) is not integrable; quad returns -1.0 for it and
        # says the integral is probably divergent
        bad = LatticeSummand(
            phi_fn=lambda K: np.zeros(np.asarray(K).shape[:-1]),
            bound_fn=lambda r: 1.0 / max(r * r, 1.0),
            name="flat-bound",
        )
        with pytest.raises(InvariantViolation, match="flat-bound"):
            bad.validate()
        with pytest.raises(InvariantViolation, match="tail"):
            coulomb._tail_integral(bad.bound_fn, np.full(3, 10.0), 5.0)

    @pytest.mark.parametrize("summand, box, radius, expected", [
        (inverse_quartic_summand(), (15.0, 15.0, 15.0), 10.0, 1.403),
        # the (16, 4, 4) riemann row: a tail near 5.064e-47, far below the
        # driver's 1e-30 scale floor
        (screened_inverse_square_summand(), (16.0, 4.0, 4.0), 4.0 * math.pi,
         5.064e-47),
    ], ids=["inverse-quartic", "screened-gaussian"])
    def test_tail_bound_lies_just_above_the_quad_oracle(
            self, summand, box, radius, expected):
        box = np.array(box)
        diag = coulomb._cell_diagonal(box)
        value, _ = integrate.quad(
            lambda v: (v + 0.5 * diag) ** 2 * summand.bound_fn(v),
            radius - diag, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)
        oracle = 4.0 * math.pi * value
        assert oracle == pytest.approx(expected, rel=1e-3)
        bound = coulomb._tail_integral(summand.bound_fn, box, radius)
        assert oracle <= bound <= oracle * (1.0 + 1e-8)

    def test_increasing_bound_rejected(self):
        bad = LatticeSummand(
            phi_fn=lambda K: np.zeros(np.asarray(K).shape[:-1]),
            bound_fn=lambda r: r,
            name="growing-bound",
        )
        with pytest.raises(InvariantViolation):
            bad.validate()


class TestRiemannSum:
    def test_inverse_quartic_near_integral(self):
        result = riemann_sum(inverse_quartic_summand(), 60.0)
        target = 2.0 * math.pi ** 2
        assert result.tail_bound <= 2e-3 * abs(result.value)
        assert abs(result.value - target) / target <= 0.05

    def test_error_shrinks_with_box(self):
        target = 2.0 * math.pi ** 2
        errors = [
            abs(riemann_sum(inverse_quartic_summand(), L).value - target)
            for L in (15.0, 30.0, 60.0)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_radial_and_slab_paths_agree(self):
        summand = gaussian_summand()
        fast = riemann_sum(summand, 15.0)
        slow = riemann_sum(dataclasses.replace(summand, radial_fn=None), 15.0)
        assert fast.value == pytest.approx(slow.value, rel=1e-10)

    def test_bump_standard_convergence(self):
        summand = bump_summand()
        target, _ = integrate.quad(
            lambda r: 4.0 * math.pi * r * r * float(summand.radial_fn(r)), 0.0, 2.0
        )
        values = {L: riemann_sum(summand, L).value for L in (10.0, 20.0, 40.0)}
        assert abs(values[40.0] - target) / target <= 0.02
        assert abs(values[40.0] - values[20.0]) < abs(values[20.0] - values[10.0])

    def test_shuffled_enumeration_identical(self):
        summand = gaussian_summand()
        plain = riemann_sum(dataclasses.replace(summand, radial_fn=None), 12.0)
        contributions, _ = coulomb._slab_contributions(
            np.full(3, 12.0), plain.radius, summand.phi_fn)
        shuffled = np.random.default_rng(12345).permutation(contributions)
        assert coulomb._deterministic_sum(shuffled) \
            == coulomb._deterministic_sum(contributions)
        assert TWO_PI ** 3 / 12.0 ** 3 * coulomb._deterministic_sum(contributions) \
            == plain.value

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(coulomb, "_POINT_BUDGET", 1000)
        with pytest.raises(BudgetError):
            riemann_sum(dataclasses.replace(inverse_quartic_summand(), radial_fn=None),
                        60.0)

    def test_anisotropic_excess_persists(self):
        # Boxes L = (l^2, l, l) violate the smallness condition
        # L1/(L2 L3) -> 0; the lattice sum then overshoots the integral by at
        # least the single-site term at k = (2 pi / L1, 0, 0), uniformly in l.
        summand = screened_inverse_square_summand()
        integral = 2.0 * math.pi ** 1.5
        excesses = []
        for ell in (4, 8, 16):
            box = (float(ell * ell), float(ell), float(ell))
            result = riemann_sum(summand, box)
            excesses.append(result.value - integral)
            cellvol = TWO_PI ** 3 / (box[0] * box[1] * box[2])
            k1 = TWO_PI / box[0]
            site_bound = cellvol * math.exp(-k1 * k1) / (k1 * k1)
            assert site_bound >= 5.0
            if ell >= 8:
                # The coarse transverse lattice at small l still cancels part
                # of the excess; past that the single-site bound holds.
                assert result.value - integral >= site_bound
        assert excesses[0] > 0 and excesses[0] < excesses[1] < excesses[2]


class TestThreeSquaresTable:
    def test_matches_brute_force_cube(self):
        # every representation of n <= 1600 has |s_i| <= 40
        s = np.arange(-40, 41)
        norms = (s[:, None, None] ** 2 + s[None, :, None] ** 2
                 + s[None, None, :] ** 2).ravel()
        brute = np.bincount(norms)[:1601].astype(float)
        table = coulomb._three_squares_counts(1600)
        assert table.dtype == brute.dtype
        assert table.tobytes() == brute.tobytes()

    def test_matches_two_convolution_route_exactly(self):
        n_max = 262144
        table = coulomb._three_squares_counts(n_max)
        old = fftconvolve_three_squares_counts(n_max)
        assert table.dtype == old.dtype
        assert np.array_equal(table, old)
        # rint keeps the sign of a tiny negative, so the oracle may put -0.0
        # at an empty shell where the table has 0.0; every other bit agrees
        differ = table.view(np.int64) != old.view(np.int64)
        assert np.all(table[differ] == 0.0)

    def test_quarter_shells_and_legendre_zeros(self):
        n_max = 2 ** 20
        table = coulomb._three_squares_counts(n_max)
        assert np.array_equal(table[0::4], table[: n_max // 4 + 1])
        # r3(n) = 0 exactly at n = 4^a (8b + 7) (Legendre)
        core = np.arange(n_max + 1)
        while True:
            quartered = (core > 0) & (core % 4 == 0)
            if not np.any(quartered):
                break
            core[quartered] //= 4
        assert np.array_equal(table == 0.0, core % 8 == 7)
        assert np.all(table >= 0.0)

    @pytest.mark.parametrize("kept", [0, 65536])
    @pytest.mark.parametrize("n_max", [*range(9), 1601, 4097])
    def test_split_matches_oracles_at_any_end(self, monkeypatch, kept, n_max):
        monkeypatch.setattr(coulomb, "_R3_TABLE", np.zeros(0))
        if kept:
            coulomb._three_squares_counts(kept)
        table = coulomb._three_squares_counts(n_max)
        assert len(coulomb._R3_TABLE) == max(kept, n_max) + 1
        assert np.array_equal(table, fftconvolve_three_squares_counts(n_max))
        assert np.array_equal(table, single_cube_three_squares_counts(n_max))

    def test_transforms_stay_at_quarter_length(self, monkeypatch):
        n_max = 65536
        lengths = []
        rfft = np.fft.rfft

        def recording(x, n=None, *args, **kwargs):
            lengths.append(len(x) if n is None else n)
            return rfft(x, n, *args, **kwargs)

        monkeypatch.setattr(coulomb, "_R3_TABLE", np.zeros(0))
        monkeypatch.setattr(np.fft, "rfft", recording)
        table = coulomb._three_squares_counts(n_max)
        assert lengths
        assert max(lengths) <= coulomb._fast_len(3 * ((n_max - 1) // 4) + 1)
        assert np.array_equal(table, single_cube_three_squares_counts(n_max))

    def test_fast_len_matches_scipy(self):
        for n in [*range(1, 5001), 3 * (2 ** 22 - 1) + 1]:
            assert coulomb._fast_len(n) == fft.next_fast_len(n, real=True), n

    def test_drift_in_the_helper_thread_reaches_the_caller(self, monkeypatch):
        n_max = 262144
        monkeypatch.setattr(coulomb, "_R3_TABLE", np.zeros(0))
        kept = coulomb._three_squares_counts(n_max // 4)
        before = coulomb._R3_TABLE
        eighth = coulomb._fast_len(3 * ((n_max - 3) // 8) + 1)
        irfft = np.fft.irfft

        def drifting(a, n=None, *args, **kwargs):
            out = irfft(a, n, *args, **kwargs)
            return out + 0.3 if n == eighth else out

        monkeypatch.setattr(np.fft, "irfft", drifting)
        with pytest.raises(InvariantViolation):
            coulomb._three_squares_counts(n_max)
        assert coulomb._R3_TABLE is before
        assert np.array_equal(coulomb._R3_TABLE, kept)
        monkeypatch.setattr(np.fft, "irfft", irfft)
        table = coulomb._three_squares_counts(n_max)
        assert np.array_equal(table, single_cube_three_squares_counts(n_max))

    def test_prefix_of_cached_table_equals_fresh_build(self, monkeypatch):
        coulomb._three_squares_counts(65536)
        prefix = coulomb._three_squares_counts(5000)
        assert np.shares_memory(prefix, coulomb._R3_TABLE)
        monkeypatch.setattr(coulomb, "_R3_TABLE", np.zeros(0))
        fresh = coulomb._three_squares_counts(5000)
        assert len(coulomb._R3_TABLE) == 5001
        assert np.array_equal(prefix, fresh)

    def test_table_is_read_only(self):
        table = coulomb._three_squares_counts(100)
        with pytest.raises(ValueError):
            table[3] = 0.0

    def test_rounding_guard_rejects_drift(self):
        values = np.array([1.0, 6.0 + 1e-9, 12.0 - 2e-4, 8.0])
        assert np.array_equal(coulomb._round_to_integers(values),
                              [1.0, 6.0, 12.0, 8.0])
        assert np.signbit(coulomb._round_to_integers(np.array([-1e-9]))) == [False]
        values[2] += 0.3
        with pytest.raises(InvariantViolation):
            coulomb._round_to_integers(values)
        with pytest.raises(InvariantViolation):
            coulomb._round_to_integers(np.array([1.0, np.nan]))

    def test_riemann_value_unchanged_from_convolution_route(self):
        # Recorded with the two-fftconvolve table and all-shell evaluation.
        value = riemann_sum(inverse_quartic_summand(), 30.0).value
        assert repr(value) == "17.852232104465006"

    def test_shell_blocks_do_not_change_a_bit(self, monkeypatch):
        summand = inverse_quartic_summand()
        default = {L: riemann_sum(summand, L) for L in (15.0, 30.0)}
        # 4096 splits the larger doublings evenly; 2^20 - 1 leaves a ragged
        # last block
        for block in (4096, 2 ** 20 - 1):
            monkeypatch.setattr(coulomb, "_SHELL_BLOCK", block)
            for L, expected in default.items():
                result = riemann_sum(summand, L)
                assert result.value.hex() == expected.value.hex()
                assert result.n_points == expected.n_points
                assert result.tail_bound.hex() == expected.tail_bound.hex()

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize(
        "make", [inverse_quartic_summand, screened_inverse_square_summand])
    def test_tiny_shell_blocks_give_the_same_contributions(
            self, monkeypatch, make, block):
        # riemann_sum at these block sizes would take about a minute, so the
        # shell sum is checked on a 2^16-shell table directly
        counts = coulomb._three_squares_counts(2 ** 16)
        radial_fn = make().radial_fn
        expected, points = coulomb._shell_contributions(counts, 0.2, radial_fn)
        monkeypatch.setattr(coulomb, "_SHELL_BLOCK", block)
        contributions, n_points = coulomb._shell_contributions(
            counts, 0.2, radial_fn)
        assert contributions.tobytes() == expected.tobytes()
        assert n_points == points

    def test_import_leaves_scipy_signal_unloaded(self):
        heavy = ("scipy.signal", "scipy.integrate", "scipy.optimize", "scipy.fft")
        src = str(Path(coulomb.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part)
        for module in ("boxqed", "boxqed.cli"):
            code = (f"import sys, {module}; "
                    f"print([m for m in {heavy!r} if m in sys.modules])")
            out = subprocess.run([sys.executable, "-c", code], check=True,
                                 env=env, capture_output=True, text=True)
            assert out.stdout.strip() == "[]", module


class TestEwaldOracle:
    """The truncated lattice sums against exact Ewald/Poisson values."""

    SUMMANDS = {
        "gaussian": (gaussian_summand, (15.0, 30.0, 60.0)),
        "inverse-quartic": (inverse_quartic_summand, (15.0, 30.0, 60.0)),
        "screened-inverse-square": (
            screened_inverse_square_summand,
            tuple((float(l * l), float(l), float(l)) for l in (4, 8, 16)),
        ),
    }
    CASES = [(name, box) for name, (_, boxes) in SUMMANDS.items() for box in boxes]

    @pytest.mark.parametrize("name, box", CASES)
    def test_split_widths_agree(self, name, box):
        wide = ewald_lattice_sum(name, box, width=1.5)
        assert ewald_lattice_sum(name, box, width=1.0) \
            == pytest.approx(wide, rel=1e-12, abs=0.0)

    def test_gaussian_is_pure_poisson(self):
        cellvol = (TWO_PI / 15.0) ** 3
        assert ewald_lattice_sum("gaussian", 15.0) \
            == pytest.approx(math.pi ** 1.5 - cellvol, rel=1e-15)

    @pytest.mark.parametrize("name, box", CASES)
    def test_truncation_sits_inside_its_certificate(self, name, box):
        make, _ = self.SUMMANDS[name]
        result = riemann_sum(make(), box)
        exact = ewald_lattice_sum(name, box)
        # the summands are positive, so the truncated sum undershoots; the
        # slack covers rounding where the tail is below one ulp
        slack = 1e-14 * exact
        assert -slack <= exact - result.value <= result.tail_bound + slack

    def test_cube_sum_has_a_one_over_l_error(self):
        # L (S(L) - 2 pi^2) -> 2 pi Z(2), with Z(2) = -8.9136329... the
        # simple-cubic lattice zeta sum of 1/|n|^2, continued
        limit = 2.0 * math.pi * -8.91363291758
        gaps = [abs(L * (ewald_lattice_sum("inverse-quartic", L)
                         - 2.0 * math.pi ** 2) - limit)
                for L in (15.0, 30.0, 60.0)]
        assert gaps[0] > 3.0 * gaps[1] > 9.0 * gaps[2]
        assert gaps[2] < 0.1


class TestMollifiedCoulomb:
    def unit_pair(self, dist=1.0):
        return np.array([[0.0, 0.0, 0.0], [0.0, 0.0, dist]])

    def test_plain_value_carries_box_offset(self):
        value = mollified_coulomb(self.unit_pair(), (1.0, 1.0), 40.0, eps=0.25)
        # The finite box depresses the sum by an O(1/L) offset; the value
        # itself sits several percent under the screened target.
        assert value == pytest.approx(0.9244, abs=3e-3)

    def test_richardson_limit_matches_screened_oracle(self):
        coarse = mollified_coulomb(self.unit_pair(), (1.0, 1.0), 20.0, eps=0.25)
        fine = mollified_coulomb(self.unit_pair(), (1.0, 1.0), 40.0, eps=0.25)
        estimate = richardson_limit(fine, coarse)
        target = screened_coulomb_total(self.unit_pair(), (1.0, 1.0), 0.25)
        assert target == pytest.approx(erf(2.0), rel=1e-12)
        assert abs(estimate - target) / target <= 0.01

    def test_joint_limit_toward_bare_coulomb(self):
        values = [
            mollified_coulomb(self.unit_pair(), (1.0, 1.0), L, eps=eps)
            for eps, L in ((1.0, 20.0), (0.5, 30.0), (0.25, 40.0))
        ]
        assert values[0] < values[1] < values[2]
        coarse = mollified_coulomb(self.unit_pair(), (1.0, 1.0), 20.0, eps=0.25)
        estimate = richardson_limit(values[2], coarse)
        assert abs(estimate - 1.0) <= 0.01

    def test_opposite_charges_at_double_distance(self):
        pair = self.unit_pair(dist=2.0)
        coarse = mollified_coulomb(pair, (1.0, -1.0), 20.0, eps=0.25)
        fine = mollified_coulomb(pair, (1.0, -1.0), 40.0, eps=0.25)
        estimate = richardson_limit(fine, coarse)
        assert abs(estimate - (-0.5)) <= 0.005

    def test_wide_mollifier_against_oracle(self):
        coarse = mollified_coulomb(self.unit_pair(), (1.0, 1.0), 20.0, eps=1.0)
        fine = mollified_coulomb(self.unit_pair(), (1.0, 1.0), 40.0, eps=1.0)
        estimate = richardson_limit(fine, coarse)
        target = screened_coulomb_total(self.unit_pair(), (1.0, 1.0), 1.0)
        assert abs(estimate - target) / target <= 0.01

    def test_cauchy_convergence_in_box(self):
        vals = {
            L: mollified_coulomb(self.unit_pair(), (1.0, 1.0), L, eps=0.5)
            for L in (10.0, 20.0, 40.0)
        }
        assert abs(vals[40.0] - vals[20.0]) < abs(vals[20.0] - vals[10.0])

    def test_input_validation(self):
        coincident = np.zeros((2, 3))
        with pytest.raises(ConfigError):
            mollified_coulomb(coincident, (1.0, 1.0), 20.0, eps=0.5)
        with pytest.raises(ConfigError):
            mollified_coulomb(self.unit_pair(), (1.0, 1.0), 20.0, eps=-1.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ConfigError, match="eps"):
            mollified_coulomb(self.unit_pair(), (1.0, 1.0), 20.0, eps=eps)

    @pytest.mark.parametrize("L", [math.nan, math.inf, (20.0, math.nan, 20.0),
                                   (20.0, 20.0, -math.inf)])
    def test_non_finite_box_rejected(self, L):
        with pytest.raises(ConfigError, match="box lengths"):
            mollified_coulomb(self.unit_pair(), (1.0, 1.0), L, eps=0.5)
        with pytest.raises(ConfigError, match="box lengths"):
            riemann_sum(gaussian_summand(), L)

    def test_non_finite_positions_and_charges_rejected(self):
        pair = self.unit_pair()
        pair[1, 0] = math.nan
        with pytest.raises(ConfigError, match="finite"):
            mollified_coulomb(pair, (1.0, 1.0), 20.0, eps=0.5)
        with pytest.raises(ConfigError, match="finite"):
            mollified_coulomb(self.unit_pair(), (1.0, math.inf), 20.0, eps=0.5)

    def test_budget_raises_before_enumerating(self, monkeypatch):
        monkeypatch.setattr(coulomb, "_POINT_BUDGET", 100)
        with pytest.raises(BudgetError, match="budget is 100"):
            mollified_coulomb(self.unit_pair(), (1.0, 1.0), 20.0, eps=0.5)


def _gaussian_slab(positions, charges, L, eps):
    """The Gaussian-cut sum by the enumerated oracle."""
    summand = gaussian_summand()
    return enumerated_mollified_coulomb(positions, charges, L, eps,
                                        summand.phi_fn, summand.bound_fn)


def _pairs(positions, charges):
    x, e = np.asarray(positions, dtype=float), np.asarray(charges, dtype=float)
    j, l = np.triu_indices(len(e), k=1)
    return x[j] - x[l], 2.0 * e[j] * e[l]


@st.composite
def charge_clouds(draw):
    """2-4 charges anywhere within two box lengths of the origin, in an
    anisotropic box with edges in [2, 20], and eps in [0.5, 2]."""
    n = draw(st.integers(2, 4))
    box = np.array([draw(st.floats(2.0, 20.0)) for _ in range(3)])
    frac = np.array([[draw(st.floats(-2.0, 2.0)) for _ in range(3)]
                     for _ in range(n)])
    charges = [draw(st.floats(-2.0, 2.0)) for _ in range(n)]
    eps = draw(st.floats(0.5, 2.0))
    positions = frac * box
    D, _ = _pairs(positions, charges)
    assume(np.all(np.linalg.norm(D, axis=1) > 0.0))
    return positions, charges, box, eps


class TestGaussianSplit:
    """The Gaussian-cut sum by the Ewald split, against the enumerated
    oracle (the slab route)."""

    @staticmethod
    def scale(value, charges):
        # relative, but absolute once the charges nearly cancel, and never
        # below the 1e-12 floor of the certificates' max(|value|, 1e-12)
        _, w = _pairs(np.zeros((len(charges), 3)), charges)
        return max(abs(value), 1e-2 * float(np.sum(np.abs(w))), 1e-12)

    # the CLI grid but for (40, 0.25), whose slab sum alone takes 2 s
    @pytest.mark.parametrize("L,eps", [(20.0, 1.0), (20.0, 0.5), (20.0, 0.25),
                                       (40.0, 1.0), (40.0, 0.5)])
    def test_cli_grid_matches_slab_route(self, L, eps):
        pair = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        split = mollified_coulomb(pair, (1.0, 1.0), L, eps)
        slab = _gaussian_slab(pair, (1.0, 1.0), L, eps)
        assert abs(split - slab) <= 1e-12 * abs(slab)

    @settings(max_examples=60, deadline=None)
    @given(charge_clouds())
    def test_matches_slab_route(self, cloud):
        positions, charges, box, eps = cloud
        split = mollified_coulomb(positions, charges, box, eps)
        slab = _gaussian_slab(positions, charges, box, eps)
        assert abs(split - slab) <= 1e-8 * self.scale(slab, charges)

    @settings(max_examples=60, deadline=None)
    @given(charge_clouds(), st.data())
    def test_lattice_shift_invariance(self, cloud, data):
        positions, charges, box, eps = cloud
        shifts = np.array([[data.draw(st.integers(-2, 2)) for _ in range(3)]
                           for _ in range(len(charges))])
        value = mollified_coulomb(positions, charges, box, eps)
        moved = mollified_coulomb(positions + shifts * box, charges, box, eps)
        assert abs(moved - value) <= 1e-12 * self.scale(value, charges)

    @settings(max_examples=60, deadline=None)
    @given(charge_clouds(), st.floats(1.2, 2.0))
    # a charge near 1e-301 puts the tail majorants among subnormal numbers
    @example((np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]),
              [1.0, 8.091768219640728e-302], np.full(3, 2.0), 1.0), 2.0)
    def test_split_width_drops_out(self, cloud, stretch):
        positions, charges, box, eps = cloud
        D, w = _pairs(positions, charges)
        width = max(float(np.prod(box)) ** (1.0 / 3.0) / (2.0 * math.sqrt(math.pi)),
                    eps)
        values = [coulomb._gaussian_coulomb_split(D, w, box, eps, b, 1e-6)
                  for b in (width, stretch * width)]
        assert abs(values[1] - values[0]) <= 1e-12 * self.scale(values[0],
                                                                 charges)

    def test_real_side_is_empty_at_width_eps(self, monkeypatch):
        boxes = []
        original = coulomb._slab_contributions

        def recording(box, *args, **kwargs):
            boxes.append(np.array(box))
            return original(box, *args, **kwargs)

        pair = np.array([[0.0, 0.0, 0.0], [0.3, 0.2, 1.0]])
        monkeypatch.setattr(coulomb, "_slab_contributions", recording)
        # |V|^(1/3) / (2 sqrt pi) = 0.85 < eps, so the split width is eps
        value = mollified_coulomb(pair, (1.0, -1.0), 3.0, eps=1.0)
        assert len(boxes) == 1 and np.all(boxes[0] == 3.0)
        monkeypatch.undo()
        slab = _gaussian_slab(pair, (1.0, -1.0), 3.0, 1.0)
        assert abs(value - slab) <= 1e-12 * abs(slab)

    def test_real_kernel_limits(self):
        r = np.array([0.0, 1e-12, 1e-6, 0.5, 1.999, 2.001, 30.0])
        eps, width = 1.0, 3.0
        values = coulomb._ewald_real_kernel(r, eps, width)
        origin = 2.0 * math.pi ** 1.5 * (1.0 / eps - 1.0 / width)
        assert values[0] == origin
        assert values[1] == pytest.approx(origin, rel=1e-12)
        assert values[2] == pytest.approx(origin, rel=1e-10)
        for radius, value in zip(r[3:], values[3:]):
            direct, _ = integrate.quad(
                lambda k: 4.0 * math.pi * (math.exp(-(eps * k) ** 2)
                                           - math.exp(-(width * k) ** 2))
                * math.sin(k * radius) / (k * radius), 0.0, 10.0, limit=200)
            assert value == pytest.approx(direct, rel=1e-9, abs=1e-14)


def test_richardson_limit_kills_linear_error():
    f = lambda L: 3.7 - 2.9 / L
    assert richardson_limit(f(80.0), f(40.0)) == pytest.approx(3.7, rel=1e-12)
