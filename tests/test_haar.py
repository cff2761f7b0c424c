import math
import tracemalloc

import numpy as np
import pytest

from ucoset import (
    InvalidCountError,
    InvalidDimError,
    OddDimensionError,
    RngStream,
    TooFewSamplesError,
    UcosetError,
    haar_oracle,
    haar_unitary,
    haar_unitary_batch,
    haar_validate,
    ks_statistic,
    ks_statistic_two_sample,
    sample_ball,
    unitarity_error,
)
from ucoset.haar import _BLOCK_ENTRIES, _reg_gamma

from golden_data import maxdiff


def block_size(dim):
    # Matrices per sampler block at this dim, as the sampler derives it.
    return max(1, _BLOCK_ENTRIES // (dim * dim))


class TestRngStream:
    def test_identical_seeds_identical_streams(self):
        a = RngStream(12345)
        b = RngStream(12345)
        assert np.array_equal(a.normals(64), b.normals(64))
        assert np.array_equal(a.uniforms(64), b.uniforms(64))

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStream(1).normals(16), RngStream(2).normals(16))

    def test_stream_key_separates(self):
        assert not np.array_equal(
            RngStream(1, 0).normals(16), RngStream(1, 1).normals(16)
        )

    def test_substreams_are_disjoint_and_deterministic(self):
        root = RngStream(7)
        a = root.substream(0)
        b = root.substream(1)
        assert not np.array_equal(a.normals(16), b.normals(16))
        assert np.array_equal(
            RngStream(7).substream(0).normals(16), RngStream(7).substream(0).normals(16)
        )

    def test_draw_counter(self):
        rng = RngStream(3)
        rng.normals(5)
        rng.uniforms(2)
        assert rng.draws == 7

    def test_seed_range(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2 ** 64)


class TestSampleBall:
    def test_odd_dimension_rejected(self):
        with pytest.raises(OddDimensionError):
            sample_ball(3, RngStream(0))
        with pytest.raises(OddDimensionError):
            sample_ball(0, RngStream(0))

    def test_stays_inside_ball(self):
        rng = RngStream(11)
        for _ in range(500):
            p = sample_ball(6, rng)
            assert float(p @ p) <= 1.0

    def test_consumes_exactly_dim_normals(self):
        rng = RngStream(12)
        sample_ball(6, rng)
        assert rng.draws == 6

    @pytest.mark.parametrize("dim", [1500, 2046])
    def test_large_dims_have_uniform_radius_power(self, dim):
        # r^dim of a uniform ball point is uniform on (0, 1); a radius
        # fraction that underflows to 1 puts points on the sphere.
        rng = RngStream(3)
        count = 400
        radii = np.array([np.linalg.norm(sample_ball(dim, rng)) for _ in range(count)])
        assert np.all(radii < 1.0)
        assert ks_statistic(radii ** dim, lambda t: t) <= 1.63 / math.sqrt(count)

    @pytest.mark.parametrize("dim, expected", [(2, 0.5), (4, 2.0 / 3.0)])
    def test_mean_radius_squared(self, dim, expected):
        rng = RngStream(13 + dim)
        total = 0.0
        count = 100000
        for _ in range(count):
            p = sample_ball(dim, rng)
            total += float(p @ p)
        assert abs(total / count - expected) <= 0.01


class TestRegGamma:
    @pytest.mark.parametrize("m, t, closed", [
        (1, [0.05, 0.5, 1.0, 1.99, 2.0, 2.01, 3.5, 10.0, 40.0, 800.0],
         lambda t: -np.expm1(-t)),
        (2, [0.05, 0.5, 1.5, 2.99, 3.0, 3.01, 5.0, 20.0, 800.0],
         lambda t: 1.0 - np.exp(-t) * (1.0 + t)),
    ])
    def test_closed_forms_on_both_sides_of_m_plus_1(self, m, t, closed):
        # t < m + 1 takes the ascending series, t >= m + 1 the complement.
        t = np.array(t)
        assert np.any(t < m + 1.0) and np.any(t >= m + 1.0)
        np.testing.assert_allclose(_reg_gamma((m,), t), closed(t), rtol=1e-13, atol=1e-16)

    def test_large_m_past_the_exp_underflow(self):
        # e^-1030 underflows to 0; P(1023, 1030) (to 20 digits from a
        # multiple-precision evaluation) must not come out as 1.
        assert abs(_reg_gamma((1023,), 1030.0)[0] - 0.59047839622575427628) <= 1e-10


class TestHaarUnitary:
    def test_dim_validation(self):
        with pytest.raises(InvalidDimError):
            haar_unitary(0, RngStream(0))

    def test_dim_one_is_a_phase(self):
        u = haar_unitary(1, RngStream(21))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-15

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_output_is_unitary(self, dim):
        rng = RngStream(22)
        for _ in range(5):
            assert unitarity_error(haar_unitary(dim, rng)) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_variate_budget_is_dim_squared(self, dim):
        rng = RngStream(23)
        haar_unitary(dim, rng)
        assert rng.draws == dim * dim

    def test_deterministic(self):
        assert np.array_equal(
            haar_unitary(4, RngStream(24)), haar_unitary(4, RngStream(24))
        )

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_values_replay_the_documented_draw_order(self, dim):
        # Replays the contract with plain numpy from the same Philox key:
        # per level a uniform ball point X, the pivot direction
        # n = gamma e_k + X / (2 gamma), gamma = sqrt((1 + rho) / 2), then
        # U = R(n_1) ... R(n_{N-1}) diag(e^{i phi}).  A negated terminal
        # phase is still uniform, so only the values can show a sign slip.
        seed = 31
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        )
        u = np.eye(dim, dtype=complex)
        for level in range(1, dim):
            size = 2 * (dim - level)
            g = gen.standard_normal(size)
            s = float(g @ g)
            # P(size/2, s/2), the chi-square CDF, as its ascending series.
            m, t = size // 2, 0.5 * s
            j = np.arange(m, m + 400)
            log_terms = j * math.log(t) - t - np.array([math.lgamma(k + 1.0) for k in j])
            cdf = float(np.sum(np.exp(log_terms)))
            point = g * (cdf ** (1.0 / size) / math.sqrt(s))
            x = point[0::2] + 1j * point[1::2]
            rho = math.sqrt(1.0 - float(np.real(np.vdot(x, x))))
            gamma = math.sqrt(0.5 * (1.0 + rho))
            n = np.zeros(dim, dtype=complex)
            n[level - 1] = gamma
            n[level:] = x / (2.0 * gamma)
            u = u @ (np.eye(dim) - 2.0 * np.outer(n, n.conj()))
        phi = math.pi * (1.0 - 2.0 * gen.random(dim))
        expected = u * np.exp(1j * phi)

        rng = RngStream(seed)
        assert maxdiff(haar_unitary(dim, rng), expected) <= 1e-13
        assert rng.draws == dim * dim


class TestHaarUnitaryBatch:
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_equals_successive_single_draws(self, dim):
        for count in (1, 3, block_size(dim) + 1):
            a = RngStream(51, dim)
            b = RngStream(51, dim)
            batch = haar_unitary_batch(dim, count, a)
            singles = np.array([haar_unitary(dim, b) for _ in range(count)])
            assert batch.shape == (count, dim, dim)
            assert maxdiff(batch, singles) <= 1e-13
            assert a.draws == b.draws == count * dim * dim

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_is_a_typed_error(self, count):
        with pytest.raises(InvalidCountError) as info:
            haar_unitary_batch(3, count, RngStream(52))
        assert isinstance(info.value, UcosetError)


class TestHaarOracle:
    def test_output_is_unitary(self):
        rng = RngStream(31)
        for dim in (1, 2, 5):
            assert unitarity_error(haar_oracle(dim, rng)) <= 1e-12

    def test_variate_budget(self):
        rng = RngStream(32)
        haar_oracle(3, rng)
        assert rng.draws == 18

    def test_mean_moduli_flat(self):
        rng = RngStream(33)
        count = 3000
        total = np.zeros((3, 3))
        for _ in range(count):
            u = haar_oracle(3, rng)
            total += np.abs(u) ** 2
        assert maxdiff(total / count, np.full((3, 3), 1.0 / 3.0)) <= 0.02


class TestKsStatistics:
    def test_one_sample_near_zero_on_matching_grid(self):
        samples = np.linspace(0.0005, 0.9995, 1000)
        assert ks_statistic(samples, lambda t: t) <= 0.002

    def test_one_sample_detects_mismatch(self):
        samples = np.linspace(0.0, 0.5, 1000)
        assert ks_statistic(samples, lambda t: t) >= 0.4

    def test_one_sample_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), lambda t: t)

    def test_two_sample_identical_is_small(self):
        a = np.linspace(0.0, 1.0, 500)
        assert ks_statistic_two_sample(a, a) <= 1.0 / 500.0 + 1e-12

    def test_two_sample_disjoint_is_one(self):
        a = np.linspace(0.0, 1.0, 100)
        b = np.linspace(5.0, 6.0, 100)
        assert ks_statistic_two_sample(a, b) == 1.0


class TestHaarValidate:
    def test_dim_validation(self):
        with pytest.raises(InvalidDimError):
            haar_validate(1, 1000, RngStream(0))

    def test_sample_floor(self):
        with pytest.raises(TooFewSamplesError):
            haar_validate(2, 999, RngStream(0))

    def test_reduced_scale_statistics(self):
        report = haar_validate(2, 3000, RngStream(41))
        assert report.dim == 2
        assert report.sample_count == 3000
        # Loose bounds; the full-scale thresholds run in the acceptance
        # suite.
        assert report.ks_statistic <= 0.05
        assert maxdiff(report.mean_moduli, np.full((2, 2), 0.5)) <= 0.05

    def test_deterministic_reports(self):
        a = haar_validate(3, 1000, RngStream(42))
        b = haar_validate(3, 1000, RngStream(42))
        assert a.ks_statistic == b.ks_statistic
        assert np.array_equal(a.mean_moduli, b.mean_moduli)

    @pytest.mark.parametrize("dim", [3, 8])
    def test_blocks_match_single_draws(self, dim):
        block = block_size(dim)
        past_boundary = (1000 // block + 1) * block + 1
        for samples in (1000, past_boundary, 3200):
            rng = RngStream(44, dim)
            report = haar_validate(dim, samples, rng)
            assert rng.draws == samples * dim * dim
            single = RngStream(44, dim)
            p = np.abs(np.array([haar_unitary(dim, single) for _ in range(samples)])) ** 2
            ks = ks_statistic(p[:, 0, 0], lambda t: 1.0 - (1.0 - t) ** (dim - 1))
            assert abs(report.ks_statistic - ks) <= 1e-12
            assert maxdiff(report.mean_moduli, p.mean(axis=0)) <= 1e-12

    def test_memory_stays_below_the_stacked_samples(self):
        # Stacking all 50000 3x3 samples would take 50000 * 9 * 16 bytes
        # (6.9 MiB); drawing in blocks keeps the peak below that.
        dim, samples = 3, 50000
        tracemalloc.start()
        try:
            haar_validate(dim, samples, RngStream(45))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= samples * dim * dim * 16

    def test_left_invariance_proxy(self):
        # |(V U)_11|^2 for fixed V and sampled U follows the same marginal
        # law as |U_11|^2.
        v = haar_oracle(2, RngStream(99))
        rng = RngStream(43)
        count = 20000
        corners = np.empty(count)
        for k in range(count):
            corners[k] = abs((v @ haar_unitary(2, rng))[0, 0]) ** 2
        assert ks_statistic(corners, lambda t: t) <= 2.0 * 1.63 / np.sqrt(count)
