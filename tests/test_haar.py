import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from ucoset import (
    DomainError,
    InvalidCountError,
    InvalidDimError,
    OddDimensionError,
    RngStream,
    TooFewSamplesError,
    UcosetError,
    cosets_from_householder,
    decompose,
    haar_oracle,
    haar_unitary,
    haar_unitary_batch,
    haar_validate,
    ks_statistic,
    ks_statistic_two_sample,
    sample_ball,
    unitarity_error,
)
from ucoset import haar
from ucoset.haar import _BLOCK_ENTRIES, _ROW_SCAN, _WY_WIDTH, SampleReport, _reg_gamma, _switch
from ucoset.householder import FORWARD, _pivots, _product

from golden_data import maxdiff


# P(m, t) to 40 significant digits, computed offline with mpmath 1.3.0
# (gammainc(m, 0, t, regularized=True) at 50 digits), at the doubles t of
# m / 2, m -+ sqrt(m), m + 1/2, m + 1, m + 2 sqrt(m) and 2 m + 10 (at m = 1,
# m - sqrt(m) = 0 is left out and m + sqrt(m) is m + 1).
REG_GAMMA_REFERENCE = {
    1: [
        (0.5, "3.934693402873665763962004650088195465581e-1"),
        (2.0, "8.646647167633873081060005050275155965924e-1"),
        (1.5, "7.768698398515701710667195292359874786578e-1"),
        (3.0, "9.502129316321360570206575843499382233683e-1"),
        (12.0, "9.999938557876466717902413176918211944677e-1"),
    ],
    2: [
        (1.0, "2.642411176571153568089524596770782651084e-1"),
        (0.5857864376269049, "1.172435859322178301513139990425961667548e-1"),
        (3.414213562373095, "8.547623442005432365931030632431225135444e-1"),
        (2.5, "7.127025048163542169066496393649406725677e-1"),
        (3.0, "8.008517265285442280826303373997528934732e-1"),
        (4.82842712474619, "9.533778696659326972070041789199613544163e-1"),
        (14.0, "9.999875270692134464817390402228615210656e-1"),
    ],
    7: [
        (3.5, "6.528809702895368672565968433422342707038e-2"),
        (4.354248688935409, "1.507412858691388124016886921054969816464e-1"),
        (9.64575131106459, "8.458929149321999315189768500805850728783e-1"),
        (7.5, "6.21845305676530684859745878923173384232e-1"),
        (8.0, "6.866257224636024406992281182122210073606e-1"),
        (12.291502622129181, "9.610857279564952017842926981096023528367e-1"),
        (24.0, "9.999868543397439476541821544363907004186e-1"),
    ],
    8: [
        (4.0, "5.113361579284733900576384394278148680574e-2"),
        (5.17157287525381, "1.518953535824623455714575700906792154398e-1"),
        (10.82842712474619, "8.453791634978835832485826994108552161805e-1"),
        (8.5, "6.144028981728473896508120616853218339205e-1"),
        (9.0, "6.761030356871039500866990856774792927277e-1"),
        (13.65685424949238, "9.618747150595864697763941977210330537415e-1"),
        (26.0, "9.999890460656822912569268597442943216219e-1"),
    ],
    63: [
        (31.5, "5.065042832975217883044322808030562513521e-7"),
        (55.06274606680623, "1.579518438748847902664628843353253286301e-1"),
        (70.93725393319377, "8.419324205787932123091972887903048544806e-1"),
        (63.5, "5.417377110305951781174634765526650401976e-1"),
        (64.0, "5.664268833250184551008217649611520357724e-1"),
        (78.87450786638755, "9.709050672992692573521828428970732082599e-1"),
        (136.0, "9.999999999990513521747621112460721652638e-1"),
    ],
    750: [
        (375.0, "3.557522467319611313032100393966888969294e-65"),
        (722.6138721247416, "1.586000475132766146352127169141502812734e-1"),
        (777.3861278752584, "8.413971579261097119165312951079760678616e-1"),
        (750.5, "5.121358228353322595514826029211637439684e-1"),
        (751.0, "5.194085679441168672820542112277038463121e-1"),
        (804.7722557505166, "9.753152919978908563747785785362163566709e-1"),
        (1510.0, "1.0"),
    ],
    1023: [
        (511.5, "3.837650976963932907339522432221972387755e-88"),
        (991.015628816561, "1.586149348789757363673577098194227357596e-1"),
        (1054.984371183439, "8.413833112209086031071786464262440625033e-1"),
        (1023.5, "5.103919356592728745333437559071387425474e-1"),
        (1024.0, "5.166216029920398951534411085890435733408e-1"),
        (1086.968742366878, "9.755887885599270931190748556579468256422e-1"),
        (2056.0, "1.0"),
    ],
    2047: [
        (1023.5, "3.450973966065579868314881467679828467685e-174"),
        (2001.7562158965454, "1.586352378667409748863708883383295083793e-1"),
        (2092.2437841034543, "8.413641426610379667340719488361384023934e-1"),
        (2047.5, "5.073472131463004628188736578447027950903e-1"),
        (2048.0, "5.117535989249372717849841688314121073894e-1"),
        (2137.487568206909, "9.760699294891921467131125058473853830098e-1"),
        (4104.0, "1.0"),
    ],
}


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

    @pytest.mark.parametrize("index", [-1, -5, 2.7, 1.0, True, np.float64(2)])
    def test_substream_rejects_a_negative_or_non_integer_index(self, index):
        # Index -1 would key the parent stream itself, and 2.7 stream 8.
        with pytest.raises(DomainError):
            RngStream(7, 5).substream(index)

    def test_substream_takes_numpy_integers(self):
        a = RngStream(7, 5).substream(np.int64(2)).normals(8)
        assert np.array_equal(a, RngStream(7, 8).normals(8))

    def test_draw_counter(self):
        rng = RngStream(3)
        rng.normals(5)
        rng.uniforms(2)
        assert rng.draws == 7

    @pytest.mark.parametrize("method", ["normals", "uniforms"])
    @pytest.mark.parametrize("count", [-1, 2.5, True, math.nan, math.inf, 10 ** 20])
    def test_count_must_be_a_non_negative_integer(self, method, count):
        # Truncated, 2.5 would deliver 2 variates and True 1; -1 would move
        # ``draws`` back before numpy raised, NaN raise an untyped error, and
        # 10**20, past numpy's index range, both.
        rng = RngStream(3)
        rng.normals(2)
        with pytest.raises(DomainError):
            getattr(rng, method)(count)
        assert rng.draws == 2

    @pytest.mark.parametrize("method", ["normals", "uniforms"])
    @pytest.mark.parametrize("count", [np.int32(3), 0])
    def test_count_takes_numpy_integers_and_zero(self, method, count):
        rng = RngStream(3)
        assert getattr(rng, method)(count).shape == (count,)
        assert rng.draws == count

    def test_seed_range(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2 ** 64)


# Entry points that take a count or a dimension, with a value that is not an
# integer (or is out of range), and the typed error each raises for it.
NOT_AN_INTEGER = [
    pytest.param(lambda v: RngStream(v), DomainError, 1.5, id="seed-float"),
    pytest.param(lambda v: RngStream(1, v), DomainError, True, id="stream-bool"),
    pytest.param(lambda v: sample_ball(v, RngStream(0)), OddDimensionError, 4.9, id="ball-float"),
    pytest.param(lambda v: sample_ball(v, RngStream(0)), OddDimensionError, math.nan, id="ball-nan"),
    pytest.param(lambda v: sample_ball(v, RngStream(0)), OddDimensionError, True, id="ball-bool"),
    pytest.param(lambda v: haar_unitary(v, RngStream(0)), InvalidDimError, 3.7, id="haar-float"),
    pytest.param(lambda v: haar_unitary(v, RngStream(0)), InvalidDimError, True, id="haar-bool"),
    pytest.param(lambda v: haar_unitary(v, RngStream(0)), InvalidDimError, math.nan, id="haar-nan"),
    pytest.param(lambda v: haar_unitary_batch(2, v, RngStream(0)), InvalidCountError, 2.9,
                 id="batch-count-float"),
    pytest.param(lambda v: haar_unitary_batch(2, v, RngStream(0)), InvalidCountError, math.inf,
                 id="batch-count-inf"),
    pytest.param(lambda v: haar_unitary_batch(v, 2, RngStream(0)), InvalidDimError, np.float64(3),
                 id="batch-dim-np.float64"),
    pytest.param(lambda v: haar_oracle(v, RngStream(0)), InvalidDimError, 2.5, id="oracle-float"),
    pytest.param(lambda v: haar_validate(v, 1000, RngStream(0)), InvalidDimError, 3.0,
                 id="validate-dim-float"),
    pytest.param(lambda v: haar_validate(3, v, RngStream(0)), TooFewSamplesError, 1000.0,
                 id="validate-samples-float"),
    pytest.param(lambda v: haar_validate(3, v, RngStream(0)), TooFewSamplesError, math.inf,
                 id="validate-samples-inf"),
    # Sizes whose arrays would be past numpy's index range, where numpy
    # raises a bare ValueError.
    pytest.param(lambda v: sample_ball(v, RngStream(0)), OddDimensionError, 2 * 10 ** 20,
                 id="ball-past-index-range"),
    pytest.param(lambda v: haar_unitary(v, RngStream(0)), InvalidDimError, 10 ** 20,
                 id="haar-past-index-range"),
    pytest.param(lambda v: haar_unitary_batch(3, v, RngStream(0)), InvalidCountError, 10 ** 20,
                 id="batch-count-past-index-range"),
    pytest.param(lambda v: haar_oracle(v, RngStream(0)), InvalidDimError, 10 ** 20,
                 id="oracle-past-index-range"),
    pytest.param(lambda v: haar_validate(v, 1000, RngStream(0)), InvalidDimError, 10 ** 20,
                 id="validate-dim-past-index-range"),
    pytest.param(lambda v: haar_validate(3, v, RngStream(0)), TooFewSamplesError, 10 ** 20,
                 id="validate-samples-past-index-range"),
]


@pytest.mark.parametrize("call, error, value", NOT_AN_INTEGER)
def test_counts_and_dims_must_be_integers(call, error, value):
    # Truncated, a float would pass (haar_unitary(3.7) a 3 x 3, RngStream(1.5)
    # seed 1), and NaN or inf would raise an untyped error.
    with pytest.raises(error) as info:
        call(value)
    assert isinstance(info.value, UcosetError)


@pytest.mark.parametrize("draw", [
    lambda rng: sample_ball(2 * 10 ** 20, rng),
    lambda rng: haar_oracle(10 ** 20, rng),
    lambda rng: haar_unitary(10 ** 20, rng),
    lambda rng: haar_unitary_batch(3, 10 ** 20, rng),
], ids=["ball", "oracle", "haar", "batch-count"])
def test_a_size_past_the_index_range_draws_nothing(draw):
    rng = RngStream(0)
    rng.normals(2)
    with pytest.raises(UcosetError):
        draw(rng)
    assert rng.draws == 2


@pytest.mark.parametrize("draw, error", [
    (lambda rng: next(haar._haar_blocks(3, 10 ** 20, rng)), InvalidCountError),
    (lambda rng: next(haar._haar_blocks(2 ** 20, 2 ** 20, rng)), InvalidCountError),
    (lambda rng: haar_validate(2 ** 20, 2 ** 20, rng), TooFewSamplesError),
], ids=["blocks-dim-3", "blocks-dim-2^20", "validate-dim-2^20"])
def test_a_stack_past_the_index_range_is_rejected_before_its_first_block(draw, error):
    # A count whose count * dim^2 entries no one stack could hold, though the
    # count and the dim each fit: blocked, each block would fit, and the
    # draw would run until the disk or the memory ran out.
    rng = RngStream(0)
    with pytest.raises(error):
        draw(rng)
    assert rng.draws == 0


def test_numpy_integers_are_integers():
    rng = RngStream(np.uint64(3), np.int32(1))
    assert haar_unitary_batch(np.int64(3), np.int16(2), rng).shape == (2, 3, 3)
    assert sample_ball(np.int64(4), rng).shape == (4,)
    assert haar_oracle(np.int8(2), rng).shape == (2, 2)
    assert haar_validate(np.int64(2), np.int64(1000), rng).dim == 2


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

    @pytest.mark.parametrize("m", sorted(REG_GAMMA_REFERENCE))
    def test_matches_reference_values(self, m):
        t, expected = zip(*REG_GAMMA_REFERENCE[m])
        got = _reg_gamma((m,), np.array(t))
        relative = np.abs(got / np.array([float(p) for p in expected]) - 1.0)
        assert relative.max() <= (1e-14 if m <= 63 else 1e-13)

    def test_levels_run_along_the_first_axis(self):
        # One call on a (levels, points) stack: the reference rows for
        # m <= 63, padded to one length, then t just below and at the row's
        # own switch.  Every entry is its level's own 1-D call to rounding
        # (the stack sums the terms of the largest m, a few more, each below
        # 2^-60 of the largest).
        ms = tuple(m for m in sorted(REG_GAMMA_REFERENCE) if m <= 63)
        rows, expected = [], []
        for m in ms:
            t, values = zip(*REG_GAMMA_REFERENCE[m])
            s = _switch(m)
            pad = [0.9 * s, 1.1 * s][:7 - len(t)]
            rows.append([*t, *pad, np.nextafter(s, 0.0), s])
            expected.append([float(v) for v in values] + [math.nan] * (len(pad) + 2))
        t, expected = np.array(rows), np.array(expected)
        got = _reg_gamma(ms, t)
        assert got.shape == t.shape
        known = ~np.isnan(expected)
        assert np.abs(got[known] / expected[known] - 1.0).max() <= 1e-14
        for m, row, values in zip(ms, t, got):
            assert row[-2] < _switch(m) <= row[-1]
            np.testing.assert_allclose(values, _reg_gamma((m,), row), rtol=1e-15, atol=0)

    def test_batch_axes_follow_the_levels(self):
        ms = (7, 2, 1)
        t = np.random.default_rng(5).gamma(7.0, size=(3, 4, 5)) * [[[1.0]], [[0.3]], [[0.2]]]
        got = _reg_gamma(ms, t)
        assert got.shape == t.shape
        for m, level, values in zip(ms, t, got):
            np.testing.assert_allclose(values.ravel(), _reg_gamma((m,), level.ravel()),
                                       rtol=1e-15, atol=0)
        assert _reg_gamma((2,), np.array([0.5, 3.0])).shape == (2,)
        # A 0-d t has no level axis of its own: it is broadcast over the
        # levels, one value each.
        assert _reg_gamma((2,), 3.0).shape == (1,)
        np.testing.assert_allclose(_reg_gamma(ms, 3.0), [_reg_gamma((m,), 3.0)[0] for m in ms],
                                   rtol=1e-15, atol=0)

    @pytest.mark.parametrize("count", [_ROW_SCAN // 3 - 1, _ROW_SCAN // 3 + 1])
    def test_prefix_forms_agree_on_both_sides_of_the_row_scan(self, count, monkeypatch):
        # Below _ROW_SCAN values one accumulate forms the prefix products,
        # from it on a loop over rows; both multiply in the same order.
        ms = (5, 3, 1)
        t = np.random.default_rng(count).gamma(3.0, size=(3, count))
        assert (t.size < _ROW_SCAN) == (count < _ROW_SCAN // 3)
        natural = _reg_gamma(ms, t)
        for forced in (0, 10 ** 9):
            monkeypatch.setattr(haar, "_ROW_SCAN", forced)
            assert np.array_equal(_reg_gamma(ms, t), natural)

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

    @pytest.mark.parametrize("dim", [*range(1, 9), 16, 17, 40])
    def test_values_replay_the_documented_draw_order(self, dim):
        # Replays the contract with plain numpy from the same Philox key:
        # per level a uniform ball point X, the pivot direction
        # n = gamma e_k + X / (2 gamma), gamma = sqrt((1 + rho) / 2), then
        # U = R(n_1) ... R(n_{N-1}) diag(e^{i phi}).  A negated terminal
        # phase is still uniform, so only the values can show a sign slip.
        # It shares no code with the sampler; dim 16 is the last product of
        # rank-1 steps, 17 one blocked panel and 40 a narrow last panel.
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
    # From dim 17 on a product runs blocked panels, from dim 34 on a narrow
    # last one too, of one reflection at 34 and 66, after two full panels
    # at 66.  Each sum over a matrix's own axis adds in index order
    # whatever the layout, and a lone ball's radius power is taken as a
    # stack's, so a draw has the same bits alone as in a stack.
    @pytest.mark.parametrize("dim", [*range(1, 41), 65, 66])
    def test_equals_successive_single_draws(self, dim):
        for count in (1, 2, 3, block_size(dim) + 1) if dim <= 40 else (2,):
            a = RngStream(51, dim)
            b = RngStream(51, dim)
            batch = haar_unitary_batch(dim, count, a)
            singles = np.array([haar_unitary(dim, b) for _ in range(count)])
            assert batch.shape == (count, dim, dim)
            assert batch.tobytes() == singles.tobytes(), count
            assert a.draws == b.draws == count * dim * dim

    @pytest.mark.parametrize("dim", [8, 9, 16, 40])
    def test_blocks_ending_in_one_matrix_are_the_stack(self, dim):
        count = block_size(dim) + 1
        blocks = list(haar._haar_blocks(dim, count, RngStream(64, dim)))
        assert len(blocks[-1]) == 1
        stack = haar_unitary_batch(dim, count, RngStream(64, dim))
        assert np.concatenate(blocks).tobytes() == stack.tobytes()

    # Blocked panels: one of 16 reflections, one of 32, two, and eight.
    @pytest.mark.parametrize("dim", [17, 33, 64, 256])
    def test_samples_at_scale_are_unitary(self, dim):
        for u in haar_unitary_batch(dim, 3, RngStream(53, dim)):
            assert unitarity_error(u) <= 1e-12

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_is_a_typed_error(self, count):
        with pytest.raises(InvalidCountError) as info:
            haar_unitary_batch(3, count, RngStream(52))
        assert isinstance(info.value, UcosetError)


class TestRank1Draws:
    # A draw of fewer than _WY_WIDTH reflections takes rank-1 steps on its
    # ball coordinates; a wider one builds its pivots for the compact-WY
    # panels of householder._product.  Both multiply out the same
    # reflections.  The bound was fixed before the test was first run: a
    # product of r reflections applied in floating point to a column of
    # length N is the exact product of reflections each perturbed by at most
    # c N u in norm (Higham 2002, Lemma 19.3), so each column of either
    # product is within r c N u of the exact one and the two within
    # 2 r c N u = r c N eps of each other; c = 2 for the two roundings of
    # each complex multiply-add, and one eps more for the phases the steps
    # multiply in last, gives (2 r N + 1) eps, r = N - 1.
    @pytest.mark.parametrize("dim", range(1, _WY_WIDTH + 1))
    def test_steps_are_the_panel_product(self, dim):
        count = block_size(dim)
        x, rho, phases = haar._haar_coordinates(dim, count, RngStream(81, dim))
        steps = haar._rank1_product(x, rho, phases)
        panels = _product(_pivots(dim, 1, 1.0 + rho, x), phases, FORWARD)
        bound = (2 * (dim - 1) * dim + 1) * np.finfo(float).eps
        assert maxdiff(steps, panels) <= bound
        stack = haar_unitary_batch(dim, count, RngStream(81, dim))
        assert stack.tobytes() == np.ascontiguousarray(steps.transpose(2, 0, 1)).tobytes()
        # A lone draw, the count-1 case, against the panels and, bit for bit,
        # against the first draws of the stack, from the same stream.
        rng = RngStream(81, dim)
        for k in range(5):
            lone = haar_unitary(dim, rng)
            assert maxdiff(lone, panels[..., k]) <= bound
            assert lone.tobytes() == stack[k].tobytes()

    @pytest.mark.parametrize("dim, path", [(1, "_rank1_product"), (2, "_rank1_product"),
                                           (_WY_WIDTH, "_rank1_product"),
                                           (_WY_WIDTH + 1, "_product"), (40, "_product")])
    def test_only_draws_of_fewer_than_wy_width_reflections_take_steps(self, monkeypatch,
                                                                      dim, path):
        calls = []
        for name in ("_rank1_product", "_product"):
            def counting(*args, _name=name, _fn=getattr(haar, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(haar, name, counting)
        for count in (1, 3):
            haar_unitary_batch(dim, count, RngStream(82, dim))
        assert calls == [path, path]


class TestTraceMoments:
    # For Haar U in U(N), E|tr U^j|^2 = j for j <= N, and for N >= 2j its
    # variance is j^2, as for j Exp(1) (Diaconis & Shahshahani 1994), so a
    # mean over `count` matrices has standard error j / sqrt(count).  Each
    # mean must lie within 4 standard errors of j.  Dims 17 and 33 take one
    # blocked panel, of 16 and of 32 reflections, 50 and 64 two blocked
    # panels, the second of 17 and of 31.  The draws run in blocks of at
    # most 500 matrices, successive draws of the one stream, to bound memory.
    # The same draws give the entry moments: E U_ij = 0 with E |U_ij|^2 =
    # 1/N, so sqrt(N count) times a mean U_ij is near a standard complex
    # normal z, P(|z| > r) = e^{-r^2}; and |U_ij|^2 is Beta(1, N - 1), of
    # mean 1/N and variance (N - 1) / (N^2 (N + 1)).  Each maximum over the
    # N^2 entries is bounded at a false-alarm rate of 1e-6, split evenly
    # over the entries (Bonferroni).
    @pytest.mark.parametrize("dim, count", [(17, 4000), (33, 2000), (50, 1000), (64, 1000)])
    def test_trace_moments_match_haar(self, dim, count):
        rng = RngStream(61, dim)
        sums = {1: 0.0, 2: 0.0}
        entries = np.zeros((dim, dim), dtype=complex)
        moduli = np.zeros((dim, dim))
        for block in range(0, count, 500):
            u = haar_unitary_batch(dim, min(500, count - block), rng)
            traces = {1: np.trace(u, axis1=1, axis2=2), 2: np.einsum("nik,nki->n", u, u)}
            for j, t in traces.items():
                sums[j] += float(np.sum(np.abs(t) ** 2))
            entries += u.sum(axis=0)
            moduli += (np.abs(u) ** 2).sum(axis=0)
        for j, total in sums.items():
            mean = total / count
            assert abs(mean - j) <= 4.0 * j / math.sqrt(count), (j, mean)
        alarm = 1e-6 / (dim * dim)
        z = np.abs(entries / count).max() * math.sqrt(dim * count)
        assert z <= math.sqrt(-math.log(alarm)), z
        error = math.sqrt((dim - 1) / (dim * dim * (dim + 1) * count))
        z = np.abs(moduli / count - 1.0 / dim).max() / error
        assert z <= NormalDist().inv_cdf(1.0 - 0.5 * alarm), z

    def test_trace_moment_at_the_dim(self):
        # For j >= N the eigenvalues of U^j are N independent uniform phases
        # (Rains 1997), so E|tr U^N|^2 = N with variance N^2 - N: a standard
        # error of about 0.26 for 4000 matrices at N = 17.  The trace is the
        # sum of the eigenvalues' N-th powers.
        dim, count = 17, 4000
        rng = RngStream(62, dim)
        total = 0.0
        for block in range(0, count, 500):
            lam = np.linalg.eigvals(haar_unitary_batch(dim, min(500, count - block), rng))
            total += float(np.sum(np.abs(np.sum(lam ** dim, axis=1)) ** 2))
        mean = total / count
        assert abs(mean - dim) <= 4.0 * math.sqrt((dim * dim - dim) / count), mean


@pytest.fixture(scope="module")
def ball_coordinates():
    # |X_k|^(2(N - k)) of every level, (N - 1, count), and the terminal
    # phases' angles, (N, count), of each sampler's draws at N = 17, each
    # draw decomposed, converted to coset factors and read.
    dim, count = TestBallCoordinates.DIM, TestBallCoordinates.COUNT
    rng = RngStream(72, dim)
    draws = {"haar_unitary": haar_unitary_batch(dim, count, RngStream(71, dim)),
             "haar_oracle": [haar_oracle(dim, rng) for _ in range(count)]}
    coordinates = {}
    for name, us in draws.items():
        radii, angles = [], []
        for u in us:
            cf = cosets_from_householder(decompose(u))
            radii.append([np.vdot(f.vector.x, f.vector.x).real ** (dim - f.level)
                          for f in cf.factors])
            angles.append(np.angle(cf.terminal_phases.phases))
        coordinates[name] = np.array(radii).T, np.array(angles).T
    return coordinates


class TestBallCoordinates:
    # The paper's correspondence: U is Haar exactly when its coset
    # coordinates X_k are independent and uniform in their balls
    # B^{2(N - k)} and its terminal phases independent and uniform on the
    # circle, so each |X_k|^(2(N - k)) is U(0, 1).  Each sampler's draws go
    # through decompose, the conversion and the X read; haar_oracle shares
    # no code with the product or the gamma, so its half tests those three.
    # The bounds are fixed from theory: the DKW inequality with Massart's
    # constant, P(D_n > e) <= 2 exp(-2 n e^2), and its two-sample form for
    # n = m >= 458, P(D_nn > e) <= 2 exp(-n e^2) (Wei & Dudley 2012), at a
    # false-alarm rate of 1e-3 split evenly (Bonferroni) over the
    # 2 (2N - 1) one-sample and N - 1 two-sample tests: 0.0775 and 0.110
    # at N = 17 with 1000 draws per sampler.  N = 17 takes one blocked panel.
    DIM, COUNT = 17, 1000
    ALARM = 1e-3 / (2 * (2 * DIM - 1) + DIM - 1)
    ONE_SAMPLE = math.sqrt(math.log(2.0 / ALARM) / (2 * COUNT))
    TWO_SAMPLE = math.sqrt(math.log(2.0 / ALARM) / COUNT)

    @pytest.mark.parametrize("sampler", ["haar_unitary", "haar_oracle"])
    def test_radii_are_uniform(self, ball_coordinates, sampler):
        radii, _ = ball_coordinates[sampler]
        ks = [ks_statistic(r, lambda t: t) for r in radii]
        assert max(ks) <= self.ONE_SAMPLE, ks

    @pytest.mark.parametrize("sampler", ["haar_unitary", "haar_oracle"])
    def test_terminal_phases_are_uniform(self, ball_coordinates, sampler):
        _, angles = ball_coordinates[sampler]
        ks = [ks_statistic(a, lambda t: (t + math.pi) / (2.0 * math.pi)) for a in angles]
        assert max(ks) <= self.ONE_SAMPLE, ks

    def test_samplers_agree_level_by_level(self, ball_coordinates):
        (mine, _), (oracle, _) = ball_coordinates["haar_unitary"], ball_coordinates["haar_oracle"]
        ks = [ks_statistic_two_sample(a, b) for a, b in zip(mine, oracle)]
        assert max(ks) <= self.TWO_SAMPLE, ks


class TestDecomposeInvertsTheSampler:
    # The sampler's draw is U = R(n_1) ... R(n_{N-1}) D with n_k = (1 + rho_k)
    # e_k + X_k.  Column k of R(n_{k-1}) ... R(n_1) U is -D_kk (0, .., 0,
    # rho_k, X_k), so the forward column loop's level-k pivot is -D_kk n_k:
    # decompose, the conversion and the X read give back the drawn X_k, and
    # the drawn phases D_kk with the first N - 1 negated as the terminal
    # phases T_k.  That is an identity up to rounding, bounded as follows
    # (u = eps / 2).
    #
    # Backward error.  r reflections applied to a unit column move it,
    # backward, by at most r gamma~_m with gamma~_m = c m u / (1 - c m u)
    # (Higham 2002, Lemma 19.3; Theorem 19.4 for the column loop of QR), here
    # r = N - 1 and m <= N: c N^2 u in the worst case.  Rounding errors that
    # do not all line up leave about the square root of a bound's constant
    # (Higham 2002, section 2.8), N u, for the product that makes the draw
    # and as much again for the loop that takes it apart, so the recovered
    # coordinates are those of an exact U whose columns moved by e = N eps.
    # The X read, 2 conj(u_k) u / <u|u> with <u|u> >= 2, and the sign flips
    # of the conversion add a few u more, which that allowance covers.
    #
    # Phase conditioning.  Level k reads the phase of a corner of modulus
    # rho_k: a move e of the column turns it by at most 2 e / rho_k, so
    # |dX_k| <= |X_k| 2 e / rho_k + e <= 3 e / rho_k, and |dT_k| as much.
    # That phase is a gauge: a slip t at level j turns the later columns by
    # 1 - (1 - e^{-i t}) b b^dag, b the level-j tail (|b| <= 1), by at most t,
    # and a later corner by t |b_k| |<b|w_k>|, a product of entries of unit
    # vectors, about 1 / (N - j) for a Haar draw, which offsets that later
    # division by rho_k, about 1 / sqrt(N - k).  So a level is no worse off
    # than the worst level at or before it, 3 e / min_{j <= k} rho_j, and as
    # much again covers the slips of several earlier levels adding up: each
    # X_k and T_k within 6 N eps / min_{j <= k} rho_j (T_N: over all levels).
    DIMS = list(range(1, 41)) + [64, 128, 256]

    @pytest.mark.parametrize("dim", DIMS)
    def test_coordinates_read_back_within_the_bound(self, dim):
        count = 4 if dim <= 40 else 2
        x, rho, phases = haar._haar_coordinates(dim, count, RngStream(81, dim))
        us = haar_unitary_batch(dim, count, RngStream(81, dim))
        tails = np.cumsum(range(dim - 1, 0, -1))[:-1]
        for u, x_i, rho_i, phases_i in zip(us, x.T, rho.T, phases.T):
            cf = cosets_from_householder(decompose(u))
            worst = np.minimum.accumulate(np.append(rho_i, 1.0))
            bound = 6.0 * dim * np.finfo(float).eps / worst
            dx = [np.linalg.norm(f.vector.x - drawn)
                  for f, drawn in zip(cf.factors, np.split(x_i, tails))]
            assert np.all(np.array(dx) <= bound[:-1]), (dx, bound)
            drawn = phases_i * np.append(-np.ones(dim - 1), 1.0)
            assert np.all(np.abs(cf.terminal_phases.phases - drawn) <= bound)


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


class TestGates:
    # Each gate's verdict against its own threshold on hand-built reports:
    # a statistic one ulp below, at and one ulp above it, and NaN.
    def test_ks_gate_passes_strictly_below_its_threshold(self):
        def report(stat):
            return SampleReport(2, 2000, stat, np.full((2, 2), 0.5))

        t = report(0.0).ks_gate.threshold
        assert t == 2.0 * 1.63 / math.sqrt(2000) == haar.HAAR_TEST_KS_FACTOR / math.sqrt(2000)
        for stat, passed in [(np.nextafter(t, 0.0), True), (t, False),
                             (np.nextafter(t, 1.0), False), (math.nan, False)]:
            r = report(stat)
            g = r.ks_gate
            assert (g.threshold, g.passed, r.passed) == (t, passed, passed), stat
            assert g.statistic == stat or math.isnan(stat)

    def test_mean_gate_passes_at_or_below_its_threshold(self):
        # At dim 2 every mean in [1/2, 1) is 1/2 plus a multiple of 2^-53,
        # a difference numpy takes exactly, so a sample count whose threshold
        # is such a multiple puts a mean exactly at it.
        def report(samples, mean):
            return SampleReport(2, samples, 0.0, [[0.5, mean], [0.5, 0.5]])

        samples = next(s for s in range(1000, 2000)
                       if (report(s, 0.5).mean_gate.threshold * 2 ** 53).is_integer())
        t = report(samples, 0.5).mean_gate.threshold
        at = 0.5 + t
        assert at - 0.5 == t
        for mean, passed in [(np.nextafter(at, 0.0), True), (at, True),
                             (np.nextafter(at, 1.0), False), (math.nan, False)]:
            r = report(samples, mean)
            g = r.mean_gate
            assert (g.threshold, g.passed, r.passed) == (t, passed, passed), mean
            assert g.statistic == mean - 0.5 or math.isnan(mean)
        assert report(samples, at).mean_gate.statistic == t

    def test_a_sampled_report_passes(self):
        report = haar_validate(3, 2000, RngStream(46))
        assert report.ks_gate.statistic == report.ks_statistic
        assert report.ks_gate.passed and report.mean_gate.passed and report.passed


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
