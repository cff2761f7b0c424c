import dataclasses
import math

import numpy as np
import pytest

from ucoset import DomainError, NonSquareError, Tolerances, expm_series, unitarity_error

from golden_data import U0, maxdiff, random_unitary


def random_antihermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g - g.conj().T)


class TestUnitarityError:
    def test_identity_is_exactly_zero(self):
        assert unitarity_error(np.eye(3)) == 0.0

    def test_golden_unitary(self):
        assert unitarity_error(U0) <= 1e-15

    def test_diag_2_1(self):
        assert unitarity_error(np.diag([2.0, 1.0])) == pytest.approx(3.0)

    def test_non_square_raises(self):
        with pytest.raises(NonSquareError):
            unitarity_error(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(ValueError):
            unitarity_error(m)

    @pytest.mark.parametrize("entry", [1e200, 1e200 + 1e200j])
    def test_overflow_is_inf_without_a_warning(self, entry):
        # M^dag M overflows to inf, or with both parts large to inf - inf.
        assert unitarity_error(np.full((2, 2), entry)) == math.inf

    def test_adjoint_symmetry_for_unitary_input(self):
        # err(M) and err(M^dag) agree for unitary M; both are already at
        # rounding level, so compare at twice machine epsilon.
        eps = np.finfo(float).eps
        for seed, dim in [(1, 2), (2, 5), (3, 9)]:
            m = random_unitary(dim, seed)
            assert abs(unitarity_error(m) - unitarity_error(m.conj().T)) <= 2 * eps


class TestExpmSeries:
    def test_zero_matrix(self):
        assert maxdiff(expm_series(np.zeros((3, 3))), np.eye(3)) == 0.0

    def test_planar_rotation_quarter_turn(self):
        theta = math.pi / 2.0
        a = np.array([[0.0, theta], [-theta, 0.0]])
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert maxdiff(expm_series(a), expected) <= 1e-15

    def test_antihermitian_gives_unitary(self):
        a = random_antihermitian(4, 10)
        assert unitarity_error(expm_series(a)) <= 1e-12

    def test_inverse_is_exp_of_negation(self):
        for dim in range(2, 9):
            a = random_antihermitian(dim, 20 + dim)
            product = expm_series(a) @ expm_series(-a)
            assert maxdiff(product, np.eye(dim)) <= 1e-12

    def test_adjoint_is_exp_of_negation(self):
        for dim in (2, 5, 8):
            a = random_antihermitian(dim, 30 + dim)
            assert maxdiff(expm_series(a).conj().T, expm_series(-a)) <= 1e-12

    @pytest.mark.parametrize("dim", [64, 200])
    def test_norm_far_above_the_largest_entry(self, dim):
        # A = c J, c = i / 4 and J all ones: J^2 = N J, so exp(A) is
        # I + (e^{iN/4} - 1) / N J exactly, while max |a_ij| = 1/4 and the
        # infinity norm is N / 4.  Scaled to norm 1/4, s = ceil(log2 N)
        # squarings, 2^s < 2 N.  Every iterate is I + alpha J up to
        # rounding, |alpha| <= 2 / N: a squaring doubles the error carried
        # (alpha -> 2 alpha + N alpha^2 has derivative 2 (1 + N alpha), of
        # modulus 2, and a diagonal error is carried at 1 + alpha by each
        # factor), and adds its own, a sum of N products of total modulus
        # at most |1 + alpha|^2 + N |alpha|^2 < 1 + 9 / N on the diagonal,
        # so under (N + 9) u at worst; the series adds about u.  So each
        # entry is within 2^s (N + 10) u < N (N + 10) eps.
        a = 0.25j * np.ones((dim, dim))
        expected = np.eye(dim) + (np.exp(0.25j * dim) - 1.0) / dim * np.ones((dim, dim))
        assert maxdiff(expm_series(a), expected) <= dim * (dim + 10) * np.finfo(float).eps

    def test_non_square_raises(self):
        with pytest.raises(NonSquareError):
            expm_series(np.zeros((2, 3)))


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.unitarity_tol == 1e-10

    @pytest.mark.parametrize(
        "field", ["unitarity_tol"]
    )
    def test_must_be_positive(self, field):
        with pytest.raises(ValueError):
            Tolerances(**{field: 0.0})

    def test_has_one_field(self):
        assert [f.name for f in dataclasses.fields(Tolerances)] == ["unitarity_tol"]

    @pytest.mark.parametrize("value", [0.0, -1e-3, math.nan, math.inf])
    def test_gate_must_be_positive_and_finite(self, value):
        with pytest.raises(DomainError):
            Tolerances(unitarity_tol=value)
