import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ucoset import (
    FORWARD,
    DimensionMismatchError,
    HouseholderFactorization,
    LeadingComponentsNonzeroError,
    NotUnitLengthError,
    NotUnitaryError,
    PhaseDiagonal,
    PhaseError,
    Reflection,
    Tolerances,
    apply_reflection,
    compose_cosets,
    cosets_from_householder,
    cosets_from_householder_reversed,
    decompose,
    decompose_reversed,
    pivot_from_column,
    reconstruct,
    reflect_matrix,
    unitarity_error,
)

from golden_data import (
    PIVOT_PHASES,
    PIVOT_PHASES_REV,
    PIVOT_U1,
    R1,
    R1_REV,
    R2,
    R2_REV,
    RESIDUAL,
    RESIDUAL_REV,
    S,
    Q,
    U0,
    maxdiff,
    random_unitary,
)

coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def unit_columns(draw, max_dim=6):
    dim = draw(st.integers(min_value=2, max_value=max_dim))
    re = draw(st.lists(coords, min_size=dim, max_size=dim))
    im = draw(st.lists(coords, min_size=dim, max_size=dim))
    v = np.array(re) + 1j * np.array(im)
    norm = float(np.linalg.norm(v))
    assume(norm > 1e-3)
    return v / norm


class TestReflectMatrix:
    def test_axis_pivot(self):
        r = Reflection(pivot=np.array([2.0, 0.0]), level=1, dim=2)
        assert maxdiff(reflect_matrix(r), np.diag([-1.0, 1.0])) == 0.0

    def test_diagonal_pivot(self):
        r = Reflection(pivot=np.array([math.sqrt(2), math.sqrt(2)]), level=1, dim=2)
        expected = np.array([[0.0, -1.0], [-1.0, 0.0]])
        assert maxdiff(reflect_matrix(r), expected) <= 1e-15

    def test_golden_first_reflection(self):
        r = Reflection(pivot=PIVOT_U1, level=1, dim=3)
        m = reflect_matrix(r)
        assert maxdiff(m, R1) <= 1e-15
        # Closed forms of the distinctive entries.
        assert m[0, 0] == pytest.approx(-S)
        assert m[1, 1] == pytest.approx(Q)
        assert m[2, 2] == pytest.approx(Q)

    def test_hermitian(self):
        r = Reflection(pivot=PIVOT_U1, level=1, dim=3)
        m = reflect_matrix(r)
        assert maxdiff(m, m.conj().T) <= 1e-15


class TestPivotFromColumn:
    def test_aligned_column(self):
        r, phi = pivot_from_column(np.array([1.0, 0.0]), 1)
        assert phi == 0.0
        assert maxdiff(r.pivot, [2.0, 0.0]) == 0.0

    def test_golden_first_column(self):
        r, phi = pivot_from_column(U0[:, 0], 1)
        assert phi == pytest.approx(math.pi / 2.0)
        assert maxdiff(r.pivot, PIVOT_U1) <= 1e-15

    def test_zero_pivot_component_uses_phase_zero(self):
        w = np.array([0.0, 1.0])
        r, phi = pivot_from_column(w, 1)
        assert phi == 0.0
        assert maxdiff(r.pivot, [1.0, 1.0]) == 0.0
        m = reflect_matrix(r)
        assert maxdiff(m, [[0.0, -1.0], [-1.0, 0.0]]) <= 1e-15
        assert maxdiff(m @ w, [-1.0, 0.0]) <= 1e-15

    def test_rejects_non_unit_column(self):
        with pytest.raises(NotUnitLengthError):
            pivot_from_column(np.array([2.0, 0.0]), 1)

    def test_rejects_dirty_leading_components(self):
        w = np.array([0.5, math.sqrt(0.75), 0.0])
        with pytest.raises(LeadingComponentsNonzeroError):
            pivot_from_column(w, 2)

    @given(unit_columns())
    @settings(max_examples=60)
    def test_pivot_action_property(self, w):
        r, phi = pivot_from_column(w, 1)
        assert -math.pi < phi <= math.pi
        target = np.zeros(w.shape[0], dtype=complex)
        target[0] = -complex(math.cos(phi), math.sin(phi))
        assert maxdiff(reflect_matrix(r) @ w, target) <= 1e-13

    @given(unit_columns())
    @settings(max_examples=60)
    def test_norm_and_involution_property(self, w):
        r, _ = pivot_from_column(w, 1)
        # <u|u> = 2 (1 + |w_1|) always lands in [2, 4].
        assert r.norm_sq == pytest.approx(2.0 * (1.0 + abs(w[0])), abs=1e-12)
        assert 2.0 - 1e-12 <= r.norm_sq <= 4.0 + 1e-12
        m = reflect_matrix(r)
        assert maxdiff(m @ m, np.eye(w.shape[0])) <= 1e-13


class TestApplyReflection:
    def test_axis_reflection_on_identity(self):
        r = Reflection(pivot=np.array([2.0, 0.0, 0.0]), level=1, dim=3)
        got = apply_reflection(r, np.eye(3, dtype=complex), "left")
        assert maxdiff(got, np.diag([-1.0, 1.0, 1.0])) == 0.0

    def test_golden_first_column_clears(self):
        r = Reflection(pivot=PIVOT_U1, level=1, dim=3)
        got = apply_reflection(r, U0, "left")
        assert maxdiff(got[:, 0], [-1j, 0.0, 0.0]) <= 1e-15

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_dense_multiply(self, side):
        rng = np.random.default_rng(5)
        for dim in (2, 4, 7):
            w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            w /= np.linalg.norm(w)
            r, _ = pivot_from_column(w, 1)
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            dense = reflect_matrix(r)
            expected = dense @ m if side == "left" else m @ dense
            assert maxdiff(apply_reflection(r, m, side), expected) <= 1e-13

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_vector_operands(self, side):
        rng = np.random.default_rng(6)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w /= np.linalg.norm(w)
        r, _ = pivot_from_column(w, 1)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        dense = reflect_matrix(r)
        expected = dense @ v if side == "left" else v @ dense
        assert maxdiff(apply_reflection(r, v, side), expected) <= 1e-13

    def test_dimension_mismatch(self):
        r = Reflection(pivot=np.array([2.0, 0.0]), level=1, dim=2)
        with pytest.raises(DimensionMismatchError):
            apply_reflection(r, np.eye(3), "left")

    def test_bad_side(self):
        r = Reflection(pivot=np.array([2.0, 0.0]), level=1, dim=2)
        with pytest.raises(ValueError):
            apply_reflection(r, np.eye(2), "up")


class TestDecompose:
    def test_identity(self):
        f = decompose(np.eye(3))
        assert maxdiff(f.reflections[0].pivot, [2.0, 0.0, 0.0]) == 0.0
        assert maxdiff(f.reflections[1].pivot, [0.0, 2.0, 0.0]) == 0.0
        assert maxdiff(f.residual.phases, [-1.0, -1.0, 1.0]) == 0.0
        assert maxdiff(f.pivot_phases, [0.0, 0.0]) == 0.0

    def test_golden_example(self):
        f = decompose(U0)
        assert f.ordering == FORWARD
        assert maxdiff(reflect_matrix(f.reflections[0]), R1) <= 1e-15
        assert maxdiff(reflect_matrix(f.reflections[1]), R2) <= 1e-15
        assert maxdiff(f.residual.phases, RESIDUAL) <= 1e-15
        assert maxdiff(f.pivot_phases, PIVOT_PHASES) <= 1e-15

    def test_round_trip_single(self):
        u = random_unitary(8, 40)
        assert maxdiff(reconstruct(decompose(u)), u) <= 1e-11

    def test_round_trip_many(self):
        rng = np.random.default_rng(41)
        for k in range(100):
            dim = int(rng.integers(2, 17))
            u = random_unitary(dim, 1000 + k)
            assert maxdiff(reconstruct(decompose(u)), u) <= 1e-11

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            decompose(1.01 * U0)


class TestDecomposeReversed:
    def test_identity(self):
        f = decompose_reversed(np.eye(2))
        assert maxdiff(f.reflections[0].pivot, [2.0, 0.0]) == 0.0
        assert maxdiff(f.residual.phases, [-1.0, 1.0]) == 0.0

    def test_golden_example(self):
        f = decompose_reversed(U0)
        assert maxdiff(reflect_matrix(f.reflections[0]), R1_REV) <= 1e-15
        assert maxdiff(reflect_matrix(f.reflections[1]), R2_REV) <= 1e-15
        assert maxdiff(f.residual.phases, RESIDUAL_REV) <= 1e-15
        assert maxdiff(f.pivot_phases, PIVOT_PHASES_REV) <= 1e-15

    def test_round_trip(self):
        u = random_unitary(6, 42)
        assert maxdiff(reconstruct(decompose_reversed(u)), u) <= 1e-11

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            decompose_reversed(np.diag([2.0, 1.0]))


def assert_adjoint_of_forward(u):
    # U = D R_{N-1} ... R_1 exactly when U^dag = R_1 ... R_{N-1} D^dag.
    rev = decompose_reversed(u)
    fwd = decompose(np.conj(u).T)
    for r, f in zip(rev.reflections, fwd.reflections, strict=True):
        assert maxdiff(r.pivot, f.pivot) <= 1e-13
    assert maxdiff(rev.residual.phases, np.conj(fwd.residual.phases)) <= 1e-13
    phase_dev = np.abs(np.exp(1j * rev.pivot_phases) - np.exp(-1j * fwd.pivot_phases))
    assert np.all(phase_dev <= 1e-13)
    return rev


class TestReversedIsAdjointOfForward:
    def test_minus_identity_keeps_phase_pi(self):
        rev = assert_adjoint_of_forward(-np.eye(3))
        # Negating pi gives -pi, outside (-pi, pi]; it maps back to pi.
        assert list(rev.pivot_phases) == [math.pi, math.pi]
        assert maxdiff(rev.residual.phases, [1.0, 1.0, -1.0]) == 0.0

    def test_identity(self):
        rev = assert_adjoint_of_forward(np.eye(3))
        assert list(rev.pivot_phases) == [0.0, 0.0]
        assert maxdiff(rev.residual.phases, [-1.0, -1.0, 1.0]) == 0.0

    def test_dim_one(self):
        rev = assert_adjoint_of_forward(np.array([[np.exp(0.7j)]]))
        assert rev.reflections == ()
        assert maxdiff(rev.residual.phases, [np.exp(0.7j)]) <= 1e-16

    def test_dim_two(self):
        assert_adjoint_of_forward(np.array([[0.0, 1j], [1j, 0.0]]))
        assert_adjoint_of_forward(random_unitary(2, 45))

    @given(st.integers(1, 12), st.integers(0, 2 ** 32))
    @settings(max_examples=60)
    def test_haar_matrices(self, dim, seed):
        u = random_unitary(dim, seed)
        rev = assert_adjoint_of_forward(u)
        assert maxdiff(reconstruct(rev), u) <= 1e-12


class TestReconstruct:
    def test_no_reflections_identity_residual(self):
        f = HouseholderFactorization(
            reflections=(),
            residual=PhaseDiagonal(np.array([1.0 + 0j]), 1),
            ordering=FORWARD,
            dim=1,
            pivot_phases=np.zeros(0),
        )
        assert maxdiff(reconstruct(f), np.eye(1)) == 0.0

    def test_golden_round_trip(self):
        assert maxdiff(reconstruct(decompose(U0)), U0) <= 1e-13

    def test_reversed_order_matters(self):
        # Forward and reversed factorizations of the same matrix are
        # genuinely different objects; each reconstructs only its own way.
        u = random_unitary(5, 43)
        fwd = decompose(u)
        rev = decompose_reversed(u)
        assert maxdiff(reconstruct(fwd), u) <= 1e-12
        assert maxdiff(reconstruct(rev), u) <= 1e-12
        swapped = HouseholderFactorization(
            reflections=rev.reflections,
            residual=rev.residual,
            ordering=FORWARD,
            dim=rev.dim,
            pivot_phases=rev.pivot_phases,
        )
        assert maxdiff(reconstruct(swapped), u) > 1e-6


class TestInvariants:
    def factorizations(self):
        for seed, dim in [(50, 2), (51, 3), (52, 5), (53, 9), (54, 12)]:
            yield decompose(random_unitary(dim, seed))

    def test_involution_and_determinant(self):
        for f in self.factorizations():
            for r in f.reflections:
                m = reflect_matrix(r)
                assert maxdiff(m @ m, np.eye(f.dim)) <= 1e-13
                assert abs(np.linalg.det(m) - (-1.0)) <= 1e-10

    def test_unitary_reflections(self):
        for f in self.factorizations():
            for r in f.reflections:
                assert unitarity_error(reflect_matrix(r)) <= 1e-13

    def test_leading_coordinates_fixed(self):
        rng = np.random.default_rng(60)
        for f in self.factorizations():
            v = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
            for r in f.reflections:
                out = apply_reflection(r, v, "left")
                k = r.level - 1
                assert np.array_equal(out[:k], v[:k])

    def test_pivot_norms(self):
        for f in self.factorizations():
            for r in f.reflections:
                assert 2.0 - 1e-10 <= r.norm_sq <= 4.0 + 1e-10

    def test_commutation_with_axis_reflections(self):
        for f in self.factorizations():
            eye = np.eye(f.dim, dtype=complex)
            for r in f.reflections:
                m = reflect_matrix(r)
                for j in range(r.level - 1):
                    axis = eye.copy()
                    axis[j, j] = -1.0
                    assert maxdiff(axis @ m, m @ axis) <= 1e-15

    def test_residual_matches_pivot_phases(self):
        for f in self.factorizations():
            expected = -np.exp(1j * f.pivot_phases)
            assert maxdiff(f.residual.phases[:-1], expected) <= 1e-12


class TestValidation:
    def test_reflection_level_out_of_range(self):
        with pytest.raises(ValueError):
            Reflection(pivot=np.array([2.0, 0.0]), level=2, dim=2)

    def test_reflection_leading_entries_must_be_exact_zeros(self):
        with pytest.raises(LeadingComponentsNonzeroError):
            Reflection(pivot=np.array([1e-13, 2.0, 0.0]), level=2, dim=3)

    def test_reflection_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Reflection(pivot=np.array([2.0, 0.0]), level=1, dim=3)

    def test_phase_diagonal_modulus(self):
        with pytest.raises(ValueError):
            PhaseDiagonal(np.array([0.5 + 0j, 1.0]), 2)

    def test_factorization_residual_consistency(self):
        f = decompose(U0)
        with pytest.raises(ValueError):
            HouseholderFactorization(
                reflections=f.reflections,
                residual=PhaseDiagonal(np.array([1.0, -1j, -1.0]), 3),
                ordering=FORWARD,
                dim=3,
                pivot_phases=f.pivot_phases,
            )

    def test_factorization_levels_must_be_ordered(self):
        f = decompose(U0)
        with pytest.raises(ValueError):
            HouseholderFactorization(
                reflections=tuple(reversed(f.reflections)),
                residual=f.residual,
                ordering=FORWARD,
                dim=3,
                pivot_phases=f.pivot_phases,
            )


class TestNearUnitary:
    @pytest.mark.parametrize("scale", [1.0 + 1e-12, 1.0 + 1e-11])
    @pytest.mark.parametrize(
        "dec, conv",
        [
            (decompose, cosets_from_householder),
            (decompose_reversed, cosets_from_householder_reversed),
        ],
    )
    def test_scaled_input_inside_the_gate_round_trips(self, scale, dec, conv):
        # A defect of 2e-12 or 2e-11 is inside the default 1e-10 gate; the
        # residual deviates from -e^{i phi_k} by about half the defect.
        u = random_unitary(8, 43) * scale
        assert unitarity_error(u) <= 1e-10
        f = dec(u)
        assert maxdiff(reconstruct(f), u) <= 1e-11
        assert maxdiff(compose_cosets(conv(f)), u) <= 1e-11

    def test_phase_failures_are_typed(self):
        with pytest.raises(PhaseError):
            PhaseDiagonal(np.array([1.0 + 1e-6, 1.0]), 2)
        f = decompose(U0)
        with pytest.raises(PhaseError):
            HouseholderFactorization(
                reflections=f.reflections,
                residual=PhaseDiagonal(np.array([-1j * np.exp(1e-6j), -1j, -1.0]), 3),
                ordering=FORWARD,
                dim=3,
                pivot_phases=f.pivot_phases,
            )
        assert issubclass(PhaseError, NotUnitaryError)

    def test_short_column_is_not_unit_length(self):
        # A 2e-5 defect passes a 1e-3 gate, but the column (0, 1 - 1e-5)
        # gives a pivot of norm-squared 2 - 2e-5, below the bound 2.
        u = np.array([[0.0, 1.0], [1.0, 0.0]]) * (1.0 - 1e-5)
        tol = Tolerances(unitarity_tol=1e-3)
        for dec in (decompose, decompose_reversed):
            with pytest.raises(NotUnitLengthError):
                dec(u, tol)
        with pytest.raises(NotUnitLengthError):
            Reflection(pivot=np.array([1.0, 0.9]), level=1, dim=2)
        assert issubclass(NotUnitLengthError, NotUnitaryError)
