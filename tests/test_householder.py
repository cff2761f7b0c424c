import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ucoset import (
    FORWARD,
    REVERSED,
    DimensionMismatchError,
    DomainError,
    HouseholderFactorization,
    LeadingComponentsNonzeroError,
    NotUnitLengthError,
    NotUnitaryError,
    PhaseDiagonal,
    PhaseError,
    Reflection,
    Tolerances,
    UcosetError,
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
import ucoset
import ucoset.householder
from ucoset.haar import _WY_WIDTH
from ucoset.householder import _PANEL, _conj_panel, _panels, _product, _wy_panel
from ucoset.numkit import ROUND_TRIP_FACTOR

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
    perturbed_to_defect,
    random_unitary,
    reversed_repro,
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

    @pytest.mark.parametrize("tol", [None, Tolerances(unitarity_tol=1e-6)])
    def test_leading_components_bound_each_entry(self, tol):
        # The bound is on each entry, max |w_j| <= tol: four entries of
        # 0.9 tol pass although their 2-norm is 1.8 tol.
        bound = (tol or Tolerances()).unitarity_tol
        w = np.zeros(7, dtype=complex)
        w[4:] = np.array([0.6, 0.0, 0.8j])
        w[:4] = 0.9 * bound
        assert np.linalg.norm(w[:4]) > bound
        r, phi = pivot_from_column(w, 5, tol)
        assert np.all(r.pivot[:4] == 0.0) and np.array_equal(r.pivot[5:], w[5:])
        assert phi == 0.0 and r.pivot[4] == 1.6
        w[2] = 1.1 * bound
        with pytest.raises(LeadingComponentsNonzeroError, match="level 5"):
            pivot_from_column(w, 5, tol)

    def test_leading_components_bound_where_squares_underflow(self):
        # |w_1|^2 = 1e-340 underflows to 0, yet |w_1| exceeds the tolerance.
        tol = Tolerances(unitarity_tol=1e-200)
        with pytest.raises(LeadingComponentsNonzeroError):
            pivot_from_column(np.array([1e-170, 1.0, 0.0]), 2, tol)
        r, _ = pivot_from_column(np.array([1e-201, 1.0, 0.0]), 2, tol)
        assert maxdiff(r.pivot, [0.0, 2.0, 0.0]) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("index, level", [(0, 1), (2, 1), (0, 2), (2, 3)])
    def test_non_finite_entry_is_a_domain_error(self, bad, index, level):
        w = np.array([0.0, 0.0, 0.6, 0.8], dtype=complex)
        w[index] = bad
        with pytest.raises(DomainError):
            pivot_from_column(w, level)

    @pytest.mark.parametrize("level", [1, 2])
    def test_overflowing_norm_is_not_unit_length(self, level):
        # Finite entries whose norm-squared overflows are not a DomainError.
        w = np.array([1e200, 1e200, 0.0])
        with pytest.raises(NotUnitLengthError):
            pivot_from_column(w, level)

    @pytest.mark.parametrize("dec", [decompose, decompose_reversed])
    def test_column_loop_shares_the_column_helper(self, monkeypatch, dec):
        # Both the column loop and pivot_from_column build their pivots, and
        # run their column checks, through one helper.
        calls = []
        helper = ucoset.householder._column_pivot

        def counting(w, level, tol):
            calls.append(level)
            return helper(w, level, tol)

        monkeypatch.setattr(ucoset.householder, "_column_pivot", counting)
        n = 2 * _PANEL + 1
        u = random_unitary(n, 730)
        f = dec(u)
        assert calls == list(range(1, n))
        r, _ = pivot_from_column(U0[:, 0], 1)
        assert calls[n - 1:] == [1] and maxdiff(r.pivot, PIVOT_U1) <= 1e-15
        assert maxdiff(reconstruct(f), u) <= 1e-12

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

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("dim", [8, 12, 20, 40])
    def test_vector_is_its_column_of_the_matrix_bit_for_bit(self, side, dim):
        # A column (left) or row (right) of m reflects alone to the bits it
        # has in the reflected m, at every level.
        rng = np.random.default_rng(dim)
        for level in range(1, dim, max(1, dim // 10)):
            w = np.zeros(dim, dtype=complex)
            w[level - 1:] = [1.0, 1j] @ rng.standard_normal((2, dim - level + 1))
            r, _ = pivot_from_column(w / np.linalg.norm(w), level)
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            whole = apply_reflection(r, m, side)
            for j in (0, dim // 2, dim - 1):
                if side == "left":
                    alone, within = apply_reflection(r, m[:, j], side), whole[:, j]
                    single = apply_reflection(r, m[:, j:j + 1], side)[:, 0]
                else:
                    alone, within = apply_reflection(r, m[j], side), whole[j]
                    single = apply_reflection(r, m[j:j + 1], side)[0]
                assert alone.tobytes() == within.tobytes(), (level, j)
                assert single.tobytes() == within.tobytes(), (level, j)

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
            pivots=np.zeros((0, 1)),
            residual=PhaseDiagonal(np.array([1.0 + 0j]), 1),
            ordering=FORWARD,
            dim=1,
        )
        assert maxdiff(reconstruct(f), np.eye(1)) == 0.0

    def test_golden_round_trip(self):
        assert maxdiff(reconstruct(decompose(U0)), U0) <= 1e-13

    def test_reversed_order_matters(self):
        # Forward and reversed factorizations of the same matrix are
        # genuinely different objects; each reconstructs only its own way.
        # Relabelled forward, the reversed residual -e^{-i arg u_kk} no
        # longer matches the pivot phases arg u_kk, so it is not a record.
        u = random_unitary(5, 43)
        fwd = decompose(u)
        rev = decompose_reversed(u)
        assert maxdiff(reconstruct(fwd), u) <= 1e-12
        assert maxdiff(reconstruct(rev), u) <= 1e-12
        with pytest.raises(PhaseError):
            HouseholderFactorization(
                pivots=rev.pivots,
                residual=rev.residual,
                ordering=FORWARD,
                dim=rev.dim,
            )


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
                pivots=f.pivots,
                residual=PhaseDiagonal(np.array([1.0, -1j, -1.0]), 3),
                ordering=FORWARD,
                dim=3,
            )

    def test_writable_stack_is_copied(self):
        f = decompose(U0)
        pivots = f.pivots.copy()
        g = factorization_with(pivots=pivots)
        pivots[0, 0] = 5.0
        assert np.array_equal(g.pivots, f.pivots) and not g.pivots.flags.writeable
        h = factorization_with(pivots=f.pivots)
        assert not np.shares_memory(h.pivots, f.pivots) and np.array_equal(h.pivots, f.pivots)

    def test_read_only_view_of_a_writable_array_is_copied(self):
        # A read-only view whose base can still be written is copied, as the
        # caller could change the stack after its checks; so is another
        # record's stack, whose every base is read-only.
        u = random_unitary(5, 480)
        f = decompose(u)
        a = np.array(f.pivots)
        v = a[:]
        v.setflags(write=False)
        g = HouseholderFactorization(v, f.residual, f.ordering, 5)
        a[0, 0] = 0.0
        assert not np.shares_memory(g.pivots, a) and not g.pivots.flags.writeable
        assert maxdiff(reconstruct(g), u) <= 1e-13
        h = HouseholderFactorization(f.pivots, f.residual, f.ordering, 5)
        assert not np.shares_memory(h.pivots, f.pivots)
        assert h.pivots.tobytes() == f.pivots.tobytes()

    @pytest.mark.parametrize("dec", [decompose, decompose_reversed])
    def test_read_only_array_that_owns_its_memory_is_copied(self, dec):
        # The read-only flag is no guard, as its owner can set it writable
        # again: the record keeps its own copy, which the owner cannot reach.
        u = random_unitary(5, 481)
        f = dec(u)
        a = np.array(f.pivots, order="F")
        a.setflags(write=False)
        g = HouseholderFactorization(a, f.residual, f.ordering, 5)
        assert not np.shares_memory(g.pivots, a) and g.pivots.flags.c_contiguous
        a.setflags(write=True)
        a[...] = 0.0
        assert not g.pivots.flags.writeable
        assert maxdiff(reconstruct(g), u) <= 1e-13

    def test_decomposed_stack_is_the_work_array(self):
        # decompose hands its record the column loop's work array, read-only
        # and uncopied: the stack is a view of its leading N - 1 rows.
        f = decompose(random_unitary(5, 482))
        w = f.pivots.base
        assert w is not None and w.shape == (5, 5) and not w.flags.writeable
        assert np.shares_memory(f.pivots, w) and f.pivots.tobytes() == w[:-1].tobytes()

    def test_factorization_levels_must_be_ordered(self):
        f = decompose(U0)
        with pytest.raises(ValueError):
            HouseholderFactorization(
                pivots=f.pivots[::-1],
                residual=f.residual,
                ordering=FORWARD,
                dim=3,
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
                pivots=f.pivots,
                residual=PhaseDiagonal(np.array([-1j * np.exp(1e-6j), -1j, -1.0]), 3),
                ordering=FORWARD,
                dim=3,
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


# Round-trip error of an input inside the gate, in units of its defect plus
# N eps.  Fixed; the measured worst case is about 3.3 over 4000 draws of
# these perturbations, and about 5 for rank-one ones rotated onto a
# coordinate axis.
GATE_ROUND_TRIP = 8.0


class TestGate:
    @given(dim=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 2),
           frac=st.one_of(st.just(1.0), st.floats(0.0, 1.0)), rank_one=st.booleans())
    @settings(max_examples=100)
    def test_round_trip_at_the_gate(self, dim, seed, frac, rank_one):
        tol = Tolerances().unitarity_tol
        u = perturbed_to_defect(dim, seed, frac, rank_one, tol)
        defect = unitarity_error(u)
        assert defect <= tol
        if frac == 1.0:
            assert defect >= 0.999 * tol
        bound = GATE_ROUND_TRIP * (defect + dim * np.finfo(float).eps)
        # The reversed loop factors its input's adjoint, so it is gated on
        # the defect of u when it is given u^dag.
        for dec, conv, m in ((decompose, cosets_from_householder, u),
                             (decompose_reversed, cosets_from_householder_reversed,
                              u.conj().T)):
            f = dec(m)
            assert maxdiff(reconstruct(f), m) <= bound
            assert maxdiff(compose_cosets(conv(f)), m) <= bound


# Dims on both sides of the panel crossovers, up to the reversed repro's.
LOOP_GATE_DIMS = [1, 2, 3, 12, 64, 65, 130, 300]
# Largest defect, in units of the tolerance, of an input whose every column
# check passes: 3 tol + O(N tol^2), up to rounding (see _clear_columns).
GATE_REJECT = 3.0


def round_trip_bound(dim, defect):
    return ROUND_TRIP_FACTOR * (math.sqrt(dim) * defect + dim * np.finfo(float).eps)


class TestLoopGate:
    @given(dim=st.sampled_from(LOOP_GATE_DIMS), seed=st.integers(0, 2 ** 32 - 2),
           frac=st.one_of(st.just(1.0), st.floats(0.0, 1.0), st.floats(3.01, 30.0)),
           rank_one=st.booleans())
    @settings(max_examples=60)
    @example(dim=300, seed=0, frac=1.0, rank_one=True)
    @example(dim=300, seed=1, frac=1.0, rank_one=False)
    @example(dim=300, seed=2, frac=3.01, rank_one=True)
    @example(dim=130, seed=3, frac=3.01, rank_one=False)
    @example(dim=65, seed=4, frac=1.0, rank_one=True)
    def test_gate_is_the_defect_of_the_factored_matrix(self, dim, seed, frac, rank_one):
        # Forward on u and reversed on u^dag both factor u, so both are gated
        # on unitarity_error(u): inside the gate they factor and round-trip
        # within ROUND_TRIP_FACTOR (sqrt(N) defect + N eps); past GATE_REJECT
        # times it they raise a NotUnitaryError naming the level.
        tol = Tolerances().unitarity_tol
        u = perturbed_to_defect(dim, seed, frac, rank_one, tol)
        defect = unitarity_error(u)
        for dec, conv, m in ((decompose, cosets_from_householder, u),
                             (decompose_reversed, cosets_from_householder_reversed,
                              u.conj().T)):
            if frac <= 1.0:
                assert defect <= tol
                f = dec(m)
                assert maxdiff(reconstruct(f), m) <= round_trip_bound(dim, defect)
                assert maxdiff(compose_cosets(conv(f)), m) <= round_trip_bound(dim, defect)
            else:
                assert defect >= GATE_REJECT * tol + dim * np.finfo(float).eps
                with pytest.raises(NotUnitaryError, match=r"^unitarity defect at level \d+:"):
                    dec(m)

    def test_reversed_repro(self):
        # U^dag U - 1 is inside the gate and U U^dag - 1 is 300 times it:
        # forward factors U, and reversed, which factors U^dag, refuses it at
        # its first column, before the residual could end in a PhaseError.
        u = reversed_repro()
        tol = Tolerances().unitarity_tol
        assert unitarity_error(u) <= tol and unitarity_error(u.conj().T) >= 299 * tol
        assert maxdiff(reconstruct(decompose(u)), u) <= round_trip_bound(300, tol)
        with pytest.raises(NotUnitLengthError, match="^unitarity defect at level 1:"):
            decompose_reversed(u)

    @pytest.mark.parametrize("dim, j", [(48, 40), (96, 40), (130, 97), (300, 200)])
    @pytest.mark.parametrize("dec, adjoint", [(decompose, False), (decompose_reversed, True)])
    def test_defect_is_rejected_at_its_own_level(self, dim, j, dec, adjoint):
        # A defect in column j alone, in a later panel, passes every level
        # before it and is refused at level j + 1: a column scaled off unit
        # length, and one with a component along column 5, renormalized.
        u = random_unitary(dim, 740 + dim)
        scaled = u.copy()
        scaled[:, j] *= 1.0 + 1e-8
        mixed = u.copy()
        mixed[:, j] += 1e-8 * u[:, 5]
        mixed[:, j] /= np.linalg.norm(mixed[:, j])
        for m, error in ((scaled, NotUnitLengthError), (mixed, LeadingComponentsNonzeroError)):
            with pytest.raises(error, match=rf"^unitarity defect at level {j + 1}:"):
                dec(m.conj().T if adjoint else m)


def unblocked_column_loop(u):
    # Reference forward factorization: one dense reflection per level, each
    # applied to the whole matrix; returns pivots, pivot phases and residual.
    a = np.array(u, dtype=complex)
    n = a.shape[0]
    pivots = np.zeros((n - 1, n), dtype=complex)
    phases = np.zeros(n - 1)
    for k in range(n - 1):
        w = a[:, k].copy()
        w[:k] = 0.0
        phases[k] = np.angle(w[k])
        w[k] += np.exp(1j * phases[k])
        a -= (2.0 / np.vdot(w, w).real) * np.outer(w, w.conj() @ a)
        pivots[k] = w
    return pivots, phases, np.diag(a)


PANEL_DIMS = [1, 2, _PANEL - 1, _PANEL, _PANEL + 1, _PANEL + 2, _PANEL + _PANEL // 2,
              2 * _PANEL + 1, 3 * _PANEL, 3 * _PANEL + 2]
PANEL_ORDERINGS = [
    (decompose, cosets_from_householder, False),
    (decompose_reversed, cosets_from_householder_reversed, True),
]


class TestPanels:
    def test_panels_depend_only_on_dim(self):
        # Every panel is _PANEL levels but the last, whatever follows it.
        def widths(n):
            return [hi - lo for lo, hi in _panels(n)]

        assert widths(1) == []
        assert widths(2) == [1]
        assert widths(_PANEL + 1) == [_PANEL]
        assert widths(_PANEL + _PANEL // 2) == [_PANEL, _PANEL // 2 - 1]
        assert widths(2 * _PANEL) == [_PANEL, _PANEL - 1]
        assert widths(3 * _PANEL + 2) == [_PANEL] * 3 + [1]
        assert widths(256) == [_PANEL] * 7 + [_PANEL - 1]
        for n in range(1, 3 * _PANEL + 3):
            covered = [i for lo, hi in _panels(n) for i in range(lo, hi)]
            assert covered == list(range(n - 1))

    @pytest.mark.parametrize("dim", PANEL_DIMS)
    @pytest.mark.parametrize("dec, conv, adjoint", PANEL_ORDERINGS)
    def test_matches_unblocked_column_loop(self, dim, dec, conv, adjoint):
        u = random_unitary(dim, 700 + dim)
        f = dec(u)
        # The reversed pivots are those of the forward loop on U^dag.
        pivots, phases, residual = unblocked_column_loop(np.conj(u).T if adjoint else u)
        if adjoint:
            phases, residual = -phases, np.conj(residual)
        got = np.array([r.pivot for r in f.reflections]).reshape(dim - 1, dim)
        assert np.all(np.abs(got - pivots) <= 1e-12)
        assert np.all(np.abs(np.exp(1j * f.pivot_phases) - np.exp(1j * phases)) <= 1e-12)
        assert maxdiff(f.residual.phases, residual) <= 1e-12
        deviation = f.residual.phases[: dim - 1] + np.exp(1j * f.pivot_phases)
        assert np.all(np.abs(deviation) <= 1e-12)
        assert maxdiff(reconstruct(f), u) <= 1e-12
        assert maxdiff(compose_cosets(conv(f)), u) <= 1e-12

    # Bit for bit, in both orderings: one narrow panel (3, 16 and 17), a
    # full panel and a narrow one (40), two full panels and a narrow one (67).
    @pytest.mark.parametrize("n", [3, 16, 17, 40, 67])
    @pytest.mark.parametrize("ordering", [FORWARD, REVERSED])
    def test_stacked_product_matches_each_matrix(self, ordering, n):
        fs = [decompose(random_unitary(n, 710 + k)) for k in range(3)]
        # A stack's batch axis trails: pivots (n - 1, n, 3), phases (n, 3).
        pivots = np.stack([f.pivots for f in fs], axis=-1)
        phases = np.stack([f.residual.phases for f in fs], axis=-1)
        stacked = _product(pivots, phases, ordering)
        assert stacked.shape == (n, n, 3)
        for k in range(3):
            expected = _product(pivots[..., k], phases[..., k], ordering)
            assert stacked[..., k].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dec", [decompose, decompose_reversed])
    def test_column_loop_makes_no_copies(self, monkeypatch, dec):
        calls = {"apply_reflection": 0, "pivot_from_column": 0, "unitarity_error": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name, fn in (("apply_reflection", apply_reflection),
                         ("pivot_from_column", pivot_from_column),
                         ("unitarity_error", unitarity_error)):
            for module in (ucoset, ucoset.numkit, ucoset.householder, ucoset.coset):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, fn))
        n = 2 * _PANEL + 1
        u = random_unitary(n, 720)
        f = dec(u)
        assert calls == {"apply_reflection": 0, "pivot_from_column": 0,
                         "unitarity_error": 0}
        assert maxdiff(reconstruct(f), u) <= 1e-12


def rank1_product(pivots, phases, ordering):
    # Reference product of one matrix, one dense rank-1 update per
    # reflection from the phase diagonal outwards: R(u_1) ... R(u_{N-1}) D
    # (forward) or D R(u_{N-1}) ... R(u_1) (reversed).
    t = np.diag(phases).astype(complex)
    for u in pivots[::-1]:
        c = 2.0 / np.vdot(u, u).real
        if ordering == FORWARD:
            t -= c * np.outer(u, u.conj() @ t)
        else:
            t -= c * np.outer(t @ u, u.conj())
    return t


# Products on both sides of the Haar sampler's switch, _WY_WIDTH - 1
# reflections (the widest draw of rank-1 steps), _WY_WIDTH and one more; of a
# full panel and then a last one of _WY_WIDTH - 1, _WY_WIDTH and
# _WY_WIDTH + 1; and 2 _PANEL +- 1.  Every one runs panels, each with its T.
PRODUCT_DIMS = [_WY_WIDTH, _WY_WIDTH + 1, _WY_WIDTH + 2, _PANEL + _WY_WIDTH,
                _PANEL + _WY_WIDTH + 1, _PANEL + _WY_WIDTH + 2, 2 * _PANEL - 1, 2 * _PANEL + 1]


class TestProductPanels:
    def test_products_form_one_factor_per_panel(self, monkeypatch):
        # A product of a record, of one reflection (2), of a few (3), on
        # both sides of the sampler's _WY_WIDTH (16, 17) or of several
        # panels, forms one Y^dag per panel, a narrow last panel included,
        # the last panel first, when the record is built by its constructor;
        # a decomposed record carries the column loop's own WY form and
        # forms none.
        calls = []
        wy_panel = ucoset.householder._wy_panel

        def counting(v):
            calls.append(v.shape[-2])
            return wy_panel(v)

        monkeypatch.setattr(ucoset.householder, "_wy_panel", counting)
        for n, widths in ((2, [1]), (3, [2]), (_WY_WIDTH, [_WY_WIDTH - 1]),
                          (_WY_WIDTH + 1, [_WY_WIDTH]),
                          (_PANEL + 2, [1, _PANEL]),
                          (_PANEL + _WY_WIDTH, [_WY_WIDTH - 1, _PANEL]),
                          (_PANEL + _WY_WIDTH + 1, [_WY_WIDTH, _PANEL]),
                          (2 * _PANEL + 1, [_PANEL, _PANEL])):
            u = random_unitary(n, 730 + n)
            calls.clear()
            f = decompose(u)
            assert maxdiff(reconstruct(f), u) <= 1e-12
            assert calls == []
            g = HouseholderFactorization(f.pivots, f.residual, f.ordering, f.dim)
            assert maxdiff(reconstruct(g), u) <= 1e-12
            assert calls == widths

    @pytest.mark.parametrize("count", [None, 3], ids=["matrix", "stack"])
    def test_wy_factors_are_the_rank1_products(self, count):
        # Panels of widths 1, _WY_WIDTH, _PANEL - 1 and _PANEL, each with
        # its own T: with Y the adjoint of each panel's factor, 1 - Y V^dag
        # over the panel's own columns is the product of its reflections.
        widths = [1, _WY_WIDTH, _PANEL - 1, _PANEL]
        bounds = np.cumsum([0] + widths)
        panels = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        n = int(bounds[-1]) + 1
        rng = np.random.default_rng(740)
        shape = (() if count is None else (count,)) + (n - 1, n)
        stack = np.triu(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        stack[..., range(n - 1), range(n - 1)] += 2.0
        # _conj_panel takes the pivots batch-last, as a product hands them,
        # and _wy_panel returns conj(Y^dag) of the panel it is handed:
        # handed the conjugate of stack, it returns Y^dag of each panel of
        # stack's own pivots.
        pivots = (stack if count is None else np.moveaxis(stack, 0, -1)).conj()
        wy = [_wy_panel(_conj_panel(pivots, lo, hi)) for lo, hi in panels]
        assert [y.shape for y in wy] == [shape[:-2] + (hi - lo, n - lo) for lo, hi in panels]
        for k, p in enumerate(stack.reshape(-1, n - 1, n)):
            for (lo, hi), y in zip(panels, wy):
                v, yh = p[lo:hi, lo:].T, y.reshape(-1, hi - lo, n - lo)[k]
                m = np.eye(n - lo) - yh.conj().T @ v.conj().T
                expected = rank1_product(p[lo:hi, lo:], np.ones(n - lo), FORWARD)
                assert maxdiff(m, expected) <= 1e-13

    @given(dim=st.integers(2, 70), count=st.integers(1, 4),
           ordering=st.sampled_from([FORWARD, REVERSED]), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40)
    @example(dim=PRODUCT_DIMS[0], count=1, ordering=FORWARD, seed=0)
    @example(dim=PRODUCT_DIMS[1], count=2, ordering=REVERSED, seed=1)
    @example(dim=PRODUCT_DIMS[2], count=3, ordering=FORWARD, seed=2)
    @example(dim=PRODUCT_DIMS[3], count=4, ordering=REVERSED, seed=3)
    @example(dim=PRODUCT_DIMS[4], count=1, ordering=FORWARD, seed=4)
    @example(dim=PRODUCT_DIMS[5], count=2, ordering=REVERSED, seed=5)
    @example(dim=PRODUCT_DIMS[6], count=3, ordering=FORWARD, seed=6)
    @example(dim=PRODUCT_DIMS[7], count=4, ordering=REVERSED, seed=7)
    def test_product_matches_rank1_reference(self, dim, count, ordering, seed):
        # Any nonzero pivots with exact zeros before their levels, and any
        # unit phases: the product is unitary whatever the stack holds.
        rng = np.random.default_rng(seed)
        shape = (count, dim - 1, dim)
        pivots = np.triu(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        pivots[:, range(dim - 1), range(dim - 1)] += 2.0
        phases = np.exp(1j * rng.uniform(-math.pi, math.pi, (count, dim)))
        stacked = _product(np.moveaxis(pivots, 0, -1), phases.T, ordering)
        assert stacked.shape == (dim, dim, count)
        for k in range(count):
            expected = rank1_product(pivots[k], phases[k], ordering)
            assert maxdiff(stacked[..., k], expected) <= 1e-13 * dim
            assert maxdiff(_product(pivots[k], phases[k], ordering), expected) <= 1e-13 * dim
        u = random_unitary(dim, seed)
        for dec, conv, _ in PANEL_ORDERINGS:
            f = dec(u)
            assert maxdiff(reconstruct(f), u) <= 1e-12
            assert maxdiff(compose_cosets(conv(f)), u) <= 1e-12


class TestCarriedFactor:
    # The column loop keeps each panel's Y^dag in the record it returns, and
    # both conversions hand it on, so products of a decomposed matrix form
    # none; the same pivots in a constructed record form it, one panel at a
    # time (_wy_panel).
    # Last panels of 1, _WY_WIDTH - 1, 32 and 31 reflections.
    @pytest.mark.parametrize("n", [_PANEL + 2, _PANEL + _WY_WIDTH, 2 * _PANEL + 1, 256])
    @pytest.mark.parametrize("dec, conv, _", PANEL_ORDERINGS)
    def test_products_of_a_decomposed_record_form_no_factor(self, monkeypatch, n, dec, conv, _):
        calls = []
        wy_panel = ucoset.householder._wy_panel

        def counting(v):
            calls.append(v.shape[-2])
            return wy_panel(v)

        monkeypatch.setattr(ucoset.householder, "_wy_panel", counting)
        u = random_unitary(n, 750 + n)
        f = dec(u)
        cf = conv(f)
        carried = [reconstruct(f), compose_cosets(cf)]
        assert calls == []
        bare = [reconstruct(HouseholderFactorization(f.pivots, f.residual, f.ordering, n)),
                compose_cosets(type(cf)(cf.pivots, cf.terminal_phases, cf.ordering, n))]
        assert calls == [hi - lo for lo, hi in reversed(_panels(n))] * 2
        expected = rank1_product(f.pivots, f.residual.phases, f.ordering)
        for got, without in zip(carried, bare):
            assert maxdiff(got, without) <= 1e-14
            assert maxdiff(got, expected) <= 1e-13 * n
            assert maxdiff(got, u) <= 1e-12

    # One panel (33), a narrow last panel (65) and full panels only (256).
    @pytest.mark.parametrize("n", [_PANEL + 1, 2 * _PANEL + 1, 256])
    @pytest.mark.parametrize("dec, conv, _", PANEL_ORDERINGS)
    def test_products_copy_each_panel_once(self, monkeypatch, n, dec, conv, _):
        # A blocked product walks its panels once, the last first, and takes
        # each panel's V^dag in one copy, whether it carries the factor or
        # forms it from that copy.
        calls = []
        conj_panel = ucoset.householder._conj_panel

        def counting(p, lo, hi, flip=False):
            calls.append((lo, hi))
            return conj_panel(p, lo, hi, flip)

        monkeypatch.setattr(ucoset.householder, "_conj_panel", counting)
        u = random_unitary(n, 755 + n)
        f = dec(u)
        cf = conv(f)
        for fn, record in ((reconstruct, f), (compose_cosets, cf),
                           (reconstruct, HouseholderFactorization(f.pivots, f.residual,
                                                                  f.ordering, n)),
                           (compose_cosets, type(cf)(cf.pivots, cf.terminal_phases,
                                                     cf.ordering, n))):
            calls.clear()
            assert maxdiff(fn(record), u) <= 1e-12
            assert calls == _panels(n)[::-1]

    @pytest.mark.parametrize("dec, conv, _", PANEL_ORDERINGS)
    def test_factor_is_private_and_read_only(self, dec, conv, _):
        n = 2 * _PANEL + 1
        f = dec(random_unitary(n, 760))
        cf = conv(f)
        assert [y.shape for y in f._wy] == [(hi - lo, n - lo) for lo, hi in _panels(n)]
        assert not any(y.flags.writeable for y in f._wy)
        assert cf._wy is f._wy
        for record in (f, cf):
            with pytest.raises(dataclasses.FrozenInstanceError):
                record._wy = None
            assert "_wy" not in repr(record)
            assert "_wy" not in inspect.signature(type(record)).parameters
        with pytest.raises(TypeError):
            HouseholderFactorization(f.pivots, f.residual, f.ordering, n, _wy=f._wy)
        assert HouseholderFactorization(f.pivots, f.residual, f.ordering, n)._wy is None
        assert type(cf)(cf.pivots, cf.terminal_phases, cf.ordering, n)._wy is None


def traced_peak(fn, arg):
    # fn(arg) and the peak of the memory traced while it ran.
    tracemalloc.start()
    try:
        return fn(arg), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTracedPeak:
    # Bounds fixed from the arrays each call must hold at once, in units of
    # one N x N complex array: the work array or the product (1); one
    # blocked update's temporary, at most N x N (1); and either the WY
    # factors the column loop keeps, sum b (N - lo) over its panels so far,
    # with the current panel's contiguous copy of its pivots, b (N - lo),
    # or a product's panel of V^dag, b (N - lo) entries, which becomes
    # V^dag B in place, with its one matrix product's temporary, b (N - hi),
    # with b <= _PANEL, at most 1 at N >= 64 either way.  A record without the
    # carried factor forms each panel's in the pass that applies it, one
    # panel's Y, b (N - lo) entries, and its Gram and inverse, b^2 each, at
    # a time (under 1 more).  A coset record's
    # product is its Householder record's, a reversed one negating each
    # corner in the panel copies of V^dag both make, so it holds no more
    # than that product and the terminal phases (1/16 of a unit covers
    # those): a copy of the whole stack, with or without the carried
    # factor, adds (N - 1) / N of a unit while the factors are formed.
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("dec, conv, _", PANEL_ORDERINGS)
    def test_peak_stays_below_the_arrays_the_design_keeps(self, n, dec, conv, _):
        unit = n * n * 16
        u = random_unitary(n, 770 + n)
        f, peak = traced_peak(dec, u)
        assert peak <= 3 * unit
        cf = conv(f)
        g = HouseholderFactorization(f.pivots, f.residual, f.ordering, n)
        cg = type(cf)(cf.pivots, cf.terminal_phases, cf.ordering, n)
        peaks = []
        for fn, record, bound in ((reconstruct, f, 3), (reconstruct, g, 4),
                                  (compose_cosets, cf, 3), (compose_cosets, cg, 4)):
            m, peak = traced_peak(fn, record)
            assert maxdiff(m, u) <= 1e-12
            assert peak <= bound * unit
            peaks.append(peak)
        assert peaks[2] <= peaks[0] + unit / 16 and peaks[3] <= peaks[1] + unit / 16

    # In complex entries, b = _PANEL: both products peak in the first
    # panel's update, applied last, holding the product, V^dag B and the
    # update's N x N temporary, 2 N^2 + b N; a constructed record's also
    # holds that panel's Y there, b N more.  While it forms a panel's Y it
    # holds the product, the panel's V^dag, a conjugate of it, the Gram or
    # its inverse beside it and the later panel's Y, under
    # N^2 + 4 b N + 2 b^2, below 2 N^2 at N >= 256.  So the excess is under
    # one panel's Y, Gram and inverse, b N + 2 b^2.
    @pytest.mark.parametrize("n", [256, 1024])
    def test_formed_factor_adds_one_panel(self, n):
        u = random_unitary(n, 780 + n)
        f = decompose(u)
        g = HouseholderFactorization(f.pivots, f.residual, f.ordering, n)
        carried, carried_peak = traced_peak(reconstruct, f)
        formed, formed_peak = traced_peak(reconstruct, g)
        assert maxdiff(carried, u) <= 1e-12 and maxdiff(formed, u) <= 1e-12
        assert formed_peak - carried_peak < (_PANEL * n + 2 * _PANEL ** 2) * 16


class TestAccuracy:
    # Higham (2002) §19.3 bounds the backward error of r reflections of
    # length m applied to a unit column by r gamma~_m = c r m u in 2-norm,
    # u = eps / 2 the unit roundoff and c a small integer, taken here as 16.
    # Rounding errors that add as independent ones grow as the square root
    # of such a constant (his rule of thumb, §2.8), so one product of
    # N - 1 reflections of length at most N is within sqrt(16 N^2) u = 2 N eps
    # of its exact value.  A round trip, the column loop and then a product,
    # is two such passes, sqrt(2) times one; a product's unitarity defect
    # is twice its distance from a unitary matrix.  Fixed before measuring.
    PASS = 2.0 * np.finfo(float).eps

    # One panel (2, of one reflection, to 33), a narrow last panel (34 and
    # 66, of one reflection; 40, 48, 72) and full panels only (64, 65, 128,
    # 256).  Before a panel acts, its own rows and columns of the product
    # are the identity, so a panel of one reflection takes only V^dag's
    # first column as it is.
    @pytest.mark.parametrize("n", [2, 3, 16, 17, 33, 34, 40, 48, 64, 65, 66, 72, 128, 256])
    @pytest.mark.parametrize("dec, conv, _", PANEL_ORDERINGS)
    def test_round_trip_within_a_multiple_of_n_eps(self, n, dec, conv, _):
        u = random_unitary(n, 770 + n)
        f = dec(u)
        cf = conv(f)
        products = [reconstruct(f), compose_cosets(cf),
                    reconstruct(HouseholderFactorization(f.pivots, f.residual, f.ordering, n)),
                    compose_cosets(type(cf)(cf.pivots, cf.terminal_phases, cf.ordering, n))]
        for k, p in enumerate(products):
            assert maxdiff(p, u) <= math.sqrt(2.0) * self.PASS * n, k
            assert unitarity_error(p) <= 2.0 * self.PASS * n, k

    # A monomial matrix, a permutation times unit phases, draws only the
    # degenerate pivots: each column is cleared either where it stands
    # (|w_k| = 1, so rho 1 and X zero) or from a later row (w_k = 0, so
    # rho 0 and X one entry of modulus 1), the two edges of the ball.
    @pytest.mark.parametrize("n", [*range(1, 41), 64, 65])
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=3)
    def test_monomial_matrices_take_degenerate_pivots(self, n, seed):
        rng = np.random.default_rng(seed)
        u = np.zeros((n, n), dtype=complex)
        u[rng.permutation(n), np.arange(n)] = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        few = 4.0 * np.finfo(float).eps
        for dec, conv, _ in PANEL_ORDERINGS:
            f = dec(u)
            cf = conv(f)
            for p in (reconstruct(f), compose_cosets(cf)):
                assert maxdiff(p, u) <= math.sqrt(2.0) * self.PASS * n
            for c in cf.factors:
                v = c.vector
                moduli = np.sort(np.abs(v.x))[::-1]
                if v.rho > 0.5:
                    assert abs(v.rho - 1.0) <= few and moduli.max() <= few, c.level
                else:
                    assert v.rho <= few and abs(moduli[0] - 1.0) <= few, c.level
                    assert moduli[1:].max(initial=0.0) <= few, c.level

    def test_round_trip_at_1024(self):
        # The largest size, one matrix in both orderings.  A decomposed
        # record's coset conversion composes to the bits of its reconstruct
        # (its stack and phases come back exactly), so one product per
        # ordering holds the bounds for both.
        n = 1024
        u = random_unitary(n, 770 + n)
        for dec, conv, _ in PANEL_ORDERINGS:
            f = dec(u)
            p = reconstruct(f)
            assert compose_cosets(conv(f)).tobytes() == p.tobytes()
            assert maxdiff(p, u) <= math.sqrt(2.0) * self.PASS * n
            assert unitarity_error(p) <= 2.0 * self.PASS * n


def factorization_with(**changes):
    f = decompose(U0)
    fields = dict(pivots=f.pivots, residual=f.residual, ordering=FORWARD, dim=3)
    return HouseholderFactorization(**{**fields, **changes})


def edited_pivots(row, col, value):
    pivots = decompose(U0).pivots.copy()
    pivots[row, col] = value
    return pivots


BAD_INPUTS = {
    "reflection-level": lambda: Reflection(pivot=np.array([1.0, 1.0]), level=2, dim=2),
    "reflection-nonfinite": lambda: Reflection(pivot=np.array([np.nan, 1.0]), level=1, dim=2),
    "reflection-length": lambda: Reflection(pivot=np.array([2.0, 0.0, 0.0]), level=1, dim=2),
    "reflection-ragged": lambda: Reflection(pivot=[2.0, [0.0]], level=1, dim=2),
    "phases-ragged": lambda: PhaseDiagonal([1.0, [1.0]], 2),
    "phases-nonfinite": lambda: PhaseDiagonal(np.array([np.inf, 1.0]), 2),
    "phases-dim0": lambda: PhaseDiagonal(np.ones(0), 0),
    "factorization-ordering": lambda: factorization_with(ordering="sideways"),
    "factorization-dim": lambda: factorization_with(dim=0),
    "factorization-levels": lambda: factorization_with(
        pivots=decompose(U0).pivots[::-1]),
    "factorization-residual-dim": lambda: factorization_with(
        residual=PhaseDiagonal(np.ones(2), 2)),
    "stack-zero-row": lambda: factorization_with(pivots=edited_pivots(1, slice(None), 0.0)),
    "stack-nonfinite": lambda: factorization_with(pivots=edited_pivots(1, 2, np.nan)),
    "stack-overflowing-norm": lambda: factorization_with(pivots=edited_pivots(0, 2, 1e200)),
    "stack-leading": lambda: factorization_with(pivots=edited_pivots(1, 0, 1e-300)),
    "stack-shape": lambda: factorization_with(pivots=decompose(U0).pivots[:1]),
    "stack-ragged": lambda: factorization_with(pivots=[[2.0, 0.0, 0.0], [0.0, 2.0]]),
    "apply-side": lambda: apply_reflection(decompose(U0).reflections[0], np.eye(3), "top"),
    "apply-3d": lambda: apply_reflection(decompose(U0).reflections[0], np.ones((3, 3, 3))),
    "apply-ragged": lambda: apply_reflection(decompose(U0).reflections[0], [1.0, [0.0], 0.0]),
    "column-nonfinite": lambda: pivot_from_column(np.array([np.nan, 1.0]), 1),
    "column-level": lambda: pivot_from_column(np.array([1.0, 0.0]), 2),
    "column-2d": lambda: pivot_from_column(np.ones((2, 1)), 1),
    "column-ragged": lambda: pivot_from_column([1.0, [0.0]], 1),
    "decompose-ragged": lambda: decompose([[1.0, 0.0], [0.0]]),
    # An integer past the float range is not finite; an array is no ordering
    # or side, though `in` would compare it entrywise.
    "decompose-int-overflow": lambda: decompose([[10 ** 400]]),
    "column-int-overflow": lambda: pivot_from_column([10 ** 400, 0.0], 1),
    "apply-int-overflow": lambda: apply_reflection(decompose(U0).reflections[0],
                                                   [10 ** 400, 0.0, 0.0]),
    "phases-int-overflow": lambda: PhaseDiagonal([10 ** 400, 1.0], 2),
    "stack-int-overflow": lambda: factorization_with(
        pivots=[[10 ** 400, 0.0, 0.0], [0.0, 2.0, 0.0]]),
    "factorization-ordering-array": lambda: factorization_with(ordering=np.zeros((2, 2))),
    "apply-side-array": lambda: apply_reflection(decompose(U0).reflections[0], np.eye(3),
                                                 np.zeros((2, 2))),
    # A finite operand whose reflection overflows, with no warning on the way.
    "apply-overflow": lambda: apply_reflection(Reflection(np.array([1, 1, 0j]), 1, 3),
                                               np.full(3, 1e308)),
}


@pytest.mark.parametrize("build", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises_typed_error(build):
    with pytest.raises(UcosetError):
        build()
