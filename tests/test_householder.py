import math

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
from ucoset.householder import _PANEL, _WY_WIDTH, _panels, _product

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

        def counting(col, p, level, tol):
            calls.append(level)
            return helper(col, p, level, tol)

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
        assert factorization_with(pivots=f.pivots).pivots is f.pivots

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


def perturbed_to_defect(dim, seed, frac, rank_one, tol):
    # U V diag(sqrt(1 + t r)) V^dag for a Haar U: (U')^dag U' - 1 is
    # t V diag(r) V^dag, so t is chosen for a defect of frac times the gate,
    # less a 1e-4 margin for rounding.  The rank-one case puts r = +-1 on
    # a direction with entries of equal modulus, which maximizes the 2-norm
    # of the defect for its largest entry.
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, seed)
    v = random_unitary(dim, seed + 1)
    r = rng.uniform(-1.0, 1.0, dim)
    if rank_one:
        x = np.exp(1j * rng.uniform(-math.pi, math.pi, dim)) / math.sqrt(dim)
        v, _ = np.linalg.qr(np.column_stack([x, v[:, 1:]]))
        r = np.zeros(dim)
        r[0] = rng.choice([-1.0, 1.0])
    t = frac * tol * (1.0 - 1e-4) / float(np.max(np.abs((v * r) @ v.conj().T)))
    return ((u @ v) * np.sqrt(1.0 + t * r)) @ v.conj().T


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
        for dec, conv in ((decompose, cosets_from_householder),
                          (decompose_reversed, cosets_from_householder_reversed)):
            f = dec(u)
            assert maxdiff(reconstruct(f), u) <= bound
            assert maxdiff(compose_cosets(conv(f)), u) <= bound


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


PANEL_DIMS = [1, 2, _PANEL - 1, _PANEL, _PANEL + 1, _PANEL + 2, 2 * _PANEL + 1, 3 * _PANEL + 2]
PANEL_ORDERINGS = [
    (decompose, cosets_from_householder, False),
    (decompose_reversed, cosets_from_householder_reversed, True),
]


class TestPanels:
    def test_crossover_depends_only_on_dim(self):
        # A panel is blocked when at least _PANEL columns follow it.
        def blocked(n):
            return [end < n for _, _, end in _panels(n)]

        assert blocked(1) == []
        assert blocked(_PANEL + 1) == [False]
        assert blocked(2 * _PANEL - 1) == [False, False]
        assert blocked(2 * _PANEL) == [True, False]
        assert blocked(3 * _PANEL + 2) == [True, True, False, False]
        assert blocked(256) == [True] * 7 + [False]
        for n in range(1, 3 * _PANEL + 3):
            covered = [i for lo, hi, _ in _panels(n) for i in range(lo, hi)]
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

    @pytest.mark.parametrize("ordering", [FORWARD, REVERSED])
    def test_stacked_product_matches_each_matrix(self, ordering):
        n = 2 * _PANEL + 3
        fs = [decompose(random_unitary(n, 710 + k)) for k in range(3)]
        pivots = np.array([[r.pivot for r in f.reflections] for f in fs])
        phases = np.array([f.residual.phases for f in fs])
        stacked = _product(pivots, phases, ordering)
        assert stacked.shape == (3, n, n)
        for k in range(3):
            assert maxdiff(stacked[k], _product(pivots[k], phases[k], ordering)) <= 1e-13

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
                         "unitarity_error": 1}
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


# Products whose last panel is one narrower than _WY_WIDTH, exactly it and
# one wider, alone and after a full panel, and 2 _PANEL +- 1.
PRODUCT_DIMS = [_WY_WIDTH, _WY_WIDTH + 1, _WY_WIDTH + 2, _PANEL + _WY_WIDTH,
                _PANEL + _WY_WIDTH + 1, _PANEL + _WY_WIDTH + 2, 2 * _PANEL - 1, 2 * _PANEL + 1]


class TestProductPanels:
    def test_product_blocks_panels_by_width(self, monkeypatch):
        # Only panels of at least _WY_WIDTH reflections form T, whatever
        # follows them; the column loop keeps its rule by trailing columns.
        calls = []
        wy_factor = ucoset.householder._wy_factor

        def counting(v, c):
            calls.append(c.shape[-1])
            return wy_factor(v, c)

        monkeypatch.setattr(ucoset.householder, "_wy_factor", counting)
        for n, widths in ((_WY_WIDTH, []), (_WY_WIDTH + 1, [_WY_WIDTH]),
                          (_PANEL + _WY_WIDTH, [_PANEL]),
                          (_PANEL + _WY_WIDTH + 1, [_WY_WIDTH, _PANEL]),
                          (2 * _PANEL + 1, [_PANEL, _PANEL])):
            u = random_unitary(n, 730 + n)
            f = decompose(u)
            calls.clear()
            assert maxdiff(reconstruct(f), u) <= 1e-12
            assert calls == widths

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
        stacked = _product(pivots, phases, ordering)
        assert stacked.shape == (count, dim, dim)
        for k in range(count):
            expected = rank1_product(pivots[k], phases[k], ordering)
            assert maxdiff(stacked[k], expected) <= 1e-13 * dim
            assert maxdiff(_product(pivots[k], phases[k], ordering), expected) <= 1e-13 * dim
        u = random_unitary(dim, seed)
        for dec, conv, _ in PANEL_ORDERINGS:
            f = dec(u)
            assert maxdiff(reconstruct(f), u) <= 1e-12
            assert maxdiff(compose_cosets(conv(f)), u) <= 1e-12


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
}


@pytest.mark.parametrize("build", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises_typed_error(build):
    with pytest.raises(UcosetError):
        build()
