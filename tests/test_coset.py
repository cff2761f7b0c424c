import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ucoset import (
    BallViolationError,
    CosetFactor,
    CosetFactorization,
    CosetVector,
    Gamma,
    HouseholderFactorization,
    Generator,
    MalformedFactorError,
    PhaseDiagonal,
    Reflection,
    RhoRangeError,
    UcosetError,
    WrongOrderingError,
    compose_cosets,
    coset_matrix_from_X,
    coset_u2_explicit,
    coset_u3_explicit,
    cosets_from_householder,
    cosets_from_householder_reversed,
    decompose,
    decompose_reversed,
    exp_coset,
    expm_series,
    extract_coset_vector,
    gamma_from_rho,
    generator_matrix,
    normal_from_coset_vector,
    reconstruct,
    reflect_matrix,
    unitarity_error,
)
import ucoset
from ucoset.coset import _chart, _factors, _lone
from ucoset.householder import FORWARD, REVERSED

from golden_data import (
    C1,
    C1_REV,
    C2,
    C2_REV,
    PIVOT_U1,
    RHO1,
    S,
    Q,
    T,
    TERMINAL,
    TERMINAL_REV,
    U0,
    X1,
    maxdiff,
    random_unitary,
)

coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def ball_vectors(draw, max_len=5):
    length = draw(st.integers(min_value=1, max_value=max_len))
    re = draw(st.lists(coords, min_size=length, max_size=length))
    im = draw(st.lists(coords, min_size=length, max_size=length))
    v = np.array(re) + 1j * np.array(im)
    norm = float(np.linalg.norm(v))
    assume(norm > 1e-6)
    radius = draw(st.floats(0.0, 1.0, allow_nan=False))
    return v * (radius / norm)


def random_ball_vector(rng, length):
    v = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, 1.0) ** (1.0 / (2 * length))


class TestConversions:
    def test_identity_forward(self):
        cf = cosets_from_householder(decompose(np.eye(3)))
        for c in cf.factors:
            assert maxdiff(c.matrix, np.eye(3)) == 0.0
        assert maxdiff(cf.terminal_phases.phases, [1.0, 1.0, 1.0]) == 0.0

    def test_identity_reversed(self):
        cf = cosets_from_householder_reversed(decompose_reversed(np.eye(3)))
        for c in cf.factors:
            assert maxdiff(c.matrix, np.eye(3)) == 0.0
        assert maxdiff(cf.terminal_phases.phases, [1.0, 1.0, 1.0]) == 0.0

    def test_golden_forward(self):
        cf = cosets_from_householder(decompose(U0))
        assert maxdiff(cf.factors[0].matrix, C1) <= 1e-15
        assert maxdiff(cf.factors[1].matrix, C2) <= 1e-15
        assert maxdiff(cf.terminal_phases.phases, TERMINAL) <= 1e-15
        assert maxdiff(cf.factors[0].matrix[:, 0], [S, -0.5, 0.5j]) <= 1e-15

    def test_golden_reversed(self):
        cf = cosets_from_householder_reversed(decompose_reversed(U0))
        assert maxdiff(cf.factors[0].matrix, C1_REV) <= 1e-15
        assert maxdiff(cf.factors[1].matrix, C2_REV) <= 1e-15
        assert maxdiff(cf.terminal_phases.phases, TERMINAL_REV) <= 1e-15
        # The level-1 factor's (1,2) entry is 1/sqrt(2), forced by unitarity.
        assert cf.factors[0].matrix[0, 1] == pytest.approx(S)

    def test_wrong_ordering_rejected(self):
        with pytest.raises(WrongOrderingError):
            cosets_from_householder(decompose_reversed(U0))
        with pytest.raises(WrongOrderingError):
            cosets_from_householder_reversed(decompose(U0))

    def test_factor_is_reflection_times_axis_flip(self):
        # Forward factor k is R_{u_k} R_{e_k}; reversed factor k is
        # R_{e_k} R_{u_k}.
        u = random_unitary(5, 70)
        fwd = decompose(u)
        cf = cosets_from_householder(fwd)
        for refl, factor in zip(fwd.reflections, cf.factors):
            axis = np.eye(5, dtype=complex)
            axis[refl.level - 1, refl.level - 1] = -1.0
            assert maxdiff(reflect_matrix(refl) @ axis, factor.matrix) <= 1e-13
        rev = decompose_reversed(u)
        cr = cosets_from_householder_reversed(rev)
        for refl, factor in zip(rev.reflections, cr.factors):
            axis = np.eye(5, dtype=complex)
            axis[refl.level - 1, refl.level - 1] = -1.0
            assert maxdiff(axis @ reflect_matrix(refl), factor.matrix) <= 1e-13

    def test_random_forward_reconstruction(self):
        u = random_unitary(5, 71)
        cf = cosets_from_householder(decompose(u))
        assert maxdiff(compose_cosets(cf), u) <= 1e-11
        for c in cf.factors:
            assert unitarity_error(c.matrix) <= 1e-12
            xv = extract_coset_vector(c)
            assert xv.rho == pytest.approx(math.sqrt(1.0 - xv.r_sq), abs=1e-12)

    def test_random_reversed_reconstruction(self):
        u = random_unitary(4, 72)
        cf = cosets_from_householder_reversed(decompose_reversed(u))
        assert maxdiff(compose_cosets(cf), u) <= 1e-11

    def test_reversed_factors_have_coset_structure(self):
        # Row-pivot factors carry their own ball coordinates; extraction
        # works on them unchanged.
        u = random_unitary(6, 73)
        cf = cosets_from_householder_reversed(decompose_reversed(u))
        for c in cf.factors:
            xv = extract_coset_vector(c)
            rebuilt = coset_matrix_from_X(xv)
            assert maxdiff(rebuilt.matrix, c.matrix) <= 1e-12


class TestExtract:
    def test_identity_factor(self):
        xv = extract_coset_vector(CosetFactor(matrix=np.eye(3), level=2))
        assert xv.rho == 1.0
        assert maxdiff(xv.x, [0.0]) == 0.0

    def test_golden_factor(self):
        xv = extract_coset_vector(CosetFactor(matrix=C1, level=1))
        assert maxdiff(xv.x, X1) <= 1e-15
        assert xv.rho == pytest.approx(RHO1)

    def test_round_trip_random(self):
        rng = np.random.default_rng(80)
        for _ in range(50):
            x = random_ball_vector(rng, int(rng.integers(1, 5)))
            xv = CosetVector.from_coords(x, level=1, dim=x.shape[0] + 1)
            out = extract_coset_vector(coset_matrix_from_X(xv))
            assert maxdiff(out.x, x) <= 1e-13
            assert abs(out.rho - xv.rho) <= 1e-13

    @given(ball_vectors())
    @settings(max_examples=60)
    def test_round_trip_property(self, x):
        xv = CosetVector.from_coords(x, level=1, dim=x.shape[0] + 1)
        factor = coset_matrix_from_X(xv)
        assert unitarity_error(factor.matrix) <= 1e-13
        out = extract_coset_vector(factor)
        assert maxdiff(out.x, x) <= 1e-13

    def test_rejects_complex_corner(self):
        with pytest.raises(MalformedFactorError):
            extract_coset_vector(CosetFactor(matrix=np.diag([1j, 1.0]), level=1))

    def test_rejects_negative_corner(self):
        with pytest.raises(MalformedFactorError):
            extract_coset_vector(CosetFactor(matrix=np.diag([-1.0, 1.0]), level=1))

    def test_rejects_inconsistent_row(self):
        m = np.array([[S, -1j * S], [S, 1j * S]])
        with pytest.raises(MalformedFactorError):
            extract_coset_vector(CosetFactor(matrix=m, level=1))


class TestBuild:
    def test_zero_vector_gives_identity(self):
        xv = CosetVector.from_coords(np.zeros(2), level=1, dim=3)
        assert maxdiff(coset_matrix_from_X(xv).matrix, np.eye(3)) == 0.0

    def test_golden_vector(self):
        xv = CosetVector.from_coords(X1, level=1, dim=3)
        m = coset_matrix_from_X(xv).matrix
        assert maxdiff(m, C1) <= 1e-15
        assert m[1, 1] == pytest.approx(Q)
        assert m[2, 2] == pytest.approx(Q)
        assert m[1, 2] == pytest.approx(-1j * T)

    def test_boundary_vector(self):
        xv = CosetVector.from_coords(np.array([1.0, 0.0]), level=1, dim=3)
        m = coset_matrix_from_X(xv).matrix
        assert m[0, 0] == 0.0
        block = np.eye(2) - np.outer([1.0, 0.0], [1.0, 0.0])
        assert maxdiff(m[1:, 1:], block) == 0.0

    def test_determinant_one(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            x = random_ball_vector(rng, 3)
            xv = CosetVector.from_coords(x, level=1, dim=4)
            det = np.linalg.det(coset_matrix_from_X(xv).matrix)
            assert abs(det - 1.0) <= 1e-10

    def test_ball_violation(self):
        with pytest.raises(BallViolationError):
            CosetVector.from_coords(np.array([1.2, 0.0]), level=1, dim=3)


class TestGamma:
    def test_rho_one(self):
        assert gamma_from_rho(1.0, 0.0).modulus == pytest.approx(1.0)

    def test_rho_zero(self):
        assert gamma_from_rho(0.0, 0.0).modulus == pytest.approx(S)

    def test_golden_rho(self):
        g = gamma_from_rho(RHO1, math.pi / 2.0)
        assert g.modulus ** 2 == pytest.approx((1.0 + S) / 2.0)
        assert g.phase == pytest.approx(math.pi / 2.0)
        assert 2.0 * g.modulus ** 2 - 1.0 == pytest.approx(RHO1)

    def test_out_of_range(self):
        with pytest.raises(RhoRangeError):
            gamma_from_rho(1.2, 0.0)
        with pytest.raises(RhoRangeError):
            gamma_from_rho(-0.1, 0.0)

    def test_modulus_bounds_enforced(self):
        with pytest.raises(ValueError):
            Gamma(modulus=0.5, phase=0.0)


class TestNormalVector:
    def test_zero_vector_gives_axis(self):
        xv = CosetVector.from_coords(np.zeros(2), level=1, dim=3)
        n = normal_from_coset_vector(xv, 0.0)
        assert maxdiff(n, [1.0, 0.0, 0.0]) == 0.0
        r = np.eye(3) - 2.0 * np.outer(n, n.conj())
        axis = np.diag([-1.0, 1.0, 1.0])
        assert maxdiff(r @ axis, np.eye(3)) == 0.0

    def test_golden_vector_matches_pivot_direction(self):
        xv = CosetVector.from_coords(X1, level=1, dim=3)
        n = normal_from_coset_vector(xv, math.pi / 2.0)
        assert maxdiff(n, PIVOT_U1 / np.linalg.norm(PIVOT_U1)) <= 1e-15

    def test_unit_norm(self):
        rng = np.random.default_rng(82)
        for _ in range(25):
            x = random_ball_vector(rng, 4)
            xv = CosetVector.from_coords(x, level=1, dim=5)
            n = normal_from_coset_vector(xv, rng.uniform(-math.pi, math.pi))
            assert abs(np.vdot(n, n).real - 1.0) <= 1e-13

    def test_reproduces_coset_factor(self):
        rng = np.random.default_rng(83)
        for _ in range(25):
            x = random_ball_vector(rng, 2)
            xv = CosetVector.from_coords(x, level=1, dim=3)
            n = normal_from_coset_vector(xv, rng.uniform(-math.pi, math.pi))
            r = np.eye(3, dtype=complex) - 2.0 * np.outer(n, n.conj())
            axis = np.diag([-1.0, 1.0, 1.0]).astype(complex)
            assert maxdiff(r @ axis, coset_matrix_from_X(xv).matrix) <= 1e-12

    def test_phase_independence(self):
        xv = CosetVector.from_coords(np.array([0.3 - 0.4j, 0.1j]), level=1, dim=3)
        refs = []
        for phase in (0.0, 1.0, -2.5, math.pi):
            n = normal_from_coset_vector(xv, phase)
            refs.append(np.eye(3) - 2.0 * np.outer(n, n.conj()))
        for other in refs[1:]:
            assert maxdiff(refs[0], other) <= 1e-14

    def test_higher_level(self):
        xv = CosetVector.from_coords(np.array([0.5j]), level=2, dim=3)
        n = normal_from_coset_vector(xv, 0.0)
        assert n[0] == 0.0
        r = np.eye(3, dtype=complex) - 2.0 * np.outer(n, n.conj())
        axis = np.diag([1.0, -1.0, 1.0]).astype(complex)
        assert maxdiff(r @ axis, coset_matrix_from_X(xv).matrix) <= 1e-12


class TestExponential:
    def test_zero_generator(self):
        g = Generator(b=np.zeros(2), dim=3, level=1)
        assert maxdiff(exp_coset(g).matrix, np.eye(3)) == 0.0

    def test_quarter_turn(self):
        g = Generator(b=np.array([math.pi / 2.0, 0.0]), dim=3, level=1)
        m = exp_coset(g).matrix
        assert abs(m[0, 0]) <= 1e-15
        assert m[1, 0] == pytest.approx(1.0)
        assert m[2, 0] == pytest.approx(0.0)

    def test_matches_series_exponential(self):
        rng = np.random.default_rng(84)
        for _ in range(20):
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b *= rng.uniform(0.0, math.pi) / np.linalg.norm(b)
            g = Generator(b=b, dim=4, level=1)
            oracle = expm_series(generator_matrix(g))
            assert maxdiff(exp_coset(g).matrix, oracle) <= 1e-10

    def test_matches_ball_chart_inside_principal_range(self):
        rng = np.random.default_rng(85)
        for _ in range(10):
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            theta = rng.uniform(0.0, math.pi / 2.0)
            b *= theta / np.linalg.norm(b)
            g = Generator(b=b, dim=3, level=1)
            x = np.sinc(theta / math.pi) * b
            xv = CosetVector.from_coords(x, level=1, dim=3)
            assert maxdiff(exp_coset(g).matrix, coset_matrix_from_X(xv).matrix) <= 1e-13

    def test_small_angle_linearization(self):
        b = np.array([1e-9, 0.0 + 0.0j])
        g = Generator(b=b, dim=3, level=1)
        linear = np.eye(3, dtype=complex) + generator_matrix(g)
        assert maxdiff(exp_coset(g).matrix, linear) <= 1e-17

    def test_generator_norm_bound(self):
        with pytest.raises(ValueError):
            Generator(b=np.array([3.0, 1.5]), dim=3, level=1)

    def test_generator_matrix_antihermitian(self):
        g = Generator(b=np.array([0.3 + 0.1j, -0.2j]), dim=3, level=1)
        a = generator_matrix(g)
        assert maxdiff(a, -a.conj().T) == 0.0


class TestExplicitCharts:
    def test_u2_identity(self):
        assert maxdiff(coset_u2_explicit(0.0, 0.0), np.eye(3)) == 0.0

    def test_u2_boundary(self):
        expected = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
        assert maxdiff(coset_u2_explicit(1.0, 0.0), expected) == 0.0

    def test_u2_interior_point(self):
        m = coset_u2_explicit(0.6, 0.0)
        assert maxdiff(m[1:, 1:], [[0.8, -0.6], [0.6, 0.8]]) <= 1e-15

    def test_u2_matches_generic_builder(self):
        rng = np.random.default_rng(86)
        for _ in range(50):
            x1, x2 = random_ball_vector(rng, 1).view(float)
            m = coset_u2_explicit(x1, x2)
            assert unitarity_error(m) <= 1e-13
            xv = CosetVector.from_coords(np.array([complex(x1, x2)]), level=2, dim=3)
            assert maxdiff(m, coset_matrix_from_X(xv).matrix) <= 1e-13

    def test_u2_ball_violation(self):
        with pytest.raises(BallViolationError):
            coset_u2_explicit(1.0, 0.1)

    def test_u3_identity(self):
        assert maxdiff(coset_u3_explicit(0.0, 0.0, 0.0, 0.0), np.eye(3)) == 0.0

    def test_u3_boundary(self):
        expected = np.array([[0, 0, -1.0], [0, 1.0, 0], [1.0, 0, 0]])
        assert maxdiff(coset_u3_explicit(1.0, 0.0, 0.0, 0.0), expected) == 0.0

    def test_u3_matches_generic_builder(self):
        rng = np.random.default_rng(87)
        for _ in range(50):
            x3, x4, x5, x6 = random_ball_vector(rng, 2).view(float)
            m = coset_u3_explicit(x3, x4, x5, x6)
            assert unitarity_error(m) <= 1e-13
            x = np.array([complex(x5, x6), complex(x3, x4)])
            xv = CosetVector.from_coords(x, level=1, dim=3)
            assert maxdiff(m, coset_matrix_from_X(xv).matrix) <= 1e-13

    def test_u3_linear_diagonal_variant_is_not_unitary(self):
        # Replacing the quadratic (3,3) entry with its linear look-alike
        # breaks unitarity at a generic point; kept as a guard against
        # regressions toward the wrong formula.
        x3, x4, x5, x6 = 0.3, 0.2, 0.4, 0.1
        xi_sq = x3 * x3 + x4 * x4 + x5 * x5 + x6 * x6
        rho = math.sqrt(1.0 - xi_sq)
        wrong = np.array(coset_u3_explicit(x3, x4, x5, x6))
        wrong[2, 2] = (rho * (x3 + x4) + (x5 + x6)) / xi_sq
        assert unitarity_error(wrong) > 1e-6

    def test_u3_ball_violation(self):
        with pytest.raises(BallViolationError):
            coset_u3_explicit(0.8, 0.8, 0.0, 0.0)


class TestCompose:
    def test_all_identity_factors(self):
        factors = tuple(CosetFactor(matrix=np.eye(4), level=k) for k in (1, 2, 3))
        cf = CosetFactorization(
            pivots=np.array([c.pivot for c in factors]),
            terminal_phases=PhaseDiagonal(np.ones(4, dtype=complex), 4),
            ordering=FORWARD,
            dim=4,
        )
        assert maxdiff(compose_cosets(cf), np.eye(4)) == 0.0

    def test_golden_round_trip(self):
        cf = cosets_from_householder(decompose(U0))
        assert maxdiff(compose_cosets(cf), U0) <= 1e-13

    def test_reversed_round_trip(self):
        u = random_unitary(5, 90)
        cf = cosets_from_householder_reversed(decompose_reversed(u))
        assert maxdiff(compose_cosets(cf), u) <= 1e-11


class TestAlgebraicIdentities:
    def test_extraction_identities(self):
        # <u|u> = 2 (1 + rho), 2|gamma|^2 - 1 = rho = sqrt(1 - r^2) and
        # r^2 = 4 |gamma|^2 (1 - |gamma|^2) on every extracted level.
        for seed, dim in [(91, 3), (92, 6), (93, 9)]:
            f = decompose(random_unitary(dim, seed))
            cf = cosets_from_householder(f)
            for refl, c in zip(f.reflections, cf.factors):
                xv = extract_coset_vector(c)
                rho = xv.rho
                assert abs(refl.norm_sq - 2.0 * (1.0 + rho)) <= 1e-12
                mod = gamma_from_rho(rho, 0.0).modulus
                assert abs(2.0 * mod * mod - 1.0 - rho) <= 1e-12
                assert abs(rho - math.sqrt(1.0 - xv.r_sq)) <= 1e-12
                assert abs(xv.r_sq - 4.0 * mod * mod * (1.0 - mod * mod)) <= 1e-12

    def test_malformed_factor_rejected(self):
        with pytest.raises(MalformedFactorError):
            CosetFactor(matrix=np.diag([2.0, 1.0]), level=1)

    def test_leading_identity_enforced(self):
        with pytest.raises(MalformedFactorError):
            CosetFactor(matrix=np.diag([-1.0, 1.0, 1.0]), level=2)


ORDERINGS = [
    (decompose, cosets_from_householder, FORWARD),
    (decompose_reversed, cosets_from_householder_reversed, REVERSED),
]


def dense_product(cf):
    m = np.diag(cf.terminal_phases.phases)
    for c in reversed(cf.factors):
        m = c.matrix @ m if cf.ordering == FORWARD else m @ c.matrix
    return m


class TestVectorRead:
    @given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30)
    def test_vector_is_the_public_constructors(self, dim, seed):
        # The factors of both conversions, and lone factors at a random
        # level: from X, from the exponential and read off a dense matrix.
        u = random_unitary(dim, seed)
        rng = np.random.default_rng(seed)
        for dec, conv, _ in ORDERINGS:
            cf = conv(dec(u))
            level = int(rng.integers(1, dim))
            b = rng.standard_normal(dim - level) + 1j * rng.standard_normal(dim - level)
            b *= rng.uniform(0.0, 0.5 * math.pi) / np.linalg.norm(b)
            lone = (
                coset_matrix_from_X(CosetVector.from_coords(random_ball_vector(rng, dim - level),
                                                            level, dim)),
                exp_coset(Generator(b=b, dim=dim, level=level)),
                CosetFactor(matrix=cf.factors[level - 1].matrix, level=level),
            )
            for c in cf.factors + lone:
                xv = c.vector
                # The public constructor on the value the read takes:
                # X = (2 conj(p_k) / <p|p>) p_below, rho clipped to [0, 1].
                pk_bar, scale, rho, _ = _chart(c.pivot[None], c.level - 1)
                pk_bar, scale, rho = complex(pk_bar[0]), float(scale[0]), float(rho[0])
                public = CosetVector(x=(scale * pk_bar) * c.pivot[c.level:], level=c.level,
                                     dim=c.dim, rho=min(max(rho, 0.0), 1.0))
                assert xv.x.dtype == public.x.dtype and xv.x.shape == public.x.shape
                assert xv.x.tobytes() == public.x.tobytes()
                assert (xv.level, xv.dim) == (public.level, public.dim)
                assert type(xv.rho) is type(public.rho) is float
                assert xv.rho.hex() == public.rho.hex()
                assert not xv.x.flags.writeable and not np.shares_memory(xv.x, cf.pivots)
                assert not np.shares_memory(xv.x, c.pivot)
                with pytest.raises(ValueError):
                    xv.x[0] = 0.5

    @given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20)
    def test_negative_corner_has_no_vector(self, dim, seed):
        # Each corner shrunk to half the norm of the entries below it:
        # rho = 2 (1/4) / (5/4) - 1 = -3/5.
        u = random_unitary(dim, seed)
        for dec, conv, _ in ORDERINGS:
            cf = conv(dec(u))
            pivots = cf.pivots.copy()
            k = np.arange(dim - 1)
            below_sq = np.sum(np.abs(pivots) ** 2, axis=1) - np.abs(pivots[k, k]) ** 2
            assume(np.all(below_sq > 0.0))
            pivots[k, k] *= 0.5 * np.sqrt(below_sq) / np.abs(pivots[k, k])
            neg = CosetFactorization(pivots=pivots, terminal_phases=cf.terminal_phases,
                                     ordering=cf.ordering, dim=dim)
            for c in neg.factors:
                assert c.vector is None
                with pytest.raises(MalformedFactorError):
                    extract_coset_vector(c)


def assert_same_vector(got, lone):
    # Bitwise equal X and rho, read-only X, no memory shared with a stack.
    assert (got.level, got.dim) == (lone.level, lone.dim)
    assert got.x.dtype == lone.x.dtype and got.x.shape == lone.x.shape
    assert got.x.tobytes() == lone.x.tobytes()
    assert type(got.rho) is type(lone.rho) is float and got.rho.hex() == lone.rho.hex()
    assert not got.x.flags.writeable
    with pytest.raises(ValueError):
        got.x[0] = 0.5


class TestStackRead:
    # cf.factors reads X for the whole stack in one pass; a lone factor on
    # the same pivot reads its own row on demand.
    @given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30)
    def test_stack_read_is_the_single_row_read(self, dim, seed):
        u = random_unitary(dim, seed)
        for dec, conv, _ in ORDERINGS:
            cf = conv(dec(u))
            for c in cf.factors:
                lone = _lone(np.array(c.pivot), c.level)
                assert_same_vector(c.vector, lone.vector)
                assert extract_coset_vector(c) is c.vector
                assert not np.shares_memory(c.vector.x, cf.pivots)

    @given(st.integers(3, 30), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30)
    def test_mixed_stack(self, dim, seed):
        # Rows edited to a negative corner (rho = -3/5), a pure phase
        # (rho = 1 exactly) and a scale so small that 2 / <p|p> overflows,
        # among rows left as decompose made them.
        rng = np.random.default_rng(seed)
        cf = cosets_from_householder(decompose(random_unitary(dim, seed)))
        pivots = cf.pivots.copy()
        kinds = rng.integers(0, 4, dim - 1)
        for j, kind in enumerate(kinds):
            below_sq = float(np.sum(np.abs(pivots[j, j + 1:]) ** 2))
            if kind == 1 and below_sq > 0.0:
                pivots[j, j] *= 0.5 * math.sqrt(below_sq) / abs(pivots[j, j])
            elif kind == 2:
                pivots[j, j + 1:] = 0.0
                pivots[j, j] = 2.0 * np.exp(1j * rng.uniform(-math.pi, math.pi))
            elif kind == 3:
                pivots[j] = 0.0
                pivots[j, j], pivots[j, j + 1] = 1.5e-160, 0.5e-160

        def edited():
            return CosetFactorization(pivots=pivots, terminal_phases=cf.terminal_phases,
                                      ordering=FORWARD, dim=dim)

        if 3 in kinds:
            # The record refuses such a row, naming the first one; the rest
            # of the stack is read with those rows as decompose made them.
            first = int(np.flatnonzero(kinds == 3)[0]) + 1
            with pytest.raises(MalformedFactorError, match=f"level {first} has"):
                edited()
            pivots[kinds == 3] = cf.pivots[kinds == 3]
        for c, kind in zip(edited().factors, kinds):
            lone = _lone(np.array(c.pivot), c.level)
            if c.vector is None:
                assert kind == 1 and lone.vector is None
                with pytest.raises(MalformedFactorError):
                    extract_coset_vector(c)
            else:
                assert_same_vector(c.vector, lone.vector)
                if kind == 2:
                    assert c.vector.rho == 1.0 and not np.any(c.vector.x)

    def test_read_runs_the_vector_checks_on_a_refused_row(self):
        # Entries of 1e200 overflow <p|p>, so the corner rho is NaN: the
        # record refuses such a row, and the read, given it, raises the
        # check of CosetVector that it fails.
        pivots = np.full((1, 2), 1e200, dtype=complex)
        with pytest.raises(UcosetError):
            CosetFactorization(pivots, PhaseDiagonal(np.ones(2), 2), FORWARD, 2)
        with pytest.raises(RhoRangeError, match="rho nan"):
            _factors(pivots, 1)

    def test_stack_read_keeps_one_temporary(self):
        # Beyond what the factors keep (X and the view objects), the read
        # needs at most one (N - 1) x N complex temporary at a time.
        n = 96
        cf = cosets_from_householder(decompose(random_unitary(n, 150)))
        tracemalloc.start()
        try:
            factors = cf.factors
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(factors) == n - 1
        assert peak - kept <= (n - 1) * n * 16 + 2 ** 14


class TestTrustedConversion:
    # The conversions hand the Householder record's checked stack to the
    # coset record without running its checks again; the public constructor
    # must accept every such stack and read the same factors from it.
    @given(st.sampled_from([1, 2, 3, 33, 65, 130]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20)
    def test_checked_record_accepts_every_converted_stack(self, dim, seed):
        u = random_unitary(dim, seed)
        for dec, conv, ordering in ORDERINGS:
            cf = conv(dec(u))
            checked = CosetFactorization(pivots=cf.pivots, terminal_phases=cf.terminal_phases,
                                         ordering=ordering, dim=dim)
            assert not np.shares_memory(checked.pivots, cf.pivots)
            assert checked.pivots.tobytes() == cf.pivots.tobytes()
            assert len(cf.factors) == dim - 1
            for got, want in zip(checked.factors, cf.factors):
                assert (got.level, got.dim) == (want.level, want.dim)
                assert got.pivot.tobytes() == want.pivot.tobytes()
                assert (got.vector is None) == (want.vector is None)
                if want.vector is not None:
                    assert_same_vector(got.vector, want.vector)

    @pytest.mark.parametrize("ordering", [FORWARD, REVERSED])
    def test_negative_corner_stays_outside_the_chart(self, ordering):
        # ||B|| = sqrt(5) > pi / 2 puts the level-1 corner below zero.
        c = exp_coset(Generator(b=np.array([2.0, 1.0j]), dim=3, level=1))
        assert c.vector is None
        pivots = np.array([c.pivot, [0.0, 2.0, 0.0]])
        cf = CosetFactorization(pivots, PhaseDiagonal(np.ones(3), 3), ordering, 3)
        first, second = cf.factors
        assert first.vector is None and second.vector.rho == 1.0
        assert first.pivot.tobytes() == c.pivot.tobytes()
        with pytest.raises(MalformedFactorError):
            extract_coset_vector(first)


# Row scales 2^s whose <p|p>, 2^(2s + 1) to 2^(2s + 2) for a pivot with
# <p|p> in [2, 4], is subnormal (or zero), normal, or too large for a float.
SCALE_RANGES = {"subnormal": (-540, -513), "normal": (-511, 510), "overflow": (512, 540)}


class TestPivotScale:
    @given(dim=st.integers(2, 40), ordering=st.sampled_from([FORWARD, REVERSED]),
           outside=st.sampled_from(["none", "subnormal", "overflow"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    @example(dim=17, ordering=FORWARD, outside="none", seed=0)
    @example(dim=40, ordering=REVERSED, outside="none", seed=1)
    @example(dim=33, ordering=FORWARD, outside="subnormal", seed=2)
    @example(dim=20, ordering=REVERSED, outside="overflow", seed=3)
    def test_accepted_records_compose_finite(self, dim, ordering, outside, seed):
        # Every row scaled by 2^s within the normal range, and possibly some
        # rows outside it: a record is accepted exactly when all rows are in
        # range, and then composes, as any reflection is scale-free, to the
        # matrix of its unscaled stack, with no warning (warnings are errors),
        # and reads the X of its unscaled stack.
        rng = np.random.default_rng(seed)
        dec, conv = {o: (d, c) for d, c, o in ORDERINGS}[ordering]
        cf = conv(dec(random_unitary(dim, seed)))
        s = rng.integers(*SCALE_RANGES["normal"], dim - 1, endpoint=True)
        if outside != "none":
            rows = rng.choice(dim - 1, rng.integers(1, dim, endpoint=False), replace=False)
            s[rows] = rng.integers(*SCALE_RANGES[outside], rows.size, endpoint=True)
        scaled = cf.pivots * np.ldexp(1.0, s)[:, None]

        def record():
            return CosetFactorization(pivots=scaled, terminal_phases=cf.terminal_phases,
                                      ordering=ordering, dim=dim)

        if outside != "none":
            with pytest.raises(UcosetError):
                record()
            return
        accepted = record()
        composed = compose_cosets(accepted)
        assert np.isfinite(composed).all()
        assert maxdiff(composed, compose_cosets(cf)) <= 1e-13 * dim
        for c, ref in zip(accepted.factors, cf.factors):
            assert maxdiff(c.vector.x, ref.vector.x) <= 1e-13


class TestStructuredFactor:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("dec, conv, ordering", ORDERINGS)
    def test_matrix_is_reflection_with_flipped_axis(self, dim, dec, conv, ordering):
        u = random_unitary(dim, 100 + dim)
        f = dec(u)
        cf = conv(f)
        for refl, c in zip(f.reflections, cf.factors):
            expected = np.array(reflect_matrix(refl))
            k = refl.level - 1
            if ordering == FORWARD:
                expected[:, k] *= -1.0
            else:
                expected[k, :] *= -1.0
            assert maxdiff(c.matrix, expected) <= 1e-13
        assert maxdiff(compose_cosets(cf), dense_product(cf)) <= 1e-12
        assert maxdiff(compose_cosets(cf), u) <= 1e-12

    @given(
        dim=st.integers(2, 6),
        alpha=st.floats(-math.pi, math.pi, allow_nan=False),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=40)
    def test_degenerate_pivots(self, dim, alpha, seed):
        # |w_1| = 1: the first column is a pure phase and factor 1 is
        # exactly the identity.  w_1 = 0: factor 1 sits on the ball's
        # boundary, rho = 0 and <X|X> = 1.
        rng = np.random.default_rng(seed)
        shape = (dim - 1, dim - 1)
        w, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        pure = np.zeros((dim, dim), dtype=complex)
        pure[0, 0] = np.exp(1j * alpha)
        pure[1:, 1:] = w
        boundary = np.zeros((dim, dim), dtype=complex)
        boundary[0, dim - 1] = np.exp(1j * alpha)
        boundary[1:, : dim - 1] = w
        for dec, conv, ordering in ORDERINGS:
            # The reversed ordering clears rows: hand it the transpose.
            def factorization(m):
                return dec(m if ordering == FORWARD else m.T)

            f = factorization(pure)
            assert maxdiff(conv(f).factors[0].matrix, np.eye(dim)) == 0.0
            # The pivot phase read off the corner is alpha, -pi included,
            # within (-pi, pi].
            phi = f.pivot_phases[0]
            assert -math.pi < phi <= math.pi
            assert abs(np.exp(1j * phi) - np.exp(1j * alpha)) <= 1e-15
            f = factorization(boundary)
            xv = extract_coset_vector(conv(f).factors[0])
            assert xv.rho <= 1e-15
            assert abs(xv.r_sq - 1.0) <= 1e-14
            # w_1 = 0 leaves the corner u_11 = 1, whose phase is exactly 0.
            assert f.pivot_phases[0] == 0.0

    def test_factor_and_matrix_are_immutable(self):
        cf = cosets_from_householder(decompose(random_unitary(4, 110)))
        for c in (cf.factors[0], CosetFactor(matrix=np.eye(3), level=1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                c.level = 2
            with pytest.raises(ValueError):
                c.matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            cf.factors[0].vector.x[0] = 0.5

    @pytest.mark.parametrize("ordering", [FORWARD, REVERSED])
    def test_exp_coset_beyond_quarter_turn_composes_densely(self, ordering):
        # cos(theta) < 0 for theta in (pi/2, pi] is outside the X chart, so
        # exp_coset keeps the dense factor; it composes with stored-X ones.
        rng = np.random.default_rng(111)
        for theta in (0.6 * math.pi, math.pi):
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            dense = exp_coset(Generator(b=b * theta / np.linalg.norm(b), dim=4, level=1))
            assert dense.vector is None and dense.matrix[0, 0].real < 0.0
            with pytest.raises(MalformedFactorError):
                extract_coset_vector(dense)
            factors = (dense,) + tuple(
                coset_matrix_from_X(CosetVector.from_coords(random_ball_vector(rng, 4 - k), k, 4))
                for k in (2, 3)
            )
            cf = CosetFactorization(
                pivots=np.array([c.pivot for c in factors]),
                terminal_phases=PhaseDiagonal(np.exp(1j * rng.uniform(-3, 3, 4)), 4),
                ordering=ordering,
                dim=4,
            )
            assert maxdiff(compose_cosets(cf), dense_product(cf)) <= 1e-12


class TestNoDenseFactor:
    @pytest.mark.parametrize("dec, conv, ordering", ORDERINGS)
    def test_conversion_forms_no_dense_factor(self, monkeypatch, dec, conv, ordering):
        calls = {"reflect_matrix": 0, "unitarity_error": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name, fn in (("reflect_matrix", reflect_matrix), ("unitarity_error", unitarity_error)):
            for module in (ucoset, ucoset.numkit, ucoset.householder, ucoset.coset):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, fn))
        u = random_unitary(64, 120)
        cf = conv(dec(u))
        vectors = [extract_coset_vector(c) for c in cf.factors]
        composed = compose_cosets(cf)
        # decompose's own column checks are its unitarity gate.
        assert calls == {"reflect_matrix": 0, "unitarity_error": 0}
        assert len(vectors) == 63
        assert maxdiff(composed, u) <= 1e-12

    @pytest.mark.parametrize("dec, conv, ordering", ORDERINGS)
    def test_conversion_and_compose_memory_is_quadratic(self, dec, conv, ordering):
        # One dense N x N factor per level would need about 250 times this.
        n = 256
        f = dec(random_unitary(n, 121))
        tracemalloc.start()
        try:
            compose_cosets(conv(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * n * 16


class TestPivotStack:
    def test_products_and_conversions_build_no_factor_objects(self, monkeypatch):
        calls = {"Reflection": 0, "CosetFactor": 0}

        def count(cls, attr):
            fn = cls.__dict__[attr]

            def wrapped(*args, **kwargs):
                calls[cls.__name__] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(cls, attr, wrapped)

        for cls, attr in ((Reflection, "__post_init__"), (CosetFactor, "__init__")):
            count(cls, attr)
        # Every other build of a factor object goes through _trusted.
        build = ucoset.numkit._trusted

        def trusted(cls, **fields):
            if cls.__name__ in calls:
                calls[cls.__name__] += 1
            return build(cls, **fields)
        for module in (ucoset.householder, ucoset.coset):
            monkeypatch.setattr(module, "_trusted", trusted)
        n = 65
        u = random_unitary(n, 140)
        f, rev = decompose(u), decompose_reversed(u)
        cf, cr = cosets_from_householder(f), cosets_from_householder_reversed(rev)
        products = [reconstruct(f), reconstruct(rev), compose_cosets(cf), compose_cosets(cr)]
        assert calls == {"Reflection": 0, "CosetFactor": 0}
        for m in products:
            assert maxdiff(m, u) <= 1e-12
        # The forward conversion shares the stack; the reversed one copies it.
        assert np.shares_memory(cf.pivots, f.pivots)
        assert not np.shares_memory(cr.pivots, rev.pivots)
        for pivots in (f.pivots, rev.pivots, cf.pivots, cr.pivots):
            assert pivots.shape == (n - 1, n) and not pivots.flags.writeable
            with pytest.raises(ValueError):
                pivots[0, 0] = 1.0
        # The views are the constructions the counter sees.
        assert len(f.reflections) == len(cf.factors) == n - 1
        assert calls == {"Reflection": n - 1, "CosetFactor": n - 1}

    @pytest.mark.parametrize("dec, conv, ordering", ORDERINGS)
    def test_stack_is_read_only_through_every_base(self, dec, conv, ordering):
        # A decomposed record's stack may be a view of the column loop's
        # work array; no array in its chain of bases can be written, and a
        # forward conversion hands on that same chain.
        f = dec(random_unitary(33, 142))
        cf = conv(f)
        assert (cf.pivots is f.pivots) == (ordering == FORWARD)
        for pivots in (f.pivots, cf.pivots):
            a = pivots
            while a is not None:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0, 0] = 1.0
                a = a.base

    @pytest.mark.parametrize("dec, conv, ordering", ORDERINGS)
    def test_read_only_view_of_a_writable_array_is_copied(self, dec, conv, ordering):
        # As for a Householder record: a read-only view whose base can still
        # be written is copied, and so is a converted stack, whose every base
        # is read-only.
        u = random_unitary(5, 143)
        cf = conv(dec(u))
        a = np.array(cf.pivots)
        v = a[:]
        v.setflags(write=False)
        g = CosetFactorization(v, cf.terminal_phases, ordering, 5)
        a[0, 0] = 0.0
        assert not np.shares_memory(g.pivots, a) and not g.pivots.flags.writeable
        assert maxdiff(compose_cosets(g), u) <= 1e-13
        h = CosetFactorization(cf.pivots, cf.terminal_phases, ordering, 5)
        assert not np.shares_memory(h.pivots, cf.pivots)
        assert h.pivots.tobytes() == cf.pivots.tobytes()

    @pytest.mark.parametrize("dec, conv, ordering", ORDERINGS)
    def test_read_only_array_that_owns_its_memory_is_copied(self, dec, conv, ordering):
        # Its owner can set a read-only array writable again; the record
        # keeps its own copy, which the owner cannot reach.
        u = random_unitary(5, 144)
        cf = conv(dec(u))
        a = np.array(cf.pivots, order="F")
        a.setflags(write=False)
        g = CosetFactorization(a, cf.terminal_phases, ordering, 5)
        assert not np.shares_memory(g.pivots, a) and g.pivots.flags.c_contiguous
        a.setflags(write=True)
        a[...] = 0.0
        assert not g.pivots.flags.writeable
        assert maxdiff(compose_cosets(g), u) <= 1e-13

    # Rank-1 steps (3, 16), one blocked panel (17), a narrow last panel (40)
    # and two full panels (65).
    @pytest.mark.parametrize("n", [3, 16, 17, 40, 65])
    @pytest.mark.parametrize("dec, conv, ordering", ORDERINGS)
    def test_compose_is_the_householder_product(self, n, dec, conv, ordering):
        # A converted stack composes with its corners negated back, in the
        # copies the product makes, to the bits of the Householder product,
        # with the carried factor and without it.
        f = dec(random_unitary(n, 144 + n))
        cf = conv(f)
        g = HouseholderFactorization(f.pivots, f.residual, ordering, n)
        cg = CosetFactorization(cf.pivots, cf.terminal_phases, ordering, n)
        assert compose_cosets(cf).tobytes() == reconstruct(f).tobytes()
        assert compose_cosets(cg).tobytes() == reconstruct(g).tobytes()
        assert np.array_equal(cf.pivots, f.pivots) == (ordering == FORWARD)

    def test_views_are_rows_of_the_stack(self):
        f = decompose(random_unitary(5, 141))
        cf = cosets_from_householder(f)
        for stack, views in ((f.pivots, f.reflections), (cf.pivots, cf.factors)):
            for k, v in enumerate(views, start=1):
                assert v.level == k and v.dim == 5
                assert np.shares_memory(v.pivot, stack) and np.array_equal(v.pivot, stack[k - 1])


def true_factors():
    # Factors from both conversions, from X and from the exponential at
    # every level of small dims, including corners below zero.
    for dim in (2, 3, 8, 64):
        u = random_unitary(dim, 130 + dim)
        for dec, conv, _ in ORDERINGS:
            yield from conv(dec(u)).factors
    rng = np.random.default_rng(131)
    for dim in range(2, 7):
        for level in range(1, dim):
            xv = CosetVector.from_coords(random_ball_vector(rng, dim - level), level, dim)
            yield coset_matrix_from_X(xv)
            b = rng.standard_normal(dim - level) + 1j * rng.standard_normal(dim - level)
            for theta in (0.0, 1e-9, 0.3 * math.pi, 0.6 * math.pi, math.pi):
                yield exp_coset(Generator(b=b * theta / np.linalg.norm(b), dim=dim, level=level))


class TestHandMadeFactor:
    def test_pivot_read_accepts_every_true_factor(self, monkeypatch):
        factors = list(true_factors())
        calls = []

        def counting(m):
            calls.append(m)
            return unitarity_error(m)

        for module in (ucoset, ucoset.numkit, ucoset.householder, ucoset.coset):
            if hasattr(module, "unitarity_error"):
                monkeypatch.setattr(module, "unitarity_error", counting)
        negative = 0
        for c in factors:
            k = c.level - 1
            read = CosetFactor(matrix=c.matrix, level=c.level)
            assert maxdiff(read.matrix, c.matrix) <= 1e-13
            below_zero = c.matrix[k, k].real < 0.0
            assert (read.vector is None) == below_zero
            assert (c.vector is None) == below_zero
            negative += below_zero
        assert calls == []
        assert len(factors) == 2 * (1 + 2 + 7 + 63) + 6 * 15
        assert negative == 2 * 15

    @pytest.mark.parametrize("matrix, level", [
        (np.diag([1.0, 1j]), 1),
        (np.diag([1.0, 1.0, -1.0]), 2),
        (np.block([[np.eye(1), np.zeros((1, 2))],
                   [np.zeros((2, 1)), random_unitary(2, 132)]]), 2),
    ], ids=["phase-corner", "flipped-trailing", "generic-u2-block"])
    def test_non_coset_unitary_rejected(self, matrix, level):
        # Unitary, and the identity before the level, but no column-flipped
        # reflection: reading X off it would give the identity instead.
        assert unitarity_error(matrix) <= 1e-12
        with pytest.raises(MalformedFactorError):
            CosetFactor(matrix=matrix, level=level)


    @pytest.mark.parametrize("entry", [1e200, 1e300])
    def test_entry_too_large_for_the_pivot_norm_rejected(self, entry):
        # <p|p> overflows to inf, so the factor rebuilt from p has a NaN corner.
        matrix = np.eye(3, dtype=complex)
        matrix[0, 0] = entry
        with pytest.raises(MalformedFactorError):
            CosetFactor(matrix=matrix, level=1)


def eye_pivots(dim, levels):
    return np.array([CosetFactor(matrix=np.eye(dim), level=k).pivot for k in levels])


def edited_stack(row, col, value):
    # The 3x3 identity's coset pivots with one entry replaced.
    pivots = eye_pivots(3, [1, 2])
    pivots[row, col] = value
    return pivots


def stack_factorization(pivots, dim=3):
    return CosetFactorization(pivots, PhaseDiagonal(np.ones(dim), dim), FORWARD, dim)


BAD_INPUTS = {
    "vector-level": lambda: CosetVector(x=[0.1], level=0, dim=2, rho=1.0),
    "vector-length": lambda: CosetVector.from_coords([0.1, 0.2], level=1, dim=2),
    "vector-nonfinite": lambda: CosetVector(x=[np.nan], level=1, dim=2, rho=1.0),
    "vector-rho-inconsistent": lambda: CosetVector(x=[0.6], level=1, dim=2, rho=0.5),
    "vector-rho-range": lambda: CosetVector(x=[0.0], level=1, dim=2, rho=2.0),
    "vector-ragged": lambda: CosetVector(x=[0.0, [0.0]], level=1, dim=3, rho=1.0),
    "vector-coords-ragged": lambda: CosetVector.from_coords([0.0, [0.0]], level=1, dim=3),
    "gamma-modulus": lambda: Gamma(modulus=1.5, phase=0.0),
    "gamma-phase": lambda: Gamma(modulus=1.0, phase=4.0),
    "factor-level": lambda: CosetFactor(matrix=np.eye(3), level=3),
    "factor-nonfinite": lambda: CosetFactor(matrix=np.full((2, 2), np.nan), level=1),
    "factor-nonsquare": lambda: CosetFactor(matrix=np.ones((2, 3)), level=1),
    "factor-ragged": lambda: CosetFactor(matrix=[[1.0, 0.0], [0.0]], level=1),
    "factorization-ordering": lambda: CosetFactorization(
        eye_pivots(2, [1]), PhaseDiagonal(np.ones(2), 2), "sideways", 2),
    "factorization-levels": lambda: CosetFactorization(
        eye_pivots(3, [2, 1]), PhaseDiagonal(np.ones(3), 3), FORWARD, 3),
    "factorization-factor-dim": lambda: CosetFactorization(
        eye_pivots(3, [1]), PhaseDiagonal(np.ones(2), 2), FORWARD, 2),
    "factorization-phases-dim": lambda: CosetFactorization(
        eye_pivots(2, [1]), PhaseDiagonal(np.ones(3), 3), FORWARD, 2),
    "stack-zero-row": lambda: stack_factorization(edited_stack(1, slice(None), 0.0)),
    "stack-nonfinite": lambda: stack_factorization(edited_stack(0, 2, np.nan)),
    "stack-overflowing-norm": lambda: stack_factorization(edited_stack(0, 2, 1e200)),
    "stack-leading": lambda: stack_factorization(edited_stack(1, 0, 1e-300)),
    "stack-order": lambda: stack_factorization(
        cosets_from_householder(decompose(U0)).pivots[::-1]),
    "stack-shape": lambda: stack_factorization(eye_pivots(3, [1, 2]).T),
    "stack-ragged": lambda: stack_factorization([[2.0, 0.0, 0.0], [0.0, 2.0]]),
    "generator-level": lambda: Generator(b=[0.1], dim=2, level=2),
    "generator-length": lambda: Generator(b=[0.1, 0.2], dim=2, level=1),
    "generator-nonfinite": lambda: Generator(b=[np.inf], dim=2, level=1),
    "generator-norm": lambda: Generator(b=[4.0], dim=2, level=1),
    "gamma-phase-nonfinite": lambda: gamma_from_rho(0.5, math.inf),
    "normal-phase-nonfinite": lambda: normal_from_coset_vector(
        CosetVector.from_coords([0.1], level=1, dim=2), math.inf),
    "u2-nonfinite": lambda: coset_u2_explicit(math.nan, 0.0),
    "u3-nonfinite": lambda: coset_u3_explicit(math.nan, 0.0, 0.1, 0.1),
    # An integer past the float range is not finite, as an entry or a scalar;
    # an array is no ordering, though `in` would compare it entrywise.
    "vector-int-overflow": lambda: CosetVector(x=[10 ** 400], level=1, dim=2, rho=1.0),
    "vector-coords-int-overflow": lambda: CosetVector.from_coords([10 ** 400], level=1, dim=2),
    "stack-int-overflow": lambda: stack_factorization([[10 ** 400, 0.0, 0.0], [0.0, 2.0, 0.0]]),
    "generator-int-overflow": lambda: Generator(b=[10 ** 400], dim=2, level=1),
    "gamma-phase-int-overflow": lambda: gamma_from_rho(0.5, 10 ** 400),
    "u2-int-overflow": lambda: coset_u2_explicit(10 ** 400, 0.0),
    "u3-int-overflow": lambda: coset_u3_explicit(0.0, 10 ** 400, 0.0, 0.0),
    "factorization-ordering-array": lambda: CosetFactorization(
        eye_pivots(2, [1]), PhaseDiagonal(np.ones(2), 2), np.zeros((2, 2)), 2),
    # A finite B whose norm overflows, with no warning on the way.
    "generator-overflowing-norm": lambda: Generator(b=np.array([1e200]), dim=2, level=1),
}


@pytest.mark.parametrize("build", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises_typed_error(build):
    with pytest.raises(UcosetError):
        build()
