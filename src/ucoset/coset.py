"""Canonical coset factors of unitary matrices and their parametrizations.

A coset factor at level k (1-based) is an N x N unitary that is the identity
on the leading k - 1 coordinates and is fixed on the rest by one complex
vector X with r^2 = <X|X> <= 1:

    corner   rho = sqrt(1 - r^2)         at position (k, k)
    column   X                           below the corner
    row      -X^dag                      right of the corner
    block    1 - |X><X| / (1 + rho)      trailing

That is the Householder reflection R(p) of the pivot p = (1 + rho) e_k + X
with column k negated, R(p) F_k, so a factor is stored as its pivot, and X
and rho = 2 |p_k|^2 / <p|p> - 1 are read off it in O(N).  One factor per
level times a diagonal of phases reproduces any unitary matrix.  Like a
Householder factorization, a coset factorization stores its pivots as one
read-only (N - 1) x N stack, and its ``factors`` are ``CosetFactor`` views
on the rows, each carrying the X that one array pass over the whole stack
read for it; a lone factor reads its X off its pivot by the same
arithmetic on one row, so both reads agree bit for bit.  The conversions
from a Householder factorization negate column k (forward: the stack is
shared as it is) or row k (reversed, F_k R(u) = R(F_k u) F_k: one copy
with each u_k negated) of each reflection; the sign flips migrate into the
terminal phase diagonal, so composing the factors is one product of
reflections, O(N^3) in the panels of ``householder``.

The level-1 factor is also the exponential of the anti-Hermitian generator
with column B below the corner; for ||B|| in (pi/2, pi] its corner is
negative, outside the X chart, and only the pivot describes it.  Closed
ranges and identities are checked with the fixed slack bounds of ``numkit``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numkit import (
    BALL_SLACK,
    FACTOR_IDENTITY_TOL,
    FACTOR_MATCH_TOL,
    RHO_SLACK,
    ComplexMatrix,
    ComplexVector,
    DimensionMismatchError,
    DomainError,
    UcosetError,
    _as_array,
    _frozen_array,
)
from .householder import (
    FORWARD,
    REVERSED,
    HouseholderFactorization,
    PhaseDiagonal,
    _canonical_angle,
    _check_record,
    _pivot_record,
    _product,
    _reflect_rows,
)

__all__ = [
    "CosetVector",
    "Gamma",
    "CosetFactor",
    "CosetFactorization",
    "Generator",
    "WrongOrderingError",
    "MalformedFactorError",
    "BallViolationError",
    "RhoRangeError",
    "DomainError",
    "cosets_from_householder",
    "cosets_from_householder_reversed",
    "compose_cosets",
    "extract_coset_vector",
    "coset_matrix_from_X",
    "gamma_from_rho",
    "normal_from_coset_vector",
    "generator_matrix",
    "exp_coset",
    "coset_u2_explicit",
    "coset_u3_explicit",
]


class WrongOrderingError(UcosetError):
    """Factorization ordering does not match the requested conversion."""


class MalformedFactorError(UcosetError):
    """Matrix does not have the structure of a coset factor."""


class BallViolationError(UcosetError):
    """Coset coordinates lie outside the closed unit ball."""


class RhoRangeError(UcosetError):
    """rho must lie in [0, 1] and agree with <X|X>."""


# The vector of a factor that reads it off its pivot on each access.
_ON_DEMAND = object()


@dataclass(frozen=True, eq=False)
class CosetVector:
    """Ball coordinates X of a level-k coset factor, with cached rho.

    ``x`` has length ``dim - level`` and satisfies ``<x|x> <= 1``;
    ``rho = sqrt(1 - <x|x>)`` is stored alongside.
    """

    x: ComplexVector
    level: int
    dim: int
    rho: float

    def __post_init__(self):
        self._check_level()
        self._check_coords(_frozen_array(self.x, (self.dim - self.level,), complex, "x"))

    @classmethod
    def _from_new_array(cls, x, level: int, dim: int, rho: float) -> "CosetVector":
        # The public constructor's checks on x, a complex array of length
        # dim - level that the caller has just made and keeps no reference
        # to, so it is made read-only instead of copied.
        xv = cls.__new__(cls)
        xv.__dict__.update(level=level, dim=dim, rho=rho)
        xv._check_level()
        x.setflags(write=False)
        xv._check_coords(x)
        return xv

    @classmethod
    def _from_checked(cls, x, level: int, dim: int, rho: float) -> "CosetVector":
        # A vector whose read-only x and rho have passed the checks, in the
        # array form of _stack_vectors.
        xv = cls.__new__(cls)
        xv.__dict__.update(x=x, level=level, dim=dim, rho=rho)
        return xv

    def _check_level(self):
        if not 1 <= self.level <= self.dim - 1:
            raise DimensionMismatchError(f"level {self.level} outside 1..{self.dim - 1}")

    def _check_coords(self, x):
        # Checks the read-only array x against the ball and rho, then stores
        # it.  A finite <x|x> means finite entries, so the entrywise test
        # runs only when the sum is not finite.
        r_sq = float(np.vdot(x, x).real)
        if not math.isfinite(r_sq) and not np.isfinite(x).all():
            raise DomainError("x: non-finite entries")
        if r_sq > 1.0 + BALL_SLACK:
            raise BallViolationError(f"<x|x> = {r_sq} exceeds 1")
        if not -BALL_SLACK <= self.rho <= 1.0 + BALL_SLACK:
            raise RhoRangeError(f"rho {self.rho} outside [0, 1]")
        if abs(self.rho * self.rho + r_sq - 1.0) > RHO_SLACK:
            raise RhoRangeError("rho is inconsistent with <x|x>")
        object.__setattr__(self, "x", x)

    @classmethod
    def from_coords(cls, x, level: int, dim: int) -> "CosetVector":
        """Build from ball coordinates alone, deriving rho."""
        arr = _as_array(x, "x")
        r_sq = float(np.real(np.vdot(arr, arr)))
        rho = math.sqrt(max(0.0, 1.0 - r_sq))
        return cls(x=arr, level=level, dim=dim, rho=rho)

    @property
    def r_sq(self) -> float:
        return float(np.real(np.vdot(self.x, self.x)))


@dataclass(frozen=True)
class Gamma:
    """Polar form gamma = modulus * e^{i phase} of the corner overlap.

    The modulus is pinned to sqrt((1 + rho) / 2), so it lies in
    [sqrt(1/2), 1]; the phase is a free parameter.
    """

    modulus: float
    phase: float

    def __post_init__(self):
        if not math.sqrt(0.5) - BALL_SLACK <= self.modulus <= 1.0 + BALL_SLACK:
            raise RhoRangeError(f"modulus {self.modulus} outside [sqrt(1/2), 1]")
        if not -math.pi < self.phase <= math.pi:
            raise DomainError(f"phase {self.phase} outside (-pi, pi]")

    @property
    def as_complex(self) -> complex:
        return self.modulus * complex(math.cos(self.phase), math.sin(self.phase))


@dataclass(frozen=True, eq=False, init=False)
class CosetFactor:
    """One coset factor at level k: ``R(p)`` with column k negated.

    The read-only ``pivot`` p is stored; its components before k are
    exactly zero.  ``vector`` is X and rho, read off p, and is None when
    the corner is negative, outside the X chart.  A factor of
    ``CosetFactorization.factors`` carries the vector its stack read gave
    it; any other factor (``CosetFactor(matrix=...)``,
    ``coset_matrix_from_X``, ``exp_coset``) reads it in O(N) on each
    access.  ``matrix`` assembles the read-only dense factor in O(N^2) on
    each access.  ``CosetFactor(matrix=..., level=...)`` reads the pivot off
    a hand-made factor and checks in O(N^2) that the matrix is that factor.
    """

    level: int
    dim: int
    pivot: ComplexVector

    # A vector from the stack read, set per factor by _from_pivot; the
    # class default reads it off the pivot on each access.
    _vector = _ON_DEMAND

    def __init__(self, matrix, level: int):
        m = _as_array(matrix, f"factor at level {level}")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise MalformedFactorError(
                f"factor at level {level} must be square, got {m.shape}")
        n = m.shape[0]
        if not 1 <= level <= n - 1:
            raise DimensionMismatchError(f"level {level} outside 1..{n - 1}")
        if not np.all(np.isfinite(m)):
            raise MalformedFactorError(f"factor at level {level} has non-finite entries")
        i = level - 1
        if i and float(np.max(np.abs(m[:i, :] - np.eye(n)[:i, :]))) > FACTOR_IDENTITY_TOL:
            raise MalformedFactorError(
                f"factor at level {level} must act as the identity below its level"
            )
        # For M = R(p) F_k, 1 - M F_k = (2 / <p|p>) |p><p|: its column at the
        # largest diagonal entry is p up to a nonzero factor.
        a = np.eye(n) - m
        a[:, i] += 2.0 * m[:, i]
        j = i + int(np.argmax(np.abs(np.diag(a)[i:])))
        p = a[:, j].copy()
        p[:i] = 0.0
        _pivot_record(self, p, level)
        # Entries too large for <p|p> to be finite give a NaN corner, which
        # must fail this check rather than pass it.
        if not np.any(p) or not float(np.max(np.abs(self.matrix - m))) <= FACTOR_MATCH_TOL:
            raise MalformedFactorError(
                f"factor at level {level} is not a column-flipped reflection")

    @classmethod
    def _from_pivot(cls, p, level: int, vector=_ON_DEMAND) -> "CosetFactor":
        return _pivot_record(cls.__new__(cls), p, level, _vector=vector)

    def _corner(self):
        # conj(p_k), 2 / <p|p> and the corner rho, as _chart reads them.
        pk_bar, c, rho, _ = _chart(self.pivot[None], self.level - 1)
        return complex(pk_bar[0]), float(c[0]), float(rho[0])

    @property
    def vector(self) -> CosetVector | None:
        if self._vector is not _ON_DEMAND:
            return self._vector
        *_, rho, x = _chart(self.pivot[None], self.level - 1)
        rho = float(rho[0])
        if rho < -BALL_SLACK:
            return None
        return CosetVector._from_new_array(x[0, self.level:], self.level, self.dim,
                                           min(max(rho, 0.0), 1.0))

    @property
    def matrix(self) -> ComplexMatrix:
        _, c, rho = self._corner()
        i = self.level - 1
        m = np.eye(self.dim, dtype=complex)
        _reflect_rows(m, i, self.pivot, c)
        m[i:, i] *= -1.0
        m[i, i] = rho
        m.setflags(write=False)
        return m


@dataclass(frozen=True, eq=False)
class CosetFactorization:
    """Pivot stack of the coset factors plus terminal phases.

    ``pivots`` is the read-only (dim - 1) x dim array of the factor pivots,
    the level-k pivot in row k - 1.  ``factors`` are ``CosetFactor`` views
    on its rows, built on each access together with one array pass that
    reads X and rho for every level; each factor carries its ``vector``
    from that pass (None for a negative corner).  Forward ordering
    composes as ``C_1 C_2 ... C_{dim-1} T``; reversed ordering as
    ``T C_{dim-1} ... C_1`` with ``T`` the terminal diagonal.
    """

    pivots: np.ndarray
    terminal_phases: PhaseDiagonal
    ordering: str
    dim: int

    def __post_init__(self):
        norm_sq = _check_record(self, self.terminal_phases, MalformedFactorError,
                                MalformedFactorError)
        # Any nonzero pivot is a factor, but one with <p|p> = 0, a zero row
        # or one that underflows, has no 2 / <p|p>.
        zero = np.flatnonzero(norm_sq == 0.0)
        if zero.size:
            raise MalformedFactorError(f"pivot at level {zero[0] + 1} has <p|p> = 0")

    @property
    def factors(self) -> tuple:
        return tuple(CosetFactor._from_pivot(p, k, xv) for k, (p, xv)
                     in enumerate(zip(self.pivots, _stack_vectors(self.pivots)), start=1))


@dataclass(frozen=True, eq=False)
class Generator:
    """Anti-Hermitian coset generator, fixed by the column B below the corner.

    ``||B|| <= pi`` keeps the exponential within the principal range.
    """

    b: ComplexVector
    dim: int
    level: int

    def __post_init__(self):
        if not 1 <= self.level <= self.dim - 1:
            raise DimensionMismatchError(f"level {self.level} outside 1..{self.dim - 1}")
        b = _frozen_array(self.b, (self.dim - self.level,), complex, "b")
        if float(np.linalg.norm(b)) > math.pi + BALL_SLACK:
            raise DomainError("||B|| must not exceed pi")
        object.__setattr__(self, "b", b)


def _chart(p, k):
    # conj(p_k), 2 / <p|p>, the corner rho = 2 |p_k|^2 / <p|p> - 1 and the
    # row times 2 conj(p_k) / <p|p>, whose entries after the corner are X,
    # of each row of the pivots p, as arrays; row j has its corner in
    # column k[j] (or k, for one int).  <p|p> is summed as |p_k|^2 plus the
    # row's other |p_i|^2, so that a pure-phase pivot gives exactly 1.
    # Elementwise steps and row sums make a row's result the same, bit for
    # bit, whether it is read alone or in a stack.  Entries whose squares
    # overflow give a NaN corner, without a warning, as Python floats would.
    rows = np.arange(p.shape[0])
    pk_bar = p[rows, k].conj()
    with np.errstate(all="ignore"):
        pk_sq = pk_bar.real * pk_bar.real + pk_bar.imag * pk_bar.imag
        sq = np.square(p.real)
        sq += np.square(p.imag)
        sq[rows, k] = 0.0
        norm_sq = pk_sq + sq.sum(axis=1)
        del sq
        c = 2.0 / norm_sq
        return pk_bar, c, 2.0 * pk_sq / norm_sq - 1.0, (c * pk_bar)[:, None] * p


def _stack_vectors(pivots) -> list:
    # The vector of each level of a pivot stack, from one _chart pass: None
    # where the corner is negative, as CosetFactor.vector gives, and
    # _ON_DEMAND where the read fails a check of CosetVector, so that the
    # factor's own read raises that check's error when it is read.  The
    # checks (finite X, <x|x> <= 1, rho in [0, 1], rho against <x|x>) run on
    # the row sums of |X|^2 in array form, the corner left out; the entries
    # before it are exact zeros unless the row's scale is not finite, and
    # then X fails anyway.  The X of every level is a view on one read-only
    # array.
    n = pivots.shape[1]
    k = np.arange(n - 1)
    *_, rho, x = _chart(pivots, k)
    x.setflags(write=False)
    with np.errstate(all="ignore"):
        sq = np.square(x.real)
        sq += np.square(x.imag)
        sq[k, k] = 0.0
        r_sq = sq.sum(axis=1)
    del sq
    rho_in = np.clip(rho, 0.0, 1.0)
    ok = ((r_sq <= 1.0 + BALL_SLACK)
          & (np.abs(rho_in * rho_in + r_sq - 1.0) <= RHO_SLACK)).tolist()
    return [None if r < -BALL_SLACK
            else CosetVector._from_checked(x[j, j + 1:], j + 1, n, r_in) if ok[j]
            else _ON_DEMAND
            for j, (r, r_in) in enumerate(zip(rho.tolist(), rho_in.tolist()))]


def _negated_corners(pivots) -> np.ndarray:
    # Read-only copy of a pivot stack with each level-k pivot's component k
    # negated: F_k u for every row u.
    p = pivots.copy()
    k = np.arange(p.shape[0])
    p[k, k] *= -1.0
    p.setflags(write=False)
    return p


def _cosets_from_pivots(f: HouseholderFactorization, ordering: str) -> CosetFactorization:
    # Column k of R(u) negated is R(u) F_k, so a forward factor keeps u and
    # the stack is shared.  Row k negated is F_k R(u) = R(F_k u) F_k, so a
    # reversed factor keeps u with u_k negated.  No reflector is formed.
    if f.ordering != ordering:
        raise WrongOrderingError(f"expected a {ordering} factorization")
    terminal = np.array(f.residual.phases)
    terminal[:-1] *= -1.0
    return CosetFactorization(
        pivots=f.pivots if ordering == FORWARD else _negated_corners(f.pivots),
        terminal_phases=PhaseDiagonal(terminal, f.dim),
        ordering=ordering,
        dim=f.dim,
    )


def cosets_from_householder(f: HouseholderFactorization) -> CosetFactorization:
    """Convert a forward Householder factorization into coset factors.

    Each level-k factor is the reflection with column k negated, and the
    first ``dim - 1`` residual phases flip sign in the terminal diagonal.
    """
    return _cosets_from_pivots(f, FORWARD)


def cosets_from_householder_reversed(f: HouseholderFactorization) -> CosetFactorization:
    """Convert a reversed Householder factorization into coset factors.

    Same as the forward conversion with rows in place of columns: row k of
    each reflection is negated.
    """
    return _cosets_from_pivots(f, REVERSED)


def compose_cosets(cf: CosetFactorization) -> ComplexMatrix:
    """Multiply a coset factorization back into a dense matrix.

    Factor k is ``R(p_k) F_k``, with ``F_k`` the sign flip of coordinate k,
    which commutes with every reflection of a higher level.  So either
    ordering is one product of reflections (of ``F_k p_k`` when reversed)
    and ``T`` with its first N - 1 phases negated, O(N^3) in the panels of
    the Householder product.
    """
    pivots = cf.pivots if cf.ordering == FORWARD else _negated_corners(cf.pivots)
    phases = np.array(cf.terminal_phases.phases)
    phases[:-1] *= -1.0
    return _product(pivots, phases, cf.ordering)


def extract_coset_vector(c: CosetFactor) -> CosetVector:
    """Read the ball coordinates X and rho back off a coset factor.

    Raises MalformedFactorError when the corner is negative, outside the X chart.
    """
    xv = c.vector
    if xv is None:
        raise MalformedFactorError("corner entry is negative, outside the X chart")
    return xv


def coset_matrix_from_X(xv: CosetVector) -> CosetFactor:
    """The coset factor of ball coordinates X, stored as ``(1 + rho) e_k + X``."""
    p = np.zeros(xv.dim, dtype=complex)
    i = xv.level - 1
    p[i] = 1.0 + xv.rho
    p[i + 1:] = xv.x
    return CosetFactor._from_pivot(p, xv.level)


def gamma_from_rho(rho: float, phase: float) -> Gamma:
    """Corner overlap gamma with ``|gamma| = sqrt((1 + rho) / 2)``."""
    if not -BALL_SLACK <= rho <= 1.0 + BALL_SLACK:
        raise RhoRangeError(f"rho {rho} outside [0, 1]")
    rho = min(max(float(rho), 0.0), 1.0)
    return Gamma(
        modulus=math.sqrt(0.5 * (1.0 + rho)),
        phase=_canonical_angle(float(phase)),
    )


def normal_from_coset_vector(xv: CosetVector, phase: float) -> ComplexVector:
    """Unit pivot direction behind a coset factor.

    ``n = gamma e_k + X / (2 conj(gamma))`` with the given gamma phase.
    Changing the phase multiplies ``n`` by a global phase, so the reflection
    ``1 - 2 |n><n|`` it generates does not depend on it.
    """
    g = gamma_from_rho(xv.rho, phase).as_complex
    n = np.zeros(xv.dim, dtype=complex)
    i = xv.level - 1
    n[i] = g
    n[i + 1:] = xv.x / (2.0 * g.conjugate())
    return n


def generator_matrix(g: Generator) -> ComplexMatrix:
    """Dense anti-Hermitian matrix whose exponential is ``exp_coset(g)``."""
    a = np.zeros((g.dim, g.dim), dtype=complex)
    i = g.level - 1
    a[i + 1:, i] = g.b
    a[i, i + 1:] = -g.b.conj()
    return a


def exp_coset(g: Generator) -> CosetFactor:
    """Closed-form exponential of a coset generator.

    With theta = ||B||, the factor is the unit pivot
    ``(cos(theta/2), sin(theta/2) B / theta)``: corner cos(theta), corner
    column sinc(theta) B and trailing block ``1 - ((1 - cos theta) /
    theta^2) |B><B|``.  Both pivot coefficients are entire in theta, so
    theta = 0 needs no special casing, and all of [0, pi] is covered.
    Agrees with the factor of X = sinc(theta) B exactly when theta <= pi/2.
    """
    theta = float(np.linalg.norm(g.b))
    p = np.zeros(g.dim, dtype=complex)
    i = g.level - 1
    p[i] = math.cos(0.5 * theta)
    p[i + 1:] = (0.5 * np.sinc(theta / (2.0 * math.pi))) * g.b  # sin(theta/2)/theta
    return CosetFactor._from_pivot(p, g.level)


def coset_u2_explicit(x1: float, x2: float) -> ComplexMatrix:
    """Explicit 3x3 level-2 coset factor on a disk point (x1, x2).

    The corner column is the single entry X = x1 + i x2 and both diagonal
    entries of the active block equal rho = sqrt(1 - x1^2 - x2^2).
    """
    r_sq = x1 * x1 + x2 * x2
    if r_sq > 1.0 + BALL_SLACK:
        raise BallViolationError(f"x1^2 + x2^2 = {r_sq} exceeds 1")
    rho = math.sqrt(max(0.0, 1.0 - r_sq))
    m = np.eye(3, dtype=complex)
    m[1, 1] = rho
    m[1, 2] = complex(-x1, x2)
    m[2, 1] = complex(x1, x2)
    m[2, 2] = rho
    return m


def coset_u3_explicit(x3: float, x4: float, x5: float, x6: float) -> ComplexMatrix:
    """Explicit 3x3 level-1 coset factor on a ball point (x3, x4, x5, x6).

    The corner column is X = (x5 + i x6, x3 + i x4).  The trailing block
    entries expand, with a = x5^2 + x6^2, b = x3^2 + x4^2 and
    xi^2 = a + b, to

        V22 = (b + rho a) / xi^2
        V23 = ((rho - 1) / xi^2) (x3 - i x4)(x5 + i x6)
        V33 = (a + rho b) / xi^2

    and V32 = conj(V23); both diagonal entries are quadratic forms, which
    is forced by unitarity.  xi -> 0 gives the identity.
    """
    a = x5 * x5 + x6 * x6
    b = x3 * x3 + x4 * x4
    xi_sq = a + b
    if xi_sq > 1.0 + BALL_SLACK:
        raise BallViolationError(f"xi^2 = {xi_sq} exceeds 1")
    if xi_sq == 0.0:
        return np.eye(3, dtype=complex)
    rho = math.sqrt(max(0.0, 1.0 - xi_sq))
    v22 = (b + rho * a) / xi_sq
    v23 = ((rho - 1.0) / xi_sq) * complex(x3, -x4) * complex(x5, x6)
    v33 = (a + rho * b) / xi_sq
    return np.array(
        [
            [rho, complex(-x5, x6), complex(-x3, x4)],
            [complex(x5, x6), v22, v23],
            [complex(x3, x4), v23.conjugate(), v33],
        ],
        dtype=complex,
    )
