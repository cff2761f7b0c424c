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
and rho = 2 |p_k|^2 / <p|p> - 1 are read off it in O(N).  Every pivot made
here comes from the one pivot builder of ``householder``, which the Haar
sampler feeds its drawn 1 + rho_k and X_k; ``decompose`` and the forward
conversion read such a draw back, X_k and the phases (the first N - 1
negated) to rounding, within the bound ``tests/test_haar.py`` derives.
One factor per level times a diagonal of phases reproduces any unitary
matrix.  Like a Householder factorization, a coset factorization stores
its pivots as one read-only (N - 1) x N stack, and its ``factors`` are
``CosetFactor`` views on the rows, each with the X that one array pass over
the whole stack read for it; a lone factor is a stack of one row, read by
the same pass, so both reads agree bit for bit.  The conversions from a
Householder factorization negate column k (forward: the stack is shared as
it is) or row k (reversed, F_k R(u) = R(F_k u) F_k: one copy with each u_k
negated) of each reflection; the sign flips migrate into the terminal
phase diagonal, so composing the factors is one product of reflections,
O(N^3) in the panels of ``householder``.  A conversion hands the stack,
the terminal phases and the Householder record's WY factors to the coset
record by ``_trusted``, without the checks both passed (a sign flip keeps
each modulus), so composing forms no compact-WY ``T`` in either ordering.

The level-1 factor is also the exponential of the anti-Hermitian generator
with column B below the corner; for ||B|| in (pi/2, pi] its corner is
negative, outside the X chart, and only the pivot describes it.  Closed
ranges and identities are checked with the fixed slack bounds of ``numkit``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _NAMES
from .numkit import (
    BALL_SLACK,
    FACTOR_IDENTITY_TOL,
    FACTOR_MATCH_TOL,
    RHO_SLACK,
    ComplexMatrix,
    ComplexVector,
    DomainError,
    UcosetError,
    _as_array,
    _check_level,
    _frozen_array,
    _instance,
    _real,
    _trusted,
)
from .householder import (
    FORWARD,
    REVERSED,
    HouseholderFactorization,
    PhaseDiagonal,
    _canonical_angle,
    _check_record,
    _negated_corners,
    _pivots,
    _product,
    _reflect_rows,
)

__all__ = _NAMES["coset"].split()


class WrongOrderingError(UcosetError):
    """Factorization ordering does not match the requested conversion."""


class MalformedFactorError(UcosetError):
    """Matrix does not have the structure of a coset factor."""


class BallViolationError(UcosetError):
    """Coset coordinates lie outside the closed unit ball."""


class RhoRangeError(UcosetError):
    """rho must lie in [0, 1] and agree with <X|X>."""


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
        _check_level(self.level, self.dim)
        x = _frozen_array(self.x, (self.dim - self.level,), complex, "x")
        r_sq = float(np.real(np.vdot(x, x)))
        if r_sq > 1.0 + BALL_SLACK:
            raise BallViolationError(f"<x|x> = {r_sq} exceeds 1")
        if not -BALL_SLACK <= _real(self.rho, "rho", RhoRangeError) <= 1.0 + BALL_SLACK:
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
        modulus = _real(self.modulus, "modulus", RhoRangeError)
        if not math.sqrt(0.5) - BALL_SLACK <= modulus <= 1.0 + BALL_SLACK:
            raise RhoRangeError(f"modulus {modulus} outside [sqrt(1/2), 1]")
        if not -math.pi < _real(self.phase, "phase", DomainError) <= math.pi:
            raise DomainError(f"phase {self.phase} outside (-pi, pi]")

    @property
    def as_complex(self) -> complex:
        return self.modulus * complex(math.cos(self.phase), math.sin(self.phase))


@dataclass(frozen=True, eq=False, init=False)
class CosetFactor:
    """One coset factor at level k: ``R(p)`` with column k negated.

    The read-only ``pivot`` p is stored; its components before k are
    exactly zero.  ``vector`` is X and rho, read off p when the factor is
    built, and is None when the corner is negative, outside the X chart.
    A factor of ``CosetFactorization.factors`` is a row of its stack and
    carries what the read of the whole stack gave that row; any other
    factor (``CosetFactor(matrix=...)``, ``coset_matrix_from_X``,
    ``exp_coset``) is a stack of one row and is read the same way.
    ``matrix`` assembles the read-only dense factor in O(N^2) on each
    access.  ``CosetFactor(matrix=..., level=...)`` reads the pivot off a
    hand-made factor and checks in O(N^2) that the matrix is that factor.
    """

    level: int
    dim: int
    pivot: ComplexVector
    vector: CosetVector | None

    def __init__(self, matrix, level: int):
        self.__dict__.update(vars(_lone(_factor_pivot(matrix, level), level)))

    @property
    def matrix(self) -> ComplexMatrix:
        i = self.level - 1
        with np.errstate(all="ignore"):
            _, c, rho, _ = _chart(self.pivot[None], i)
        m = np.eye(self.dim, dtype=complex)
        _reflect_rows(m, i, self.pivot, c[0] * self.pivot.conj())
        m[i:, i] *= -1.0
        m[i, i] = rho[0]
        m.setflags(write=False)
        return m


@dataclass(frozen=True, eq=False)
class CosetFactorization:
    """Pivot stack of the coset factors plus terminal phases.

    ``pivots`` is the read-only (dim - 1) x dim array of the factor pivots,
    the level-k pivot in row k - 1; each must have a normal ``<p|p>``.  As
    for a ``HouseholderFactorization``, the constructor keeps a read-only
    copy of the stack it is given; only a conversion shares one.
    ``factors`` are ``CosetFactor`` views on its rows, built on each access
    together with one array pass that reads X and rho for every level; each
    factor carries its ``vector`` from that pass (None for a negative
    corner), and a level whose read fails a check of ``CosetVector``
    raises that check's error there.  Forward ordering
    composes as ``C_1 C_2 ... C_{dim-1} T``; reversed ordering as
    ``T C_{dim-1} ... C_1`` with ``T`` the terminal diagonal.
    """

    pivots: np.ndarray
    terminal_phases: PhaseDiagonal
    ordering: str
    dim: int

    # The Householder record's WY factor of each panel, handed on by a
    # conversion; no field, so only _trusted sets it, and None otherwise.
    _wy = None

    def __post_init__(self):
        norm_sq = _check_record(self, self.terminal_phases, MalformedFactorError,
                                MalformedFactorError)
        # Any nonzero pivot is a factor, but one whose <p|p> is below the
        # least normal float, a zero row included, may have no finite
        # 2 / <p|p>: the X read and the products sum <p|p> in other orders
        # than this check, and at this bound 2 / <p|p> is finite for all.
        tiny = np.flatnonzero(norm_sq < np.finfo(float).tiny)
        if tiny.size:
            raise MalformedFactorError(f"pivot at level {tiny[0] + 1} has <p|p> = "
                                       f"{norm_sq[tiny[0]]}, too small for 2 / <p|p>")

    @property
    def factors(self) -> tuple:
        return tuple(_factors(self.pivots, 1))


@dataclass(frozen=True, eq=False)
class Generator:
    """Anti-Hermitian coset generator, fixed by the column B below the corner.

    ``||B|| <= pi`` keeps the exponential within the principal range.
    """

    b: ComplexVector
    dim: int
    level: int

    def __post_init__(self):
        _check_level(self.level, self.dim)
        b = _frozen_array(self.b, (self.dim - self.level,), complex, "b")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(b))
        if norm > math.pi + BALL_SLACK:
            raise DomainError("||B|| must not exceed pi")
        object.__setattr__(self, "b", b)


def _row_sq(a, k):
    # The sum of |a_i|^2 over each row of a but its corner, column k + j of
    # row j: elementwise steps and row sums, so that a row's sum is the same,
    # bit for bit, alone or in a stack.
    sq = np.square(a.real)
    sq += np.square(a.imag)
    sq.reshape(-1)[k::a.shape[1] + 1] = 0.0
    return np.add.reduce(sq, axis=1)


def _chart(p, k):
    # conj(p_k), 2 / <p|p>, the corner rho = 2 |p_k|^2 / <p|p> - 1 and the
    # row times 2 conj(p_k) / <p|p>, whose entries after the corner are X,
    # of each row of the pivots p, as arrays; row j has its corner in
    # column k + j.  <p|p> is summed as |p_k|^2 plus the row's other
    # |p_i|^2, so that a pure-phase pivot gives exactly 1.  Entries whose
    # squares overflow give a NaN corner, as Python floats would, and warn
    # unless the caller ignores floating-point errors, as both callers do.
    pk_bar = np.diagonal(p, k).conj()
    pk_sq = pk_bar.real * pk_bar.real + pk_bar.imag * pk_bar.imag
    norm_sq = pk_sq + _row_sq(p, k)
    c = 2.0 / norm_sq
    return pk_bar, c, 2.0 * pk_sq / norm_sq - 1.0, (c * pk_bar)[:, None] * p


def _factors(pivots, level: int) -> list:
    # The CosetFactor of each row of pivots, row j at level level + j, with
    # X and rho from one _chart pass: no vector for a negative corner, else
    # X, a read-only row of one array, and rho clipped to [0, 1].  The
    # checks of CosetVector (finite X, <x|x> <= 1, rho in [0, 1], rho
    # against <x|x>) run in array form, on the row sums of |X|^2; a row that
    # fails one gets CosetVector itself, which raises that check's error.
    # Before the corner X is exactly zero unless the row's scale is not
    # finite, and then X fails anyway.
    with np.errstate(all="ignore"):
        *_, rho, x = _chart(pivots, level - 1)
        r_sq = _row_sq(x, level - 1)
    x.setflags(write=False)
    rho_in = rho.clip(0.0, 1.0)
    ok = (r_sq <= 1.0 + BALL_SLACK) & (np.abs(rho_in * rho_in + r_sq - 1.0) <= RHO_SLACK)
    n = pivots.shape[1]
    factors = []
    for lv, (p, xr, r, r_in, good) in enumerate(zip(pivots, x, rho.tolist(), rho_in.tolist(),
                                                    ok.tolist()), level):
        if r < -BALL_SLACK:
            v = None
        elif good:
            v = _trusted(CosetVector, x=xr[lv:], level=lv, dim=n, rho=r_in)
        else:
            v = CosetVector(xr[lv:], lv, n, r_in)
        factors.append(_trusted(CosetFactor, level=lv, dim=n, pivot=p, vector=v))
    return factors


def _factor_pivot(matrix, level: int) -> np.ndarray:
    # The pivot of a hand-made level-k factor, checked in O(N^2) to be that
    # factor's; MalformedFactorError otherwise.
    m = _as_array(matrix, f"factor at level {level}")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MalformedFactorError(
            f"factor at level {level} must be square, got {m.shape}")
    n = m.shape[0]
    _check_level(level, n)
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
    p = _pivots(n, level, [a[i, j]], a[level:, j])[0]
    # The factor of p, its X unread.  Entries too large for <p|p> to be
    # finite give a NaN corner, which must fail this check rather than pass it.
    bare = _trusted(CosetFactor, level=level, dim=n, pivot=p, vector=None)
    if not np.any(p) or not float(np.max(np.abs(bare.matrix - m))) <= FACTOR_MATCH_TOL:
        raise MalformedFactorError(
            f"factor at level {level} is not a column-flipped reflection")
    return p


def _lone(p, level: int) -> CosetFactor:
    # The factor of a new pivot p, which it sets read-only, that is no row of
    # a stack: a stack of one row, read by the same pass as a stack.
    p.setflags(write=False)
    return _factors(p[None], level)[0]


def _other_phases(phases) -> np.ndarray:
    # Read-only terminal phases of residual phases, or back: each F_k, the
    # sign flip of coordinate k, migrates into the diagonal and negates
    # phase k (F_k squares to 1).
    phases = np.array(phases)
    phases[:-1] *= -1.0
    phases.setflags(write=False)
    return phases


def _cosets_from_pivots(f: HouseholderFactorization, ordering: str) -> CosetFactorization:
    # No reflector is formed.  The Householder record has checked the
    # stack: finite, exactly zero before each level and
    # <u|u> >= 2 (1 - PIVOT_NORM_SLACK).  Negated corners keep all three,
    # and so every <p|p> is far above the least normal float, the coset
    # record's own bound.  A record of either kind with the other ordering
    # is refused as that.  Column k of R(u) negated is R(u) F_k, so a
    # forward factor keeps u and the stack is shared.  Row k negated is
    # F_k R(u) = R(F_k u) F_k, so a reversed factor keeps u with u_k
    # negated, in a copy.
    if getattr(f, "ordering", ordering) != ordering:
        raise WrongOrderingError(f"expected a {ordering} factorization")
    _instance(f, HouseholderFactorization, "factorization")
    pivots = _negated_corners(f.pivots) if ordering == REVERSED else f.pivots
    return _trusted(CosetFactorization, pivots=pivots,
                    terminal_phases=_trusted(PhaseDiagonal, phases=_other_phases(f.residual.phases),
                                             dim=f.dim),
                    ordering=ordering, dim=f.dim, _wy=f._wy)


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
    _instance(cf, CosetFactorization, "coset factorization")
    return _product(cf.pivots, _other_phases(cf.terminal_phases.phases), cf.ordering, cf._wy,
                    cf.ordering == REVERSED)


def extract_coset_vector(c: CosetFactor) -> CosetVector:
    """Read the ball coordinates X and rho back off a coset factor.

    Raises MalformedFactorError when the corner is negative, outside the X chart.
    """
    xv = _instance(c, CosetFactor, "coset factor").vector
    if xv is None:
        raise MalformedFactorError("corner entry is negative, outside the X chart")
    return xv


def coset_matrix_from_X(xv: CosetVector) -> CosetFactor:
    """The coset factor of ball coordinates X, stored as ``(1 + rho) e_k + X``."""
    _instance(xv, CosetVector, "coset vector")
    return _lone(_pivots(xv.dim, xv.level, [1.0 + xv.rho], xv.x)[0], xv.level)


def gamma_from_rho(rho: float, phase: float) -> Gamma:
    """Corner overlap gamma with ``|gamma| = sqrt((1 + rho) / 2)``."""
    if not math.isfinite(_real(phase, "phase", DomainError)):
        raise DomainError(f"phase {phase} is not finite")
    if not -BALL_SLACK <= _real(rho, "rho", RhoRangeError) <= 1.0 + BALL_SLACK:
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
    g = gamma_from_rho(_instance(xv, CosetVector, "coset vector").rho, phase).as_complex
    return _pivots(xv.dim, xv.level, [g], xv.x / (2.0 * g.conjugate()))[0]


def generator_matrix(g: Generator) -> ComplexMatrix:
    """Dense anti-Hermitian matrix whose exponential is ``exp_coset(g)``."""
    _instance(g, Generator, "generator")
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
    theta = float(np.linalg.norm(_instance(g, Generator, "generator").b))
    sinc = 0.5 * np.sinc(theta / (2.0 * math.pi))  # sin(theta/2)/theta
    return _lone(_pivots(g.dim, g.level, [math.cos(0.5 * theta)], sinc * g.b)[0], g.level)


def coset_u2_explicit(x1: float, x2: float) -> ComplexMatrix:
    """Explicit 3x3 level-2 coset factor on a disk point (x1, x2).

    The corner column is the single entry X = x1 + i x2 and both diagonal
    entries of the active block equal rho = sqrt(1 - x1^2 - x2^2).
    """
    if not np.isfinite([_real(x, "coordinate", DomainError) for x in (x1, x2)]).all():
        raise DomainError(f"coordinates ({x1}, {x2}) are not all finite")
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
    if not np.isfinite([_real(x, "coordinate", DomainError) for x in (x3, x4, x5, x6)]).all():
        raise DomainError(f"coordinates ({x3}, {x4}, {x5}, {x6}) are not all finite")
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
