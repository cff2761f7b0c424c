"""Canonical coset factors of unitary matrices and their parametrizations.

A coset factor at level k (1-based) is an N x N unitary that is the identity
on the leading k - 1 coordinates and is fixed on the rest by one complex
vector X with r^2 = <X|X> <= 1:

    corner   rho = sqrt(1 - r^2)         at position (k, k)
    column   X                           below the corner
    row      -X^dag                      right of the corner
    block    1 - |X><X| / (1 + rho)      trailing

One factor per level times a diagonal of phases reproduces any unitary
matrix.  The factors come from a Householder factorization by flipping the
sign of column k of each reflection (forward ordering) or of row k (reversed
ordering); the sign flips migrate into the terminal phase diagonal.  For a
pivot u both flips give rho = 2 |u_k|^2 / <u|u> - 1 and
X = +-2 conj(u_k) u_below / <u|u> (+ forward, - reversed), read off in O(N)
per level.  A factor is stored as X alone; its dense matrix is built on
demand, and composing N - 1 factors costs O(N^3) as rank-1 updates.

The pivot direction behind a factor is

    n = gamma e_k + X / (2 conj(gamma)) ,    |gamma| = sqrt((1 + rho) / 2) ,

with a free overall phase for gamma, and the level-1 factor is also the
exponential of the anti-Hermitian generator with column B below the corner
whenever ||B|| <= pi/2; for ||B|| in (pi/2, pi] the exponential leaves the
nonnegative-corner chart.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numkit import (
    DEFAULT_TOLERANCES,
    ComplexMatrix,
    ComplexVector,
    Tolerances,
    UcosetError,
    unitarity_error,
)
from .householder import (
    FORWARD,
    REVERSED,
    HouseholderFactorization,
    PhaseDiagonal,
    _canonical_angle,
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
    """rho must lie in [0, 1]."""


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
        if not 1 <= self.level <= self.dim - 1:
            raise ValueError(f"level {self.level} outside 1..{self.dim - 1}")
        x = np.array(self.x, dtype=complex)
        if x.shape != (self.dim - self.level,):
            raise ValueError(
                f"x must have length {self.dim - self.level}, got shape {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("x has non-finite entries")
        r_sq = float(np.real(np.vdot(x, x)))
        if r_sq > 1.0 + 1e-12:
            raise BallViolationError(f"<x|x> = {r_sq} exceeds 1")
        if not -1e-12 <= self.rho <= 1.0 + 1e-12:
            raise RhoRangeError(f"rho {self.rho} outside [0, 1]")
        if abs(self.rho * self.rho + r_sq - 1.0) > 2e-12:
            raise ValueError("rho is inconsistent with <x|x>")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    @classmethod
    def from_coords(cls, x, level: int, dim: int) -> "CosetVector":
        """Build from ball coordinates alone, deriving rho."""
        arr = np.asarray(x, dtype=complex)
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
        if not math.sqrt(0.5) - 1e-12 <= self.modulus <= 1.0 + 1e-12:
            raise ValueError(f"modulus {self.modulus} outside [sqrt(1/2), 1]")
        if not -math.pi < self.phase <= math.pi:
            raise ValueError(f"phase {self.phase} outside (-pi, pi]")

    @property
    def as_complex(self) -> complex:
        return self.modulus * complex(math.cos(self.phase), math.sin(self.phase))


@dataclass(frozen=True, eq=False, init=False)
class CosetFactor:
    """One coset factor at a level, stored as its ball coordinates X.

    Factors from the Householder conversions and ``coset_matrix_from_X``
    keep only their ``CosetVector`` (``vector``), whose ball bound and
    ``rho^2 + <X|X> = 1`` make the factor unitary.  ``matrix`` assembles
    the read-only dense factor in O(N^2) on every access; it is not cached.

    ``CosetFactor(matrix=..., level=...)`` instead keeps a dense factor
    (``vector`` is None) after checking that it is unitary and the identity
    below its level.  It serves hand-made factors and ``exp_coset``, whose
    corner cos(theta) is negative for theta > pi/2, outside the X chart.
    """

    level: int
    dim: int
    vector: CosetVector | None
    _dense: ComplexMatrix | None

    def __init__(self, matrix, level: int):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise MalformedFactorError(f"factor must be square, got {m.shape}")
        n = m.shape[0]
        if not 1 <= level <= n - 1:
            raise ValueError(f"level {level} outside 1..{n - 1}")
        if not np.all(np.isfinite(m)):
            raise ValueError("factor has non-finite entries")
        if unitarity_error(m) > 1e-8:
            raise MalformedFactorError("factor is not unitary")
        i = level - 1
        if i and float(np.max(np.abs(m[:i, :] - np.eye(n)[:i, :]))) > 1e-10:
            raise MalformedFactorError(
                f"factor must act as the identity below level {level}"
            )
        m.setflags(write=False)
        self._set(level, n, None, m)

    @classmethod
    def _from_vector(cls, xv: CosetVector) -> "CosetFactor":
        c = cls.__new__(cls)
        c._set(xv.level, xv.dim, xv, None)
        return c

    def _set(self, level, dim, vector, dense):
        for name, value in (("level", level), ("dim", dim),
                            ("vector", vector), ("_dense", dense)):
            object.__setattr__(self, name, value)

    @property
    def matrix(self) -> ComplexMatrix:
        if self.vector is None:
            return self._dense
        xv = self.vector
        i = xv.level - 1
        x = xv.x
        m = np.eye(xv.dim, dtype=complex)
        m[i, i] = xv.rho
        m[i + 1:, i] = x
        m[i, i + 1:] = -x.conj()
        # 1 / (1 + rho) is the stable form of (1 - sqrt(1 - r^2)) / r^2,
        # with no singularity as r -> 0.
        m[i + 1:, i + 1:] -= np.outer(x, x.conj()) / (1.0 + xv.rho)
        m.setflags(write=False)
        return m


@dataclass(frozen=True, eq=False)
class CosetFactorization:
    """Coset factors plus terminal phases for one unitary matrix.

    Forward ordering composes as ``C_1 C_2 ... C_{dim-1} T``; reversed
    ordering as ``T C_{dim-1} ... C_1`` with ``T`` the terminal diagonal.
    """

    factors: tuple
    terminal_phases: PhaseDiagonal
    ordering: str
    dim: int

    def __post_init__(self):
        if self.ordering not in (FORWARD, REVERSED):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        factors = tuple(self.factors)
        if [c.level for c in factors] != list(range(1, self.dim)):
            raise ValueError("need one coset factor per level 1..dim-1, in order")
        for c in factors:
            if c.dim != self.dim:
                raise ValueError("factor dim does not match")
        if self.terminal_phases.dim != self.dim:
            raise ValueError("terminal phases dim does not match")
        object.__setattr__(self, "factors", factors)


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
            raise ValueError(f"level {self.level} outside 1..{self.dim - 1}")
        b = np.array(self.b, dtype=complex)
        if b.shape != (self.dim - self.level,):
            raise ValueError(
                f"b must have length {self.dim - self.level}, got shape {b.shape}"
            )
        if not np.all(np.isfinite(b)):
            raise ValueError("b has non-finite entries")
        if float(np.linalg.norm(b)) > math.pi + 1e-12:
            raise ValueError("||B|| must not exceed pi")
        b.setflags(write=False)
        object.__setattr__(self, "b", b)


def _cosets_from_pivots(f: HouseholderFactorization, ordering: str) -> CosetFactorization:
    # Column k (forward) or row k (reversed) of R(u) negated has corner
    # rho = 2 |u_k|^2 / <u|u> - 1 and X = +-2 conj(u_k) u_below / <u|u>;
    # rho^2 + <X|X> = 1 holds exactly, so no reflector is formed.
    if f.ordering != ordering:
        raise WrongOrderingError(f"expected a {ordering} factorization")
    scale = 2.0 if ordering == FORWARD else -2.0
    factors = []
    for refl in f.reflections:
        i = refl.level - 1
        uk = complex(refl.pivot[i])
        below = refl.pivot[i + 1:]
        uk_sq = uk.real * uk.real + uk.imag * uk.imag
        norm_sq = uk_sq + float(np.real(np.vdot(below, below)))
        rho = min(max(2.0 * uk_sq / norm_sq - 1.0, 0.0), 1.0)
        x = (scale * uk.conjugate() / norm_sq) * below
        factors.append(CosetFactor._from_vector(
            CosetVector(x=x, level=refl.level, dim=f.dim, rho=rho)
        ))
    terminal = np.array(f.residual.phases)
    terminal[:-1] *= -1.0
    return CosetFactorization(
        factors=tuple(factors),
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

    A factor stored as X acts as a rank-1 update of the rows (forward) or
    columns (reversed) from its level on, so the product costs O(N^3);
    dense factors are multiplied in.
    """
    forward = cf.ordering == FORWARD
    # m C = (C^T m^T)^T, and the transpose of the reversed factor of X is
    # the forward factor of -conj(X), so the reversed product is built
    # transposed, from the terminal diagonal (its own transpose), by rows.
    t = cf.terminal_phases.matrix()
    for c in reversed(cf.factors):
        xv = c.vector
        if xv is None:
            t = c.matrix @ t if forward else c.matrix.T @ t
            continue
        x = xv.x if forward else -xv.x.conj()
        _apply_coset_rows(t, c.level - 1, x, xv.rho)
    return t if forward else t.T


def _apply_coset_rows(t, i, x, rho) -> None:
    # t <- C t in place, for C the coset factor of (X, rho) at level i + 1:
    # a rank-1 update of rows i.. of t.  Broadcasts over leading batch axes
    # shared by t (..., N, N), x (..., N - i - 1) and rho (...).
    rho = np.asarray(rho)[..., None]
    top = t[..., i, :].copy()
    rest = t[..., i + 1:, :]
    xr = (x.conj()[..., None, :] @ rest)[..., 0, :]
    t[..., i, :] = rho * top - xr
    rest += x[..., :, None] * (top - xr / (1.0 + rho))[..., None, :]


def extract_coset_vector(c: CosetFactor) -> CosetVector:
    """Read the ball coordinates X and rho back off a coset factor.

    A factor stored as X returns its vector.  For a dense factor, raises
    MalformedFactorError when the corner entry is not real and nonnegative
    within 1e-10 or the corner row is not ``-X^dag``.
    """
    if c.vector is not None:
        return c.vector
    m = c.matrix
    i = c.level - 1
    n = m.shape[0]
    corner = complex(m[i, i])
    if abs(corner.imag) > 1e-10:
        raise MalformedFactorError(f"corner entry {corner} is not real")
    rho = corner.real
    if rho < -1e-10 or rho > 1.0 + 1e-10:
        raise MalformedFactorError(f"corner entry {rho} outside [0, 1]")
    x = np.array(m[i + 1:, i])
    row = m[i, i + 1:]
    if float(np.max(np.abs(row + x.conj()))) > 1e-10:
        raise MalformedFactorError("corner row is not -X^dag")
    return CosetVector(x=x, level=c.level, dim=n, rho=min(max(rho, 0.0), 1.0))


def coset_matrix_from_X(xv: CosetVector) -> CosetFactor:
    """The coset factor for ball coordinates X, stored as X itself."""
    return CosetFactor._from_vector(xv)


def gamma_from_rho(rho: float, phase: float) -> Gamma:
    """Corner overlap gamma with ``|gamma| = sqrt((1 + rho) / 2)``."""
    if not -1e-12 <= rho <= 1.0 + 1e-12:
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

    With theta = ||B||, the corner is cos(theta), the corner column is
    sinc(theta) B, and the trailing block is
    ``1 - ((1 - cos theta) / theta^2) |B><B|``; every coefficient is an
    entire function of theta, so theta = 0 needs no special casing.  Agrees
    with the nonnegative-corner factor of X = sinc(theta) B exactly when
    theta <= pi/2.
    """
    b = g.b
    theta = float(np.linalg.norm(b))
    n = g.dim
    i = g.level - 1
    m = np.eye(n, dtype=complex)
    x = np.sinc(theta / math.pi) * b  # sin(theta)/theta * B
    m[i, i] = math.cos(theta)
    m[i + 1:, i] = x
    m[i, i + 1:] = -x.conj()
    half_sinc = np.sinc(theta / (2.0 * math.pi))  # sin(theta/2)/(theta/2)
    m[i + 1:, i + 1:] -= (0.5 * half_sinc * half_sinc) * np.outer(b, b.conj())
    return CosetFactor(matrix=m, level=g.level)


def coset_u2_explicit(x1: float, x2: float) -> ComplexMatrix:
    """Explicit 3x3 level-2 coset factor on a disk point (x1, x2).

    The corner column is the single entry X = x1 + i x2 and both diagonal
    entries of the active block equal rho = sqrt(1 - x1^2 - x2^2).
    """
    r_sq = x1 * x1 + x2 * x2
    if r_sq > 1.0 + 1e-12:
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
    if xi_sq > 1.0 + 1e-12:
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
