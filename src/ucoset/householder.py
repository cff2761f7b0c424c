"""Householder reflections and sequential factorizations of unitary matrices.

A Householder reflection with pivot vector ``u`` is

    R(u) = 1 - (2 / <u|u>) |u><u| ,

which is Hermitian, unitary, involutive and has determinant -1.  For a unit
column ``w`` the pivot

    u = w + e^{i phi} e_k ,      phi = arg(w_k) ,

gives ``R(u) w = -e^{i phi} e_k`` and ``<u|u> = 2 (1 + |w_k|)``.  Clearing
one column per level factors any N x N unitary matrix into N - 1 reflections
times a diagonal of phases (forward ordering).

The reversed ordering ``U = D R_{N-1} ... R_1`` is the adjoint of the forward
one: reflections are Hermitian, so it holds exactly when
``U^dag = R_1 ... R_{N-1} D^dag``.  The forward column loop on ``U^dag``
therefore yields the reversed pivots unchanged, the residual conjugated and
the pivot phases negated.

A factorization stores its N - 1 pivots as one read-only (N - 1) x N array,
the level-k pivot in row k - 1, so the strict lower triangle is exactly
zero; its constructor checks that stack once, in array form.  The column
loop writes each pivot straight into its row, and ``reflections`` are
``Reflection`` views on the rows.

Every product of reflections in the package runs in panels of ``_PANEL``
consecutive reflections.  A panel with at least ``_PANEL`` columns after it
is blocked: its reflections act at once in compact-WY form
``1 - V T V^dag``, the pivots as the columns of ``V``, by two matrix
products (Schreiber & Van Loan 1989).  While a factorization is being found,
each pivot depends on the reflections before it, so within a blocked panel
each reflection first updates the panel's own columns as a rank-1 update
of the rows from its level on, where its leading components are exactly
zero, and only the columns after the panel take the blocked update.  When
all pivots are known (a factorization multiplied back, a coset
composition, a stack of Haar samples), the blocked update covers the
panel's own columns too.  Every other panel is rank-1 updates across all
columns, so below dimension ``2 * _PANEL`` a product is rank-1 updates
alone, as is a single reflection.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numkit import (
    DEFAULT_TOLERANCES,
    ComplexMatrix,
    ComplexVector,
    DimensionMismatchError,
    DomainError,
    Tolerances,
    UcosetError,
    _as_square_matrix,
    unitarity_error,
)

__all__ = [
    "FORWARD",
    "REVERSED",
    "Reflection",
    "PhaseDiagonal",
    "HouseholderFactorization",
    "NotUnitaryError",
    "PhaseError",
    "NotUnitLengthError",
    "LeadingComponentsNonzeroError",
    "DimensionMismatchError",
    "DomainError",
    "reflect_matrix",
    "pivot_from_column",
    "apply_reflection",
    "decompose",
    "decompose_reversed",
    "reconstruct",
]

FORWARD = "forward"
REVERSED = "reversed"

# Largest deviation of a phase entry from the unit circle, and of a residual
# entry from -e^{i phi_k}.  An input with unitarity defect eps leaves both
# deviations at about eps / 2, so every input inside the default gate (1e-10)
# passes with a wide margin.
PHASE_TOL = 1e-8

# Reflections per compact-WY panel (see the module docstring).
_PANEL = 32

# Smallest <u|u> of a pivot: one built from a unit column has
# <u|u> = 2 (1 + rho) >= 2.
_MIN_NORM_SQ = 2.0 * (1.0 - 1e-8)


class NotUnitaryError(UcosetError):
    """Input matrix fails the unitarity tolerance."""


class PhaseError(NotUnitaryError):
    """Phase entries are off the unit circle, or residual entries differ
    from -e^{i phi_k}, by more than PHASE_TOL.

    Raised while factoring an input whose defect a loosened gate let
    through but that is too far from unitary to end in a phase diagonal.
    """


class NotUnitLengthError(NotUnitaryError):
    """A column handed to the pivot builder, or a pivot, is not unit length."""


class LeadingComponentsNonzeroError(UcosetError):
    """Components that must already be cleared are not negligible."""


def _canonical_angle(phi: float) -> float:
    # Wrap into (-pi, pi]; exact for atan2 outputs, where the nearest
    # multiple of 2 pi is zero and only the -pi edge moves (onto +pi).
    phi = math.remainder(phi, math.tau)
    if phi <= -math.pi:
        phi += math.tau
    return phi


def _pivot_record(obj, pivot, level: int):
    # Sets the fields of a frozen Reflection or CosetFactor: the pivot, made
    # read-only, its level and its dim.
    pivot.setflags(write=False)
    for name, value in (("pivot", pivot), ("level", level), ("dim", pivot.shape[0])):
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class Reflection:
    """Householder reflection pivot acting on coordinates ``level`` .. ``dim``.

    ``level`` is 1-based: the pivot components with index below ``level - 1``
    (0-based) are exactly zero, so the reflection is exactly the identity on
    the leading ``level - 1`` coordinates.
    """

    pivot: ComplexVector
    level: int
    dim: int

    def __post_init__(self):
        if not 1 <= self.level <= self.dim - 1:
            raise DimensionMismatchError(f"level {self.level} outside 1..{self.dim - 1}")
        pivot = np.array(self.pivot, dtype=complex)
        if pivot.shape != (self.dim,):
            raise DimensionMismatchError(
                f"pivot shape {pivot.shape} does not match dim {self.dim}"
            )
        _reflection_norms(pivot[None], self.level)
        _pivot_record(self, pivot, self.level)

    @classmethod
    def _from_pivot(cls, pivot, level: int) -> "Reflection":
        # The reflection of a pivot that is already checked: a row of a
        # factorization's stack, or a pivot just built from a column.
        return _pivot_record(cls.__new__(cls), pivot, level)

    @property
    def norm_sq(self) -> float:
        return float(np.real(np.vdot(self.pivot, self.pivot)))


@dataclass(frozen=True, eq=False)
class PhaseDiagonal:
    """Diagonal of unit-modulus entries."""

    phases: ComplexVector
    dim: int

    def __post_init__(self):
        phases = np.array(self.phases, dtype=complex)
        if phases.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected {self.dim} phases, got shape {phases.shape}"
            )
        if not np.all(np.isfinite(phases)):
            raise DomainError("phases have non-finite entries")
        dev = float(np.max(np.abs(np.abs(phases) - 1.0)))
        if dev > PHASE_TOL:
            raise PhaseError(
                f"phase entries deviate from unit modulus by {dev:.3e} "
                f"(bound {PHASE_TOL:.0e})"
            )
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

    def matrix(self) -> ComplexMatrix:
        return np.diag(self.phases)


def _pivot_stack(pivots, dim: int) -> np.ndarray:
    # The (dim - 1) x dim pivot stack as a read-only complex array.  A
    # read-only complex array is kept as it is, so that factorizations can
    # share a stack; anything else is copied.
    try:
        p = np.asarray(pivots)
        if p.dtype != complex or p.flags.writeable:
            p = np.array(p, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"pivots do not form an array: {exc}") from exc
    if p.shape != (dim - 1, dim):
        raise DimensionMismatchError(f"pivot stack shape {p.shape} is not {(dim - 1, dim)}")
    p.setflags(write=False)
    return p


def _pivot_norms(p, level: int, invalid, leading) -> np.ndarray:
    # <u|u> of each row of the pivots p, row j at level ``level + j``.  A row
    # whose entries or <u|u> are not finite raises invalid, and one with an
    # entry before its level that is not exactly zero raises leading.
    norm_sq = np.einsum("ij,ij->i", p, p.conj()).real
    bad = np.flatnonzero(~np.isfinite(norm_sq))
    if bad.size:
        raise invalid(f"pivot at level {bad[0] + level} has non-finite entries or norm")
    bad = np.flatnonzero(np.tril(p, level - 2).any(axis=1))
    if bad.size:
        raise leading(f"pivot at level {bad[0] + level} must be exactly zero before its level")
    return norm_sq


def _reflection_norms(p, level: int) -> None:
    # _pivot_norms for reflection pivots, which also need <u|u> >= 2.
    norm_sq = _pivot_norms(p, level, DomainError, LeadingComponentsNonzeroError)
    short = np.flatnonzero(norm_sq < _MIN_NORM_SQ)
    if short.size:
        raise NotUnitLengthError(f"pivot at level {short[0] + level} has norm-squared "
                                 f"{norm_sq[short[0]]} below the bound 2")


@dataclass(frozen=True, eq=False)
class HouseholderFactorization:
    """Pivot stack plus residual phases for one unitary matrix.

    ``pivots`` is the read-only (dim - 1) x dim array of the reflection
    pivots, the level-k pivot in row k - 1; ``reflections`` are ``Reflection``
    views on its rows.  Forward ordering reconstructs as
    ``R_1 R_2 ... R_{dim-1} D``; reversed ordering as ``D R_{dim-1} ... R_1``
    with ``D`` the residual diagonal.  For every level ``k < dim`` the
    residual entry equals ``-e^{i phi_k}`` with ``phi_k`` the stored pivot
    phase; the last entry is free.
    """

    pivots: np.ndarray
    residual: PhaseDiagonal
    ordering: str
    dim: int
    pivot_phases: np.ndarray

    def __post_init__(self):
        if self.ordering not in (FORWARD, REVERSED):
            raise DomainError(f"unknown ordering {self.ordering!r}")
        if self.dim < 1:
            raise DimensionMismatchError("dim must be at least 1")
        pivots = _pivot_stack(self.pivots, self.dim)
        _reflection_norms(pivots, 1)
        if self.residual.dim != self.dim:
            raise DimensionMismatchError("residual dim does not match")
        phases = np.array(self.pivot_phases, dtype=float)
        if phases.shape != (self.dim - 1,):
            raise DimensionMismatchError("need one pivot phase per reflection")
        if phases.size and not np.all((phases > -math.pi) & (phases <= math.pi)):
            raise DomainError("pivot phases must lie in (-pi, pi]")
        expected = -np.exp(1j * phases)
        if phases.size:
            dev = float(np.max(np.abs(self.residual.phases[: self.dim - 1] - expected)))
            if dev > PHASE_TOL:
                raise PhaseError(
                    f"residual entries deviate from -e^{{i phi_k}} by {dev:.3e} "
                    f"(bound {PHASE_TOL:.0e})"
                )
        phases.setflags(write=False)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "pivot_phases", phases)

    @property
    def reflections(self) -> tuple:
        return tuple(Reflection._from_pivot(p, k) for k, p in enumerate(self.pivots, start=1))


def reflect_matrix(r: Reflection) -> ComplexMatrix:
    """Dense matrix ``1 - (2 / <u|u>) |u><u|`` of the reflection."""
    return apply_reflection(r, np.eye(r.dim, dtype=complex), "left")


def apply_reflection(r: Reflection, m, side: str = "left"):
    """Apply the reflection to a matrix or vector as a rank-1 update.

    ``side="left"`` computes ``R m`` (1-D input is a column), ``side="right"``
    computes ``m R`` (1-D input is a row).  The dense reflector is never
    formed, and only the rows (left) or columns (right) from the level on
    change; cost is O((dim - level) * cols).
    """
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    right = side == "right"
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (1, 2):
        raise DimensionMismatchError("operand must be a vector or a matrix")
    length = a.shape[-1] if right else a.shape[0]
    if length != r.dim:
        raise DimensionMismatchError(f"operand length {length} does not match dim {r.dim}")
    # m R = (R^T m^T)^T and R(u)^T = R(conj u): the right side reflects rows
    # of the transpose.
    t = np.array(a.T if right else a, order="C")
    u = r.pivot.conj() if right else r.pivot
    _reflect_rows(t.reshape(r.dim, -1), r.level - 1, u, 2.0 / r.norm_sq)
    return t.T if right else t


def _reflect_rows(t, i, u, c) -> None:
    # t <- (1 - c |u><u|) t in place for a pivot u whose components before
    # index i are exactly zero, so only rows i.. of t change.  Broadcasts over
    # leading batch axes shared by t (..., N, M), u (..., N) and c (...).
    v = u[..., i:]
    rows = t[..., i:, :]
    w = np.asarray(c)[..., None, None] * (v.conj()[..., None, :] @ rows)
    rows -= v[..., :, None] * w


def _panels(n: int) -> list:
    # (lo, hi, end) per panel of pivot rows lo .. hi - 1 of the N - 1
    # reflections of an N-dim product.  A panel is blocked when at least
    # _PANEL columns follow it: then end = hi, and columns end.. take the
    # panel as one compact-WY update.  Otherwise end = n.
    panels = []
    for lo in range(0, n - 1, _PANEL):
        hi = min(lo + _PANEL, n - 1)
        panels.append((lo, hi, hi if n - hi >= _PANEL else n))
    return panels


def _wy_factor(v, c) -> np.ndarray:
    # Upper-triangular T with R(v_1) ... R(v_b) = 1 - V T V^dag, for the
    # pivots v (..., b, m) as the columns of V and c (..., b) their real
    # 2 / <v|v>.  Schreiber & Van Loan's recurrence: T_jj = c_j and
    # T[:j, j] = -c_j T[:j, :j] (V^dag V)[:j, j], where column j above the
    # diagonal holds -c_j (V^dag V)[:j, j] until its turn.  Broadcasts over
    # batch axes.
    b = c.shape[-1]
    t = np.triu((v.conj() @ np.swapaxes(v, -1, -2)) * -c[..., None, :], 1)
    t[..., range(b), range(b)] = c
    for j in range(1, b):
        t[..., :j, j:j + 1] = t[..., :j, :j] @ t[..., :j, j:j + 1]
    return t


def _apply_wy(blk, v, t) -> None:
    # blk <- (1 - V t V^dag) blk in place, the pivots v (..., b, m) as the
    # columns of V: two matrix products through the b-row middle term.
    blk -= np.swapaxes(v, -1, -2) @ (t @ (v.conj() @ blk))


def _product(pivots, phases, ordering: str) -> ComplexMatrix:
    # R(u_1) ... R(u_{N-1}) D (forward) or D R(u_{N-1}) ... R(u_1) (reversed)
    # for pivots (..., N - 1, N), the level-k pivot in row k - 1, and phases
    # (..., N).  R(u)^T = R(conj u), so the reversed product is built as its
    # transpose, the forward product of the conjugate pivots.  Panels run
    # from the last one back.  R(u_{i+2}) ... D is diagonal on the leading
    # i + 1 coordinates, so rows i.. of t are zero before column i, and a
    # blocked panel, whose pivots are all known, takes its own columns in
    # the same blocked update as those after it.
    n = phases.shape[-1]
    if ordering == REVERSED:
        pivots = pivots.conj()
    c = 2.0 / np.einsum("...j,...j->...", pivots, pivots.conj()).real
    t = phases[..., None] * np.eye(n)
    for lo, hi, end in reversed(_panels(n)):
        if end < n:
            v = pivots[..., lo:hi, lo:]
            _apply_wy(t[..., lo:, lo:], v, _wy_factor(v, c[..., lo:hi]))
        else:
            for i in range(hi - 1, lo - 1, -1):
                _reflect_rows(t[..., i:], i, pivots[..., i, :], c[..., i])
    return t if ordering == FORWARD else np.swapaxes(t, -1, -2)


def pivot_from_column(w, level: int, tol: Tolerances | None = None):
    """Build the level-``level`` reflection pivot from a unit column.

    Parameters
    ----------
    w : array_like
        Complex vector of unit length whose components below ``level - 1``
        (0-based) are negligible.
    level : int
        1-based level of the reflection.
    tol : Tolerances, optional

    Returns
    -------
    (Reflection, float)
        The reflection with pivot ``u = w + e^{i phi} e_level`` and the
        phase ``phi = arg(w_level)`` canonicalized to (-pi, pi]; ``phi = 0``
        when the pivot component vanishes.  ``R(u) w = -e^{i phi} e_level``.

    Raises
    ------
    NotUnitLengthError
        If ``w`` is not unit length within ``tol.unitarity_tol``, or the
        pivot's ``<u|u>`` falls below the bound 2.
    LeadingComponentsNonzeroError
        If the leading components exceed ``tol.unitarity_tol``.
    """
    tol = tol or DEFAULT_TOLERANCES
    v = np.array(w, dtype=complex)
    if v.ndim != 1:
        raise DimensionMismatchError("column must be one-dimensional")
    phi, _ = _pivot_in_place(v, level, tol.unitarity_tol)
    return Reflection._from_pivot(v, level), phi


def _pivot_in_place(v, level: int, tol: float):
    # Checks the column v, a contiguous vector, at tolerance tol and
    # overwrites it with its level-``level`` pivot; returns the pivot phase
    # and <u|u>.
    if not np.isfinite(v).all():
        raise DomainError(f"column at level {level} has non-finite entries")
    n = v.shape[0]
    if not 1 <= level <= n - 1:
        raise DimensionMismatchError(f"level {level} outside 1..{n - 1}")
    norm = math.sqrt(np.vdot(v, v).real)
    if abs(norm - 1.0) > tol:
        raise NotUnitLengthError(
            f"column norm {norm} at level {level} is not 1 within tolerance"
        )
    i = level - 1
    if i and np.abs(v[:i]).max() > tol:
        raise LeadingComponentsNonzeroError(
            f"components below level {level} exceed tolerance"
        )
    v[:i] = 0.0  # exact zeros keep the leading subspace exactly invariant
    phi = _canonical_angle(float(np.angle(v[i])))
    v[i] += complex(math.cos(phi), math.sin(phi))
    norm_sq = float(np.real(np.vdot(v, v)))
    if norm_sq < _MIN_NORM_SQ:
        raise NotUnitLengthError(
            f"pivot norm-squared {norm_sq} at level {level} below the bound 2"
        )
    return phi, norm_sq


def _require_unitary(u, tol: Tolerances) -> np.ndarray:
    a = _as_square_matrix(u)
    err = unitarity_error(a)
    if err > tol.unitarity_tol:
        raise NotUnitaryError(
            f"unitarity_error {err:.3e} exceeds tolerance {tol.unitarity_tol:.1e}"
        )
    return a


def _clear_columns(u, tol: Tolerances, ordering: str) -> HouseholderFactorization:
    # The forward column loop, on a C-ordered work copy of U (forward) or
    # U^dag (reversed), after the gate on U.  With eps = max |a^dag a - 1|
    # for the matrix a the loop works on, the column of level k has a norm
    # within about eps / 2 of 1, and its component j < k is (a^dag a)_jk
    # plus at most eps / sqrt 2 left by the norm error of column j; so every
    # level passes its column checks at 2 eps.  The gate bounds eps for U;
    # max |U U^dag - 1| is at most the equal 2-norms of both defects, so at
    # most N times it.  Rows i.. of the columns before i are never read
    # again, so reflection i updates only columns i.. .  The columns after a
    # panel take R(u_hi) ... R(u_lo) = (1 - V T V^dag)^dag, hence T^dag; V
    # is the panel's rows of the stack from the panel's first column on,
    # where the pivots' leading zeros end.
    a = _require_unitary(u, tol)
    n = a.shape[0]
    if ordering == FORWARD:
        a, check_tol = np.array(a, order="C"), 2.0 * tol.unitarity_tol
    else:
        a, check_tol = np.conj(a.T, order="C"), 2.0 * n * tol.unitarity_tol
    pivots = np.zeros((n - 1, n), dtype=complex)
    phases = np.empty(n - 1)
    c = np.empty(n - 1)
    for lo, hi, end in _panels(n):
        for i in range(lo, hi):
            pivots[i] = a[:, i]
            phases[i], norm_sq = _pivot_in_place(pivots[i], i + 1, check_tol)
            c[i] = 2.0 / norm_sq
            _reflect_rows(a[:, i:end], i, pivots[i], c[i])
        if end < n:
            v = pivots[lo:hi, lo:]
            _apply_wy(a[lo:, end:], v, _wy_factor(v, c[lo:hi]).conj().T)
    pivots.setflags(write=False)
    residual = np.diag(a)
    if ordering == REVERSED:
        residual, phases = residual.conj(), np.where(phases == math.pi, math.pi, -phases)
    return HouseholderFactorization(pivots, PhaseDiagonal(residual, n), ordering, n, phases)


def decompose(u, tol: Tolerances | None = None) -> HouseholderFactorization:
    """Factor a unitary matrix as ``U = R_1 R_2 ... R_{N-1} D`` (forward).

    Level k clears column k of the work matrix down to ``-e^{i phi_k} e_k``;
    what remains after all levels is the residual phase diagonal ``D``.

    Raises NotUnitaryError when the input fails the unitarity tolerance.
    """
    return _clear_columns(u, tol or DEFAULT_TOLERANCES, FORWARD)


def decompose_reversed(u, tol: Tolerances | None = None) -> HouseholderFactorization:
    """Factor a unitary matrix as ``U = D R_{N-1} ... R_1`` (reversed).

    Runs the forward column loop on ``U^dag = R_1 ... R_{N-1} D^dag``: the
    pivots are the same, so right-multiplication by ``R_k`` clears row k of
    ``U`` to ``-e^{i phi_k} e_k``.  The residual is conjugated and each pivot
    phase negated, with -pi mapped back to pi.

    Raises NotUnitaryError when ``U`` itself fails the unitarity tolerance.
    """
    return _clear_columns(u, tol or DEFAULT_TOLERANCES, REVERSED)


def reconstruct(f: HouseholderFactorization) -> ComplexMatrix:
    """Multiply a factorization back into a dense matrix."""
    return _product(f.pivots, f.residual.phases, f.ordering)
