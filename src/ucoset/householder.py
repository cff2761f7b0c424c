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
        if not np.isfinite(pivot).all():
            raise DomainError("pivot has non-finite entries")
        if (pivot[: self.level - 1] != 0).any():
            raise LeadingComponentsNonzeroError(
                f"pivot components below level {self.level} must be exactly zero"
            )
        norm_sq = float(np.real(np.vdot(pivot, pivot)))
        # For a pivot built from a unit column, <u|u> = 2 (1 + rho) >= 2.
        if norm_sq < 2.0 * (1.0 - 1e-8):
            raise NotUnitLengthError(f"pivot norm-squared {norm_sq} below the bound 2")
        pivot.setflags(write=False)
        object.__setattr__(self, "pivot", pivot)

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


@dataclass(frozen=True, eq=False)
class HouseholderFactorization:
    """Reflections plus residual phases for one unitary matrix.

    Forward ordering reconstructs as ``R_1 R_2 ... R_{dim-1} D``; reversed
    ordering as ``D R_{dim-1} ... R_1`` with ``D`` the residual diagonal.
    For every level ``k < dim`` the residual entry equals ``-e^{i phi_k}``
    with ``phi_k`` the stored pivot phase; the last entry is free.
    """

    reflections: tuple
    residual: PhaseDiagonal
    ordering: str
    dim: int
    pivot_phases: np.ndarray

    def __post_init__(self):
        if self.ordering not in (FORWARD, REVERSED):
            raise DomainError(f"unknown ordering {self.ordering!r}")
        if self.dim < 1:
            raise DimensionMismatchError("dim must be at least 1")
        reflections = tuple(self.reflections)
        if [r.level for r in reflections] != list(range(1, self.dim)):
            raise DimensionMismatchError("need one reflection per level 1..dim-1, in order")
        for r in reflections:
            if r.dim != self.dim:
                raise DimensionMismatchError("reflection dim does not match")
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
        object.__setattr__(self, "reflections", reflections)
        object.__setattr__(self, "pivot_phases", phases)


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
        If ``w`` is not unit length within ``tol.unitarity_tol``.
    LeadingComponentsNonzeroError
        If the leading components exceed ``tol.unitarity_tol``.
    """
    tol = tol or DEFAULT_TOLERANCES
    v = np.array(w, dtype=complex)
    if v.ndim != 1:
        raise DimensionMismatchError("column must be one-dimensional")
    if not np.isfinite(v).all():
        raise DomainError("column has non-finite entries")
    n = v.shape[0]
    if not 1 <= level <= n - 1:
        raise DimensionMismatchError(f"level {level} outside 1..{n - 1}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > tol.unitarity_tol:
        raise NotUnitLengthError(f"column norm {norm} is not 1 within tolerance")
    i = level - 1
    if i and float(np.max(np.abs(v[:i]))) > tol.unitarity_tol:
        raise LeadingComponentsNonzeroError(
            f"components below level {level} exceed tolerance"
        )
    v[:i] = 0.0  # exact zeros keep the leading subspace exactly invariant
    phi = _canonical_angle(float(np.angle(v[i])))
    v[i] += complex(math.cos(phi), math.sin(phi))
    return Reflection(pivot=v, level=level, dim=n), phi


def _require_unitary(u, tol: Tolerances) -> np.ndarray:
    a = _as_square_matrix(u)
    err = unitarity_error(a)
    if err > tol.unitarity_tol:
        raise NotUnitaryError(
            f"unitarity_error {err:.3e} exceeds tolerance {tol.unitarity_tol:.1e}"
        )
    return a


def _clear_columns(a: np.ndarray, tol: Tolerances) -> HouseholderFactorization:
    # Overwrites a, a C-ordered work copy.  Rows i.. of the columns before i
    # are never read again, so reflection i updates only columns i.. .  The
    # columns after a panel take R(u_hi) ... R(u_lo) = (1 - V T V^dag)^dag,
    # hence T^dag; V starts at the panel's first row, where the pivots'
    # leading zeros end.
    n = a.shape[0]
    reflections = []
    phases = np.empty(n - 1)
    c = np.empty(n - 1)
    for lo, hi, end in _panels(n):
        for i in range(lo, hi):
            refl, phases[i] = pivot_from_column(a[:, i], i + 1, tol)
            reflections.append(refl)
            c[i] = 2.0 / refl.norm_sq
            _reflect_rows(a[:, i:end], i, refl.pivot, c[i])
        if end < n:
            v = np.array([r.pivot[lo:] for r in reflections[lo:hi]])
            _apply_wy(a[lo:, end:], v, _wy_factor(v, c[lo:hi]).conj().T)
    return HouseholderFactorization(
        reflections=tuple(reflections),
        residual=PhaseDiagonal(np.diag(a).copy(), n),
        ordering=FORWARD,
        dim=n,
        pivot_phases=phases,
    )


def decompose(u, tol: Tolerances | None = None) -> HouseholderFactorization:
    """Factor a unitary matrix as ``U = R_1 R_2 ... R_{N-1} D`` (forward).

    Level k clears column k of the work matrix down to ``-e^{i phi_k} e_k``;
    what remains after all levels is the residual phase diagonal ``D``.

    Raises NotUnitaryError when the input fails the unitarity tolerance.
    """
    tol = tol or DEFAULT_TOLERANCES
    return _clear_columns(np.array(_require_unitary(u, tol), order="C"), tol)


def decompose_reversed(u, tol: Tolerances | None = None) -> HouseholderFactorization:
    """Factor a unitary matrix as ``U = D R_{N-1} ... R_1`` (reversed).

    Runs the forward column loop on ``U^dag = R_1 ... R_{N-1} D^dag``: the
    pivots are the same, so right-multiplication by ``R_k`` clears row k of
    ``U`` to ``-e^{i phi_k} e_k``.  The residual is conjugated and each pivot
    phase negated, with -pi mapped back to pi.

    Raises NotUnitaryError when ``U`` itself fails the unitarity tolerance.
    """
    tol = tol or DEFAULT_TOLERANCES
    f = _clear_columns(np.conj(_require_unitary(u, tol).T, order="C"), tol)
    phases = f.pivot_phases
    return HouseholderFactorization(
        reflections=f.reflections,
        residual=PhaseDiagonal(f.residual.phases.conj(), f.dim),
        ordering=REVERSED,
        dim=f.dim,
        pivot_phases=np.where(phases == math.pi, math.pi, -phases),
    )


def reconstruct(f: HouseholderFactorization) -> ComplexMatrix:
    """Multiply a factorization back into a dense matrix."""
    pivots = np.array([r.pivot for r in f.reflections], dtype=complex)
    return _product(pivots.reshape(f.dim - 1, f.dim), f.residual.phases, f.ordering)
