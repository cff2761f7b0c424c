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
    "DegeneratePivotError",
    "NotUnitLengthError",
    "LeadingComponentsNonzeroError",
    "DimensionMismatchError",
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


class NotUnitaryError(UcosetError):
    """Input matrix fails the unitarity tolerance."""


class PhaseError(NotUnitaryError):
    """Phase entries are off the unit circle, or residual entries differ
    from -e^{i phi_k}, by more than PHASE_TOL.

    Raised while factoring an input whose defect a loosened gate let
    through but that is too far from unitary to end in a phase diagonal.
    """


class DegeneratePivotError(UcosetError):
    """Pivot norm-squared is too small to define a reflection."""


class NotUnitLengthError(NotUnitaryError):
    """A column handed to the pivot builder, or a pivot, is not unit length."""


class LeadingComponentsNonzeroError(UcosetError):
    """Components that must already be cleared are not negligible."""


class DimensionMismatchError(UcosetError):
    """Operand shapes are inconsistent with the reflection dimension."""


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
            raise ValueError(f"level {self.level} outside 1..{self.dim - 1}")
        pivot = np.array(self.pivot, dtype=complex)
        if pivot.shape != (self.dim,):
            raise DimensionMismatchError(
                f"pivot shape {pivot.shape} does not match dim {self.dim}"
            )
        if not np.all(np.isfinite(pivot)):
            raise ValueError("pivot has non-finite entries")
        if np.any(pivot[: self.level - 1] != 0):
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
            raise ValueError("phases have non-finite entries")
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
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        reflections = tuple(self.reflections)
        if [r.level for r in reflections] != list(range(1, self.dim)):
            raise ValueError("need one reflection per level 1..dim-1, in order")
        for r in reflections:
            if r.dim != self.dim:
                raise DimensionMismatchError("reflection dim does not match")
        if self.residual.dim != self.dim:
            raise DimensionMismatchError("residual dim does not match")
        phases = np.array(self.pivot_phases, dtype=float)
        if phases.shape != (self.dim - 1,):
            raise DimensionMismatchError("need one pivot phase per reflection")
        if phases.size and not np.all((phases > -math.pi) & (phases <= math.pi)):
            raise ValueError("pivot phases must lie in (-pi, pi]")
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


def reflect_matrix(r: Reflection, tol: Tolerances | None = None) -> ComplexMatrix:
    """Dense matrix ``1 - (2 / <u|u>) |u><u|`` of the reflection."""
    tol = tol or DEFAULT_TOLERANCES
    norm_sq = r.norm_sq
    if norm_sq <= tol.degenerate_tol:
        raise DegeneratePivotError(f"pivot norm-squared {norm_sq} is degenerate")
    u = r.pivot
    return np.eye(r.dim, dtype=complex) - (2.0 / norm_sq) * np.outer(u, u.conj())


def apply_reflection(r: Reflection, m, side: str = "left",
                     tol: Tolerances | None = None):
    """Apply the reflection to a matrix or vector as a rank-1 update.

    ``side="left"`` computes ``R m`` (1-D input is a column), ``side="right"``
    computes ``m R`` (1-D input is a row).  The dense reflector is never
    formed; cost is O(dim * cols).
    """
    tol = tol or DEFAULT_TOLERANCES
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    norm_sq = r.norm_sq
    if norm_sq <= tol.degenerate_tol:
        raise DegeneratePivotError(f"pivot norm-squared {norm_sq} is degenerate")
    u = r.pivot
    a = np.asarray(m, dtype=complex)
    if a.ndim == 1:
        if a.shape[0] != r.dim:
            raise DimensionMismatchError(
                f"vector length {a.shape[0]} does not match dim {r.dim}"
            )
        if side == "left":
            return a - ((2.0 / norm_sq) * np.vdot(u, a)) * u
        return a - ((2.0 / norm_sq) * (a @ u)) * u.conj()
    if a.ndim != 2:
        raise DimensionMismatchError("operand must be a vector or a matrix")
    if side == "left":
        if a.shape[0] != r.dim:
            raise DimensionMismatchError(
                f"matrix has {a.shape[0]} rows, reflection needs {r.dim}"
            )
        return a - np.outer(u, (2.0 / norm_sq) * (u.conj() @ a))
    if a.shape[1] != r.dim:
        raise DimensionMismatchError(
            f"matrix has {a.shape[1]} columns, reflection needs {r.dim}"
        )
    return a - np.outer((2.0 / norm_sq) * (a @ u), u.conj())


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
    if not np.all(np.isfinite(v)):
        raise ValueError("column has non-finite entries")
    n = v.shape[0]
    if not 1 <= level <= n - 1:
        raise ValueError(f"level {level} outside 1..{n - 1}")
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
    n = a.shape[0]
    reflections = []
    phases = np.empty(n - 1)
    for level in range(1, n):
        refl, phi = pivot_from_column(a[:, level - 1], level, tol)
        a = apply_reflection(refl, a, "left", tol)
        reflections.append(refl)
        phases[level - 1] = phi
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
    return _clear_columns(_require_unitary(u, tol), tol)


def decompose_reversed(u, tol: Tolerances | None = None) -> HouseholderFactorization:
    """Factor a unitary matrix as ``U = D R_{N-1} ... R_1`` (reversed).

    Runs the forward column loop on ``U^dag = R_1 ... R_{N-1} D^dag``: the
    pivots are the same, so right-multiplication by ``R_k`` clears row k of
    ``U`` to ``-e^{i phi_k} e_k``.  The residual is conjugated and each pivot
    phase negated, with -pi mapped back to pi.

    Raises NotUnitaryError when ``U`` itself fails the unitarity tolerance.
    """
    tol = tol or DEFAULT_TOLERANCES
    f = _clear_columns(_require_unitary(u, tol).conj().T, tol)
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
    side = "left" if f.ordering == FORWARD else "right"
    m = f.residual.matrix()
    for refl in reversed(f.reflections):
        m = apply_reflection(refl, m, side)
    return m
