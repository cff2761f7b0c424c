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
``Reflection`` views on the rows.  The column loop is gated by the caller's
``Tolerances``; the phase and pivot-norm bounds are fixed, named in ``numkit``.

Every product of reflections in the package runs in panels of ``_PANEL``
consecutive reflections.  A blocked panel's reflections act at once in
compact-WY form ``1 - V T V^dag``, the pivots as the columns of ``V``, by
two matrix products (Schreiber & Van Loan 1989); any other panel is
rank-1 updates.  Which panels are blocked depends on what is known.  While
a factorization is being found, each pivot depends on the reflections
before it, so the column loop blocks a panel by the columns that follow
it: with at least ``_PANEL`` of them, each reflection first updates the
panel's own columns as a rank-1 update of the rows from its level on,
where its leading components are exactly zero, and only the columns after
the panel take the blocked update; below dimension ``2 * _PANEL`` the loop
is rank-1 updates alone.  When all pivots are known (a factorization
multiplied back, a coset composition, a stack of Haar samples), a product
blocks a panel by its width: one of at least ``_WY_WIDTH`` reflections
takes the blocked update across its own columns and those after it, and a
narrower one, the last panel of a small product included, stays rank-1
updates, which cost less there than forming ``T``.  A single reflection is
a rank-1 update.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numkit import (
    DEFAULT_TOLERANCES,
    PHASE_TOL,
    PIVOT_NORM_SLACK,
    ComplexMatrix,
    ComplexVector,
    DimensionMismatchError,
    DomainError,
    Tolerances,
    UcosetError,
    _as_array,
    _check_shape,
    _frozen_array,
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

# Reflections per compact-WY panel (see the module docstring).
_PANEL = 32
# Fewest reflections in a panel that a product runs as one compact-WY update.
_WY_WIDTH = 16

# Smallest <u|u> of a pivot; one built from a unit column has 2 (1 + rho) >= 2.
_MIN_NORM_SQ = 2.0 * (1.0 - PIVOT_NORM_SLACK)


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


def _pivot_record(obj, pivot, level: int, **fields):
    # Sets the fields of a frozen Reflection or CosetFactor in one step: the
    # pivot, made read-only unless it is already (a row of a frozen stack),
    # its level, its dim and any other fields given.
    if pivot.flags.writeable:
        pivot.setflags(write=False)
    obj.__dict__.update(pivot=pivot, level=level, dim=pivot.shape[0], **fields)
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
        pivot = _frozen_array(self.pivot, (self.dim,), complex, "pivot")
        _short_pivots(_pivot_norms(pivot[None], self.level, DomainError,
                                   LeadingComponentsNonzeroError), self.level)
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
        if self.dim < 1:
            raise DimensionMismatchError("phase diagonal dim must be at least 1")
        phases = _frozen_array(self.phases, (self.dim,), complex, "phases")
        dev = float(np.max(np.abs(np.abs(phases) - 1.0)))
        if dev > PHASE_TOL:
            raise PhaseError(f"phase entries deviate from unit modulus by {dev:.3e} "
                             f"(bound {PHASE_TOL:.0e})")
        object.__setattr__(self, "phases", phases)


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


def _short_pivots(norm_sq, level: int) -> None:
    # Reflection pivots also need <u|u> >= 2; norm_sq[j] is at level level + j.
    short = np.flatnonzero(norm_sq < _MIN_NORM_SQ)
    if short.size:
        raise NotUnitLengthError(f"pivot at level {short[0] + level} has norm-squared "
                                 f"{norm_sq[short[0]]} below the bound 2")


def _check_record(f, phases: PhaseDiagonal, invalid, leading) -> np.ndarray:
    # What both factorization records check: the ordering (invalid), the dim
    # of the phase diagonal, and the pivot stack, which replaces f.pivots as
    # a read-only (dim - 1) x dim complex array; a read-only complex array is
    # kept, so that records can share a stack, and anything else is copied.
    # Returns the stack's <u|u>, as _pivot_norms.
    if f.ordering not in (FORWARD, REVERSED):
        raise invalid(f"unknown ordering {f.ordering!r}")
    if phases.dim != f.dim:
        raise DimensionMismatchError(f"phase diagonal dim {phases.dim} is not dim {f.dim}")
    p = _as_array(f.pivots, "pivots")
    p = p.copy() if p.flags.writeable else p
    _check_shape(p, (f.dim - 1, f.dim), "pivot stack")
    p.setflags(write=False)
    object.__setattr__(f, "pivots", p)
    return _pivot_norms(p, 1, invalid, leading)


@dataclass(frozen=True, eq=False)
class HouseholderFactorization:
    """Pivot stack plus residual phases for one unitary matrix.

    ``pivots`` is the read-only (dim - 1) x dim array of the reflection
    pivots, the level-k pivot in row k - 1; ``reflections`` are ``Reflection``
    views on its rows.  Forward ordering reconstructs as
    ``R_1 R_2 ... R_{dim-1} D``; reversed ordering as ``D R_{dim-1} ... R_1``
    with ``D`` the residual diagonal.  For every level ``k < dim`` the
    residual entry equals ``-e^{i phi_k}``, with the pivot phase ``phi_k``
    the argument of the pivot's corner ``u_kk = (1 + |w_k|) e^{i phi_k}``;
    the last entry is free.
    """

    pivots: np.ndarray
    residual: PhaseDiagonal
    ordering: str
    dim: int

    def __post_init__(self):
        norm_sq = _check_record(self, self.residual, DomainError, LeadingComponentsNonzeroError)
        _short_pivots(norm_sq, 1)
        dev = np.abs(self.residual.phases[:-1] + np.exp(1j * self.pivot_phases)).max(initial=0.0)
        if dev > PHASE_TOL:
            raise PhaseError(f"residual entries deviate from -e^{{i phi_k}} by {dev:.3e} "
                             f"(bound {PHASE_TOL:.0e})")

    @property
    def pivot_phases(self) -> np.ndarray:
        """The pivot phases ``arg u_kk`` (reversed: ``-arg u_kk``) in (-pi, pi]."""
        phi = np.angle(np.diagonal(self.pivots))
        if self.ordering == REVERSED:
            phi = -phi
        return np.where(phi == -math.pi, math.pi, phi)

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
    a = _as_array(m, "operand")
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
    # reflections of an N-dim product.  The column loop blocks a panel when
    # at least _PANEL columns follow it: then end = hi, and columns end..
    # take the panel as one compact-WY update.  Otherwise end = n.
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
    # from the last one back, and one of at least _WY_WIDTH reflections is
    # blocked.  R(u_{i+2}) ... D is diagonal on the leading i + 1
    # coordinates, so rows i.. of t are zero before column i, and a blocked
    # panel, whose pivots are all known, takes its own columns in the same
    # blocked update as those after it.
    n = phases.shape[-1]
    if ordering == REVERSED:
        pivots = pivots.conj()
    c = 2.0 / np.einsum("...j,...j->...", pivots, pivots.conj()).real
    t = phases[..., None] * np.eye(n)
    for lo, hi, _ in reversed(_panels(n)):
        if hi - lo >= _WY_WIDTH:
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
    DomainError
        If ``w`` has a non-finite entry.
    DimensionMismatchError
        If ``w`` is not one-dimensional, or ``level`` lies outside
        ``1 .. len(w) - 1``.
    NotUnitLengthError
        If ``w`` is not unit length within ``tol.unitarity_tol``, or the
        pivot's ``<u|u>`` falls below the bound 2.
    LeadingComponentsNonzeroError
        If the leading components exceed ``tol.unitarity_tol``.
    """
    tol = tol or DEFAULT_TOLERANCES
    col = _as_array(w, "column")
    if col.ndim != 1:
        raise DimensionMismatchError("column must be one-dimensional")
    p = np.zeros(col.shape[0], dtype=complex)
    phi, _ = _column_pivot(col, p, level, tol.unitarity_tol)
    return Reflection._from_pivot(p, level), phi


def _column_pivot(col, p, level: int, tol: float):
    # Checks the column col at tolerance tol and writes its level-``level``
    # pivot into p, which is zero before the level: exact zeros keep the
    # leading subspace exactly invariant.  Returns the pivot phase and <u|u>.
    # The checks run on sums of squares: a finite <w|w> means finite
    # entries, and max |w_j| <= ||lead|| for the entries before the level, so
    # an entrywise test runs only when a sum says an entry may fail.  The
    # lead's sum is trusted at half the tolerance, which covers its rounding,
    # and not at all once that bound underflows.
    norm_sq = float(np.vdot(col, col).real)
    if not math.isfinite(norm_sq) and not np.isfinite(col).all():
        raise DomainError(f"column at level {level} has non-finite entries")
    n = col.shape[0]
    if not 1 <= level <= n - 1:
        raise DimensionMismatchError(f"level {level} outside 1..{n - 1}")
    norm = math.sqrt(norm_sq)
    if not abs(norm - 1.0) <= tol:
        raise NotUnitLengthError(
            f"column norm {norm} at level {level} is not 1 within tolerance"
        )
    i = level - 1
    if i:
        lead = col[:i]
        bound = 0.25 * tol * tol
        if ((np.vdot(lead, lead).real > bound or bound == 0.0)
                and np.abs(lead).max() > tol):
            raise LeadingComponentsNonzeroError(
                f"components below level {level} exceed tolerance"
            )
    p[i:] = col[i:]
    wk = complex(col[i])
    phi = _canonical_angle(math.atan2(wk.imag, wk.real))
    p[i] = wk + complex(math.cos(phi), math.sin(phi))
    norm_sq = float(np.vdot(p[i:], p[i:]).real)
    if norm_sq < _MIN_NORM_SQ:
        raise NotUnitLengthError(
            f"pivot norm-squared {norm_sq} at level {level} below the bound 2"
        )
    return phi, norm_sq


def _require_unitary(u, tol: Tolerances) -> np.ndarray:
    # unitarity_error is the one check of the array's shape and entries.
    a = _as_array(u, "matrix")
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
    # most N times it.  Each level is one step: _column_pivot, which
    # pivot_from_column shares, checks column i of the work matrix and
    # writes its pivot's tail straight into row i of the stack; then one
    # rank-1 update on the 2-D work matrix, with no batch axes to broadcast,
    # applies the reflection to rows i.. of the panel's columns i.. .  Rows
    # i.. of the columns before i are never read again.  The columns after
    # a panel take R(u_hi) ... R(u_lo) = (1 - V T V^dag)^dag, hence T^dag;
    # V is the panel's rows of the stack from the panel's first column on,
    # where the pivots' leading zeros end.
    a = _require_unitary(u, tol)
    n = a.shape[0]
    if ordering == FORWARD:
        a, check_tol = np.array(a, order="C"), 2.0 * tol.unitarity_tol
    else:
        a, check_tol = np.conj(a.T, order="C"), 2.0 * n * tol.unitarity_tol
    pivots = np.zeros((n - 1, n), dtype=complex)
    c = np.empty(n - 1)
    for lo, hi, end in _panels(n):
        for i in range(lo, hi):
            _, norm_sq = _column_pivot(a[:, i], pivots[i], i + 1, check_tol)
            c[i] = ci = 2.0 / norm_sq
            v, rows = pivots[i, i:], a[i:, i:end]
            rows -= v[:, None] * (ci * (v.conj() @ rows))
        if end < n:
            v = pivots[lo:hi, lo:]
            _apply_wy(a[lo:, end:], v, _wy_factor(v, c[lo:hi]).conj().T)
    pivots.setflags(write=False)
    residual = np.diag(a) if ordering == FORWARD else np.diag(a).conj()
    return HouseholderFactorization(pivots, PhaseDiagonal(residual, n), ordering, n)


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
    ``U`` to ``-e^{i phi_k} e_k``.  The residual is conjugated, and the
    pivot phases, read off the same pivots, are negated.

    Raises NotUnitaryError when ``U`` itself fails the unitarity tolerance.
    """
    return _clear_columns(u, tol or DEFAULT_TOLERANCES, REVERSED)


def reconstruct(f: HouseholderFactorization) -> ComplexMatrix:
    """Multiply a factorization back into a dense matrix."""
    return _product(f.pivots, f.residual.phases, f.ordering)
