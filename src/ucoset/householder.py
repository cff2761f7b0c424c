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
loop writes each pivot, checked as it is written, over the row of its work
array that held the column it clears, as LAPACK's xGEQRF keeps each
reflector in place, so the work array's leading N - 1 rows are the stack
the record keeps, as a read-only view.  It checks the residual as a
``PhaseDiagonal`` would and against the pivot phases it had, and hands
both, with its read-only WY factors, to its record by ``_trusted``, the one
constructor that skips checks; ``reflections`` are views it builds.
The column loop's checks are the gate of the caller's ``Tolerances``; the
record bounds are fixed, named in ``numkit``.

Every product of reflections in a record follows one rule: it runs all
its reflections in panels of ``_PANEL`` consecutive reflections, the last
one possibly fewer, and every panel, a narrow last one and a lone
reflection included, acts at once in compact-WY form ``1 - Y V^dag``, the
pivots as the columns of ``V`` and ``Y = V T``, by two matrix products
(Schreiber & Van Loan 1989): the blocked update ``B - Y (V^dag B)`` across
its own columns and those after it.  While a factorization is being found,
each pivot depends on the reflections before it, so the column loop is
left-looking: each column of a panel first takes the panel's earlier
reflections by matrix-vector products, then gives its pivot, and ``Y``
grows by one column (Bischof & Van Loan 1987); after the panel every later
column takes it in one blocked update.  The record the loop returns keeps
the conjugate of each panel's ``Y^dag`` beside the pivots, as LAPACK's
xGEQRT keeps ``T``, so that multiplying it back (``reconstruct``, or
``compose_cosets`` after a conversion, which hands it on) forms no ``T``.
A product walks its panels once, the last first, each taking the rows of
``V^dag``, its own conjugate pivots, as a copy of that panel alone, where
LAPACK's xLARFB reads ``V^dag`` through a transpose flag: no conjugate copy
of the whole stack is made.  It starts from the identity and scales its
columns by the phases once, at the end, so before a panel of b reflections
acts, its own b rows and columns of the product are the identity's:
``V^dag B`` is ``V^dag``'s first b columns as they are beside one matrix
product of the rest with the trailing block.  So an N x N product's matrix
products come to about 2 N^3 / 3 multiply-adds (12 % more at N = 64, 1 %
at 256), where products over the whole block took 1.86 and 1.20 times
that.  Without that factor (a record built by its constructor or read
from a file, a stack of Haar samples of 16 reflections or more) it forms
each panel's ``T`` from that copy in the pass that applies it, in closed
form: the inverse of the upper triangle of ``V^dag V`` with each diagonal
entry ``<v|v>`` halved (Puglisi 1992).  A
reversed coset stack, whose corners are the Householder pivots' negated,
is negated back in those copies.  A reversed product is computed as the
adjoint of the forward one, of the same pivots and conjugate phases.
Rank-1 updates remain where one reflection acts alone, in
``apply_reflection`` and a coset factor's matrix, and in the Haar sampler,
whose draws of fewer than 16 reflections take them on their ball
coordinates, where ``2 / <n|n>`` is known without a sum.

A product of a stack of factorizations, as the Haar sampler makes, takes
its batch axes last: (N - 1, N, ...) pivots, (N, ...) phases and an
(N, N, ...) result, the layout of the sampler's draws.  Its panels, whose
matrix products and inverses take batch axes first, run on a product laid
out batch-first, each panel's conjugate pivots copied batch-first by the
panel, and the result is a batch-last view of it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _NAMES
from .numkit import (
    PHASE_TOL,
    PIVOT_NORM_SLACK,
    ComplexMatrix,
    ComplexVector,
    DimensionMismatchError,
    DomainError,
    Tolerances,
    UcosetError,
    _as_array,
    _as_square_matrix,
    _check_level,
    _frozen_array,
    _instance,
    _integer,
    _tolerances,
    _trusted,
)

__all__ = _NAMES["householder"].split()

FORWARD = "forward"
REVERSED = "reversed"

# Reflections per compact-WY panel (see the module docstring).
_PANEL = 32

# Smallest <u|u> of a pivot; one built from a unit column has 2 (1 + rho) >= 2.
_MIN_NORM_SQ = 2.0 * (1.0 - PIVOT_NORM_SLACK)


class NotUnitaryError(UcosetError):
    """Input matrix fails the unitarity tolerance; subclasses also reject records."""


class PhaseError(NotUnitaryError):
    """Phase entries are off the unit circle, or residual entries differ
    from -e^{i phi_k}, by more than PHASE_TOL; while factoring, only under
    a tolerance loose enough to admit an input that far from unitary."""


class NotUnitLengthError(NotUnitaryError):
    """A column handed to the pivot builder, or a pivot, is not unit length."""


class LeadingComponentsNonzeroError(NotUnitaryError):
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
        _check_level(self.level, self.dim)
        pivot = _frozen_array(self.pivot, (self.dim,), complex, "pivot")
        _short_pivots(_pivot_norms(pivot[None], self.level, DomainError,
                                   LeadingComponentsNonzeroError), self.level)
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
        dim = _integer(self.dim, "phase diagonal dim", DimensionMismatchError, 1)
        phases = _frozen_array(self.phases, (dim,), complex, "phases")
        _check_unit_modulus(phases)
        object.__setattr__(self, "phases", phases)


def _check_unit_modulus(phases) -> None:
    # PhaseError unless each of the finite phases is on the unit circle.
    dev = float(np.max(np.abs(np.abs(phases) - 1.0)))
    if dev > PHASE_TOL:
        raise PhaseError(f"phase entries deviate from unit modulus by {dev:.3e} "
                         f"(bound {PHASE_TOL:.0e})")


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


def _check_residual(head, units) -> None:
    # PhaseError unless the first N - 1 residual entries head are -units,
    # the e^{i phi_k} of the pivot phases.
    dev = np.abs(head + units).max(initial=0.0)
    if dev > PHASE_TOL:
        raise PhaseError(f"residual entries deviate from -e^{{i phi_k}} by {dev:.3e} "
                         f"(bound {PHASE_TOL:.0e})")


def _check_record(f, phases: PhaseDiagonal, invalid, leading) -> np.ndarray:
    # What both factorization records check: the ordering and the type of
    # the phases (invalid), the dims, and the pivot stack, which replaces
    # f.pivots as a read-only C-ordered (dim - 1) x dim complex copy, so no
    # caller's array is the stack that passed the checks.  Returns the
    # stack's <u|u>, as _pivot_norms.
    if not isinstance(f.ordering, str) or f.ordering not in (FORWARD, REVERSED):
        raise invalid(f"unknown ordering {f.ordering!r}")
    if not isinstance(phases, PhaseDiagonal):
        raise invalid(f"phases must be a PhaseDiagonal, got {type(phases).__name__}")
    n = _integer(f.dim, "dim", DimensionMismatchError, 1)
    if phases.dim != n:
        raise DimensionMismatchError(f"phase diagonal dim {phases.dim} is not dim {n}")
    p = np.array(_as_array(f.pivots, "pivots"), order="C")
    if p.shape != (n - 1, n):
        raise DimensionMismatchError(f"pivot stack: shape {p.shape}, expected {(n - 1, n)}")
    p.setflags(write=False)
    object.__setattr__(f, "pivots", p)
    return _pivot_norms(p, 1, invalid, leading)


@dataclass(frozen=True, eq=False)
class HouseholderFactorization:
    """Pivot stack plus residual phases for one unitary matrix.

    ``pivots`` is the read-only (dim - 1) x dim array of the reflection
    pivots, the level-k pivot in row k - 1; ``reflections`` are ``Reflection``
    views on its rows.  The constructor checks and keeps its own read-only
    copy of the stack it is given, so the caller's array can never change
    it; only ``decompose`` and ``decompose_reversed`` hand a record the
    column loop's stack uncopied.  Forward ordering reconstructs as
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

    # Read-only conjugate of each panel's Y^dag, kept by the column loop;
    # no field, so only _trusted sets it, and None where it is not kept.
    _wy = None

    def __post_init__(self):
        norm_sq = _check_record(self, self.residual, DomainError, LeadingComponentsNonzeroError)
        _short_pivots(norm_sq, 1)
        _check_residual(self.residual.phases[:-1], np.exp(1j * self.pivot_phases))

    @property
    def pivot_phases(self) -> np.ndarray:
        """The pivot phases ``arg u_kk`` (reversed: ``-arg u_kk``) in (-pi, pi]."""
        phi = np.angle(np.diagonal(self.pivots))
        if self.ordering == REVERSED:
            phi = -phi
        return np.where(phi == -math.pi, math.pi, phi)

    @property
    def reflections(self) -> tuple:
        return tuple(_trusted(Reflection, pivot=p, level=k, dim=self.dim)
                     for k, p in enumerate(self.pivots, start=1))


def reflect_matrix(r: Reflection) -> ComplexMatrix:
    """Dense matrix ``1 - (2 / <u|u>) |u><u|`` of the reflection."""
    return apply_reflection(r, np.eye(_instance(r, Reflection, "reflection").dim, dtype=complex))


def apply_reflection(r: Reflection, m, side: str = "left"):
    """Apply the reflection to a matrix or vector as a rank-1 update.

    ``side="left"`` computes ``R m`` (1-D input is a column), ``side="right"``
    computes ``m R`` (1-D input is a row).  The dense reflector is never
    formed, and only the rows (left) or columns (right) from the level on
    change; cost is O((dim - level) * cols).  A result that is not finite
    raises ``DomainError``, with no warning.
    """
    if not isinstance(side, str) or side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    right = side == "right"
    a = _as_array(m, "operand")
    if a.ndim not in (1, 2):
        raise DimensionMismatchError("operand must be a vector or a matrix")
    _instance(r, Reflection, "reflection")
    length = a.shape[-1] if right else a.shape[0]
    if length != r.dim:
        raise DimensionMismatchError(f"operand length {length} does not match dim {r.dim}")
    # m R = (R^T m^T)^T and R(u)^T = R(conj u): the right side reflects rows
    # of the transpose.
    t = np.array(a.T if right else a, order="C")
    u = r.pivot.conj() if right else r.pivot
    i, w = r.level - 1, (2.0 / r.norm_sq) * u.conj()
    # <u|w> per column as the last cumulative sum down the rows, which adds
    # in index order for any column count, so that a vector or one column
    # reflects to the bits it has in a wider matrix; a sum over rows would
    # add a single column pairwise.
    rows = t.reshape(r.dim, -1)[i:]
    with np.errstate(over="ignore", invalid="ignore"):
        rows -= u[i:, None] * (w[i:, None] * rows).cumsum(axis=0)[-1]
    if not np.isfinite(t).all():
        raise DomainError("reflected operand has non-finite entries")
    return t.T if right else t


def _reflect_rows(t, i, u, w) -> None:
    # t <- (1 - |u> w) t = R(u) t in place, for the row w = (2 / <u|u>) u^dag
    # of a pivot u whose components before index i are exactly zero, so only
    # rows i.. of t change.
    rows = t[i:]
    rows -= u[i:, None] * (w[i:, None] * rows).sum(axis=0)


def _panels(n: int) -> list:
    # (lo, hi) per panel of pivot rows lo .. hi - 1 of the N - 1 reflections
    # of an N-dim product, _PANEL rows each but the last.
    return [(lo, min(lo + _PANEL, n - 1)) for lo in range(0, n - 1, _PANEL)]


def _stack(a, conj: bool = False) -> np.ndarray:
    # a (r, c, ...), or its conjugate if conj, as its C-ordered stack of
    # r x c matrices, batch axes first, as matmul and inv take them, whose
    # matrices matmul hands to BLAS one by one.  A C-ordered a without batch
    # axes comes back as a view of its memory (or a conjugate copy); anything
    # else is copied.
    a = a.transpose(*range(2, a.ndim), 0, 1)
    return np.conjugate(a, order="C") if conj else np.ascontiguousarray(a)


@functools.lru_cache(maxsize=64)
def _pivot_index(dim: int, level: int, rows: int) -> tuple:
    # Flat indexes of the corners, and in level order of the entries after
    # them, in a (rows, dim) stack whose row j is at level level + j.
    index = (np.flatnonzero(np.eye(rows, dim, level - 1)),
             np.flatnonzero(np.triu(np.ones((rows, dim)), level)))
    for a in index:
        a.setflags(write=False)
    return index


def _pivots(dim: int, level: int, corners, tails) -> np.ndarray:
    # Every coset pivot: the stack (rows, dim, ...) of levels level ..
    # level + rows - 1, batch axes trailing, each row exactly zero before its
    # level, its corner (corners is (rows, ...)) at it and its tail after it,
    # the tails concatenated in level order.
    corners = np.asarray(corners)
    at, after = _pivot_index(dim, level, len(corners))
    flat = np.zeros((len(corners) * dim,) + corners.shape[1:], dtype=complex)
    flat[at], flat[after] = corners, tails
    return flat.reshape((len(corners), dim) + corners.shape[1:])


def _negated_corners(pivots) -> np.ndarray:
    # A read-only copy of the pivots (N - 1, N, ...) with the corner of each,
    # entry k of the level-k pivot, negated: F_k u for the sign flip F_k of
    # coordinate k.
    pivots = pivots.copy()
    k = np.arange(pivots.shape[0])
    pivots[k, k] *= -1.0
    pivots.setflags(write=False)
    return pivots


def _conj_panel(pivots, lo: int, hi: int, flip: bool = False) -> np.ndarray:
    # V^dag of the panel of pivot rows lo .. hi - 1 of the pivots (N - 1, N,
    # ...), from column lo on: a _stack of the conjugates of those rows
    # alone, so no copy of the whole stack is made.  flip negates each row's
    # corner in that copy, as _negated_corners does to the stack; a sign
    # flip is exact, so the copy's bits are those of the flipped stack's.
    v = _stack(pivots[lo:hi, lo:], conj=True)
    if flip:
        k = np.arange(hi - lo)
        v[..., k, k] *= -1.0
    return v


def _wy_panel(v) -> np.ndarray:
    # conj(Y^dag), (..., b, N - lo), of the panel whose V^dag is v, from
    # _conj_panel: R(v_lo) ... R(v_{hi-1}) = 1 - Y V^dag with the panel's
    # pivots from column lo on as the columns of V and Y = V T.  T, upper
    # triangular, is one batched inverse of the panel's own Gram,
    # T = inv(diag(h) + triu(V^dag V, 1)) with h_j = <v_j|v_j> / 2 (Puglisi
    # 1992; Joffrain et al. 2006).  Y^dag = T^dag V^dag is formed as
    # conj(T^T V^T), conjugated in place, the form a record keeps.
    a = np.triu(v.conj() @ np.swapaxes(v, -1, -2))
    h = np.einsum("...jj->...j", a)
    h[...] = 0.5 * h.real
    y = np.swapaxes(np.linalg.inv(a), -1, -2) @ v
    return np.conjugate(y, out=y)


def _product(pivots, phases, ordering: str, wy=None, flip: bool = False) -> ComplexMatrix:
    # R(u_1) ... R(u_{N-1}) D (forward) or D R(u_{N-1}) ... R(u_1) (reversed)
    # for pivots (N - 1, N, ...), the level-k pivot in row k - 1, and phases
    # (N, ...); batch axes trail, and a stack of products is (N, N, ...).
    # Reflections are Hermitian, so D R(u_{N-1}) ... R(u_1) is the adjoint of
    # R(u_1) ... R(u_{N-1}) D^dag: a reversed product is the forward one of
    # the same pivots and conjugate phases, conjugated in place and
    # transposed.  Every panel, a lone reflection included, runs as the
    # blocked update B - Y (V^dag B), in one pass from the last panel back,
    # on t, batch axes first, from the identity; the result is a transposed
    # view of t, whose columns D scales once at the end.  wy is the
    # conjugate of each panel's Y^dag, as the column loop keeps it; None
    # forms each by _wy_panel from the panel's copy of V^dag, by
    # _conj_panel.  flip negates each pivot's corner, as a reversed coset
    # stack composes, in the copies.
    # R(u_{i+2}) ... R(u_{N-1}) is the identity on the leading i + 1
    # coordinates, so rows i.. of t are zero before column i, and a panel,
    # whose pivots are all known, takes its own columns in the same update
    # as those after it.  Rows and columns lo .. hi - 1 of t are still the
    # identity's then, so V^dag B is V^dag's first hi - lo columns as they
    # are beside the rest times t's trailing block, formed in place in the
    # copy of V^dag: b (N - hi)^2 multiply-adds for a panel of b, not
    # b (N - lo)^2.  The copy is freed after the update.
    if ordering == REVERSED:
        t = _product(pivots, phases.conj(), FORWARD, wy, flip)
        return np.conjugate(t, out=t).swapaxes(0, 1)
    n = phases.shape[0]
    t = np.zeros(phases.shape[1:] + (n, n), dtype=complex)
    t.reshape(-1, n * n)[:, ::n + 1] = 1.0
    for k, (lo, hi) in reversed(list(enumerate(_panels(n)))):
        v = _conj_panel(pivots, lo, hi, flip)
        y = _wy_panel(v) if wy is None else wy[k]
        v[..., hi - lo:] = v[..., hi - lo:] @ t[..., hi:, hi:]
        t[..., lo:, lo:] -= np.swapaxes(y, -1, -2) @ v
        del v
    t = t.transpose(t.ndim - 2, t.ndim - 1, *range(t.ndim - 2))
    return np.multiply(t, phases, out=t)


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
        If ``w`` has a non-finite entry, or ``tol`` is neither None nor a
        ``Tolerances``.
    DimensionMismatchError
        If ``w`` is not one-dimensional, or ``level`` is not an integer in
        ``1 .. len(w) - 1``.
    NotUnitLengthError
        If ``<w|w>`` differs from 1 by more than ``tol.unitarity_tol``, or
        the pivot's ``<u|u>`` falls below the bound 2.
    LeadingComponentsNonzeroError
        If a leading component exceeds ``tol.unitarity_tol`` in modulus.
    """
    tol = _tolerances(tol)
    p = _as_array(w, "column", copy=True)
    if p.ndim != 1:
        raise DimensionMismatchError("column must be one-dimensional")
    if not np.isfinite(p).all():
        raise DomainError(f"column at level {level} has non-finite entries")
    _check_level(level, p.shape[0])
    phi, *_ = _column_pivot(p, level, tol.unitarity_tol)
    p.setflags(write=False)
    return _trusted(Reflection, pivot=p, level=level, dim=p.shape[0]), phi


def _check_column(col, level: int, bound: float) -> float:
    # NotUnitaryError unless |<w|w> - 1| <= bound (an overflowed <w|w> fails)
    # and no component before the level exceeds bound; returns the sum of
    # squares of the tail, from the level on.  max |w_j| <= ||lead||, so the
    # entrywise test runs only when the lead's sum of squares, trusted at half
    # the bound for its rounding, says one may (always on underflow).
    i = level - 1
    head, rest = col[:i], col[i:]
    lead = float(np.vdot(head, head).real)
    tail = float(np.vdot(rest, rest).real)
    dev = abs(lead + tail - 1.0)
    if not dev <= bound:
        raise NotUnitLengthError(f"unitarity defect at level {level}: column norm-squared "
                                 f"deviates from 1 by {dev:.3e} (bound {bound:.1e})")
    bound_sq = 0.25 * bound * bound
    if i and (lead > bound_sq or bound_sq == 0.0):
        dev = float(np.abs(head).max())
        if dev > bound:
            raise LeadingComponentsNonzeroError(
                f"unitarity defect at level {level}: a component before the level "
                f"has modulus {dev:.3e} (bound {bound:.1e})")
    return tail


def _column_pivot(w, level: int, bound: float):
    # Checks the column w (_check_column) and writes its pivot at ``level``,
    # which must lie in 1 .. N - 1, over it: exactly zero before the level,
    # where exact zeros keep the leading subspace exactly invariant, and
    # w_k + e^{i phi} at it.  Returns the pivot phase phi, e^{i phi},
    # <u|u> = t + 2 rho + 1 and the corner of R(u) w,
    # w_k - (2 / <u|u>) <u|w> u_k, from the tail's sum t and rho = |w_k|;
    # <u|w> = t + rho is formed as conj(u_k) w_k + t - rho^2, so that the
    # rounding of e^{i phi} cancels as in a rank-1 update.  e^{i phi} comes
    # from atan2: w_k / rho leaves the unit circle for subnormal w_k.
    tail = _check_column(w, level, bound)
    i = level - 1
    wk = w.item(i)
    rho = abs(wk)
    phi = _canonical_angle(math.atan2(wk.imag, wk.real))
    unit = complex(math.cos(phi), math.sin(phi))
    w[:i] = 0.0
    w[i] = uk = wk + unit
    norm_sq = tail + 2.0 * rho + 1.0
    if norm_sq < _MIN_NORM_SQ:
        raise NotUnitLengthError(f"pivot norm-squared {norm_sq} at level {level} "
                                 "below the bound 2")
    return phi, unit, norm_sq, wk - (2.0 / norm_sq) * (uk.conjugate() * wk + (tail - rho * rho)) * uk


def _clear_columns(u, tol: Tolerances, ordering: str) -> HouseholderFactorization:
    # The forward column loop on the matrix M it factors, U (forward) or U^dag
    # (reversed).  Its checks are the only unitarity decision: column k of
    # R_{k-1} ... R_1 M, the last one too, needs |<w|w> - 1| and each
    # component before k at most b = 2 tol.  With eps = max |M^dag M - 1|,
    # <w|w> - 1 is an entry of M^dag M - 1, and component j is (M^dag M)_jk up
    # to a phase plus, to first order, eps / 2 from the norm error of column
    # j; so M passes if eps <= tol, with tol / 2 left for rounding, O(N eps)
    # in this backward-stable loop (Higham 2002, ch. 19).  Conversely column
    # j after its reflection is its components before j plus -c e^{i phi} e_j
    # - (c - 1) w, |c - 1| <= |<w|w> - 1| / 2, so an M that passes has
    # eps <= 1.5 b + N b^2 = 3 tol + O(N tol^2).
    # The loop is left-looking.  Row j of the C-ordered work copy w is column
    # j of M: U^T forward, conj(U) reversed.  A panel's reflections so far,
    # R(v_1) ... R(v_k) = 1 - Y V^dag (V: their pivots from the panel's first
    # column on), act on column i as 1 - V Y^dag, by two matrix-vector
    # products, much of a level's fixed cost at small N.  Each runs through
    # ndarray.dot, which skips the matmul ufunc's dispatch but copies
    # strided rows whole, so it reads C-ordered arrays only: z, and v, a
    # copy of the panel's pivots from column lo on, each copied as it is
    # written.  _column_pivot, which pivot_from_column shares, then checks
    # column i, writes its pivot over row i and gives the corner, kept
    # apart in corners; Y grows by c (v - Y V^dag v), kept as z = Y^dag.
    # Y = V T for the compact-WY T grown as zlarft does, one product fewer
    # per column.
    # Every later column then takes the panel in one update, and the record
    # keeps conj(z), the form _product applies, and w[:-1], with w made
    # read-only, as its stack, so the loop allocates no second stack, only
    # one panel's copy at a time.
    # The corners, finite by the column checks, are the forward residual:
    # unit phases, each -e^{i phi_k} for the phase the loop gave its level.
    a = _as_square_matrix(u)
    n = a.shape[0]
    w = np.array(a.T, order="C") if ordering == FORWARD else np.conj(a, order="C")
    bound = 2.0 * tol.unitarity_tol
    corners = np.empty(n, dtype=complex)
    units = np.empty(n - 1, dtype=complex)
    wy = []
    # An input far from unitary may overflow here; its column checks reject it.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _panels(n):
            v = np.empty((hi - lo, n - lo), dtype=complex)
            z = np.empty_like(v)
            for k, i in enumerate(range(lo, hi)):
                col, vs, zs = w[i, lo:], v[:k], z[:k]
                if k:
                    col -= zs.dot(col).dot(vs)
                _, units[i], norm_sq, corners[i] = _column_pivot(w[i], i + 1, bound)
                v[k] = col
                zk = np.conjugate(col, out=z[k])
                if k:
                    zk -= vs.dot(zk).dot(zs)
                zk *= 2.0 / norm_sq
            w[hi:, lo:] -= (w[hi:, lo:] @ z.T) @ v
            wy.append(np.conjugate(z, out=z))
        _check_column(w[n - 1], n, bound)
    corners[n - 1] = w[n - 1, n - 1]
    for x in (w, *wy):
        x.setflags(write=False)
    _check_unit_modulus(corners)
    _check_residual(corners[:-1], units)
    phases = corners if ordering == FORWARD else np.conjugate(corners, out=corners)
    phases.setflags(write=False)
    # Each pivot was checked as it was written: finite, <u|u> >= 2 and
    # exactly zero before its level.
    return _trusted(HouseholderFactorization, pivots=w[:-1],
                    residual=_trusted(PhaseDiagonal, phases=phases, dim=n),
                    ordering=ordering, dim=n, _wy=tuple(wy))


def decompose(u, tol: Tolerances | None = None) -> HouseholderFactorization:
    """Factor a unitary matrix as ``U = R_1 R_2 ... R_{N-1} D`` (forward).

    Level k clears column k of the work matrix down to ``-e^{i phi_k} e_k``;
    what remains after all levels is the residual phase diagonal ``D``.

    The checks of each column are the gate of ``Tolerances``, on
    ``max |U^dag U - 1|``; past it NotUnitaryError names the level.
    """
    return _clear_columns(u, _tolerances(tol), FORWARD)


def decompose_reversed(u, tol: Tolerances | None = None) -> HouseholderFactorization:
    """Factor a unitary matrix as ``U = D R_{N-1} ... R_1`` (reversed).

    Runs the forward column loop on ``U^dag = R_1 ... R_{N-1} D^dag``: the
    pivots are the same, so right-multiplication by ``R_k`` clears row k of
    ``U`` to ``-e^{i phi_k} e_k``.  The residual is conjugated, and the
    pivot phases, read off the same pivots, are negated.

    The gate is on ``max |U U^dag - 1|``, up to N times ``unitarity_error(U)``.
    """
    return _clear_columns(u, _tolerances(tol), REVERSED)


def reconstruct(f: HouseholderFactorization) -> ComplexMatrix:
    """Multiply a factorization back into a dense matrix."""
    _instance(f, HouseholderFactorization, "factorization")
    return _product(f.pivots, f.residual.phases, f.ordering, f._wy)
