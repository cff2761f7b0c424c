"""Shared numeric utilities: tolerances, unitarity defect, series exponential.

Everything in this package works on dense complex matrices stored as
``numpy.ndarray`` with ``dtype=complex``.  This module keeps the pieces the
other modules share: the unitarity gate ``Tolerances``, the one tolerance
a caller sets; the fixed bounds of the identities checked up to rounding,
each a module constant named once; the max-norm unitarity defect, which
``verify`` reports for a matrix file; and a deliberately simple series
matrix exponential that serves as an independent cross-check for the
closed-form coset exponential.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _NAMES

__all__ = _NAMES["numkit"].split()

# Annotation aliases; both are numpy arrays with complex dtype.
ComplexMatrix = np.ndarray
ComplexVector = np.ndarray


class UcosetError(ValueError):
    """Base class for errors raised by this package."""


class NonSquareError(UcosetError):
    """A square matrix was required but the input is not square."""


class DimensionMismatchError(UcosetError):
    """A level, dimension or operand shape is out of range or inconsistent."""


class DomainError(UcosetError):
    """A parameter is not finite or lies outside its documented range."""


# The fixed bounds, each named once; the one bound a caller sets is ``Tolerances``.

# Slack of the closed ranges <X|X> <= 1, rho in [0, 1], |Gamma| in
# [sqrt(1/2), 1] and ||B|| <= pi, and of the X chart's edge rho >= 0.
BALL_SLACK = 1e-12
# Largest |rho^2 + <X|X> - 1| of ball coordinates given with their rho.
RHO_SLACK = 2e-12
# Largest deviation from the identity of a coset factor's rows before its level.
FACTOR_IDENTITY_TOL = 1e-10
# Largest entry of a dense coset factor minus the factor of the pivot read off it.
FACTOR_MATCH_TOL = 1e-8
# Largest deviation of a phase entry from the unit circle, and of a residual
# entry from -e^{i phi_k}; a unitarity defect eps leaves both near eps / 2.
PHASE_TOL = 1e-8
# Relative shortfall of a pivot's <u|u> below 2, its least value from a unit column.
PIVOT_NORM_SLACK = 1e-8
# expm_series stops once a series term's largest entry falls below this.
SERIES_CUTOFF = 1e-18
# Largest max |Q D - M| for an M the column loop accepts, in sqrt(N) tol + N eps:
# column k of M - Q D is Q times what the loop drops, k - 1 components of at
# most 2 tol and (c - 1) w, |c - 1| <= tol, so 3 sqrt(N) tol at most in norm;
# the fourth unit covers the O(N eps) rounding of the loop and the product.
ROUND_TRIP_FACTOR = 4.0


def _real(x, what: str, error):
    # x as a float if it is a real number (an int, float or numpy real, not a
    # bool) that a float holds, else the caller's typed ``error`` rather than
    # a TypeError or an OverflowError later.
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise error(f"{what} must be a real number: {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise error(f"{what} is not finite: {x!r}") from None


def _integer(n, what: str, error, lo: int, hi: float = math.inf) -> int:
    # n as an int if it is an integer in [lo, hi), else the caller's typed
    # ``error``.  An int or numpy integer, not a bool: 2 == 2.0 and
    # 1 == True, so a float or bool count would otherwise pass a range check
    # and be truncated, and NaN, inf or a string would raise an untyped error.
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or not lo <= n < hi:
        bounds = f"at least {lo}" if hi == math.inf else f"[{lo}, {hi})"
        raise error(f"{what} must be an integer {bounds}, got {n!r}")
    return int(n)


@dataclass(frozen=True)
class Tolerances:
    """The unitarity gate: the matrix M a column loop factors (U forward,
    U^dag reversed) passes if ``max |M^dag M - 1| <= unitarity_tol`` and
    fails past 3 times it.  A positive and finite real number, else
    ``DomainError``."""

    unitarity_tol: float = 1e-10

    def __post_init__(self):
        tol = _real(self.unitarity_tol, "unitarity_tol", DomainError)
        if not 0.0 < tol < math.inf:
            raise DomainError(f"unitarity_tol must be positive and finite: {tol}")


DEFAULT_TOLERANCES = Tolerances()


def _tolerances(tol) -> Tolerances:
    # A ``tol`` argument: DEFAULT_TOLERANCES for None, else a Tolerances.
    tol = DEFAULT_TOLERANCES if tol is None else tol
    if not isinstance(tol, Tolerances):
        raise DomainError(f"tol must be a Tolerances, got {tol!r}")
    return tol


def _instance(x, cls, what: str):
    # x as given if it is a cls, else DomainError naming cls: a wrongly
    # typed argument, not an AttributeError from using it.
    if not isinstance(x, cls):
        raise DomainError(f"{what} must be a {cls.__name__}, got {type(x).__name__}")
    return x


def _trusted(cls, **fields):
    # The one way past a record's constructor: a record of fields that its
    # caller has already checked as that constructor would.
    record = cls.__new__(cls)
    record.__dict__.update(fields)
    return record


def _as_array(a, what: str, dtype=complex, copy=False) -> np.ndarray:
    # np.asarray(a, dtype), or a new np.array if copy; ragged ->
    # DimensionMismatchError, and an integer past the float range
    # DomainError, as any other non-finite entry.
    try:
        return np.array(a, dtype=dtype) if copy else np.asarray(a, dtype=dtype)
    except OverflowError as exc:
        raise DomainError(f"{what}: non-finite entries: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"{what}: not an array: {exc}") from exc


def _as_square_matrix(m) -> np.ndarray:
    a = _as_array(m, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DimensionMismatchError("matrix must have at least one row")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has non-finite entries")
    return a


def _check_level(level, dim) -> None:
    # DimensionMismatchError unless dim is an integer (_integer) at least 2
    # and level one in 1 .. dim - 1, so a float or bool is never sliced with.
    _integer(level, "level", DimensionMismatchError, 1,
             _integer(dim, "dim", DimensionMismatchError, 2))


def _frozen_array(a, shape: tuple, dtype, what: str) -> np.ndarray:
    # A read-only copy of a in the given dtype and shape, a tuple of ints the
    # caller has checked; another shape, ragged input included, raises
    # DimensionMismatchError and a non-finite entry DomainError.
    out = _as_array(a, what, dtype, copy=True)
    if out.shape != shape:
        raise DimensionMismatchError(f"{what}: shape {out.shape}, expected {shape}")
    if not np.isfinite(out).all():
        raise DomainError(f"{what}: non-finite entries")
    out.setflags(write=False)
    return out


def unitarity_error(m) -> float:
    """Max-norm unitarity defect ``max_ij |(M^dag M - 1)_ij|``.

    Parameters
    ----------
    m : array_like
        Square complex matrix.

    Returns
    -------
    float
        Zero for an exactly unitary matrix.  Otherwise it can differ from
        the defect of ``m^dag`` by up to a factor N: the largest entries of
        both defects are bounded by their equal 2-norms.  A finite matrix
        whose ``M^dag M`` overflows has the defect inf, with no warning.
    """
    a = _as_square_matrix(m)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = a.conj().T @ a
        defect[np.diag_indices(a.shape[0])] -= 1.0
        err = float(np.max(np.abs(defect)))
    # An overflowed entry may read inf - inf = NaN.
    return math.inf if math.isnan(err) else err


def expm_series(a) -> ComplexMatrix:
    """Matrix exponential by scaled Taylor series with repeated squaring.

    The input is scaled by ``2**-s``, the least ``s >= 0`` that takes its
    infinity norm (largest absolute row sum) to at most 1/4, read off
    ``log2`` so that nothing overflows.  Every series term is then at most
    ``4**-k / k!`` in that norm; terms are accumulated until their
    max-magnitude drops below ``SERIES_CUTOFF``, within 14, and the result
    is squared ``s`` times.  Accurate to roughly machine precision for the
    moderate norms used here; kept intentionally free of clever rational
    approximations so it can act as an independent oracle.  A result that
    overflows raises ``DomainError``, with no warning.
    """
    mat = _as_square_matrix(a)
    n = mat.shape[0]
    largest = float(np.max(np.abs(mat)))
    squarings = 0
    if largest > 0.0:
        rows = float(np.max(np.sum(np.abs(mat) / largest, axis=1)))
        squarings = max(0, math.ceil(math.log2(largest) + math.log2(rows)) + 2)
    scaled = mat * 2.0 ** -squarings

    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    k = 1
    while True:
        term = term @ scaled / k
        if float(np.max(np.abs(term))) < SERIES_CUTOFF:
            break
        result = result + term
        k += 1
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            result = result @ result
    if not np.isfinite(result).all():
        raise DomainError(f"matrix exponential overflows after {squarings} squarings")
    return result
