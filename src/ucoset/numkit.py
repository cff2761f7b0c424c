"""Shared numeric utilities: tolerances, unitarity defect, series exponential.

Everything in this package works on dense complex matrices stored as
``numpy.ndarray`` with ``dtype=complex``.  This module keeps the pieces the
other modules share: the unitarity gate ``Tolerances``, the one tolerance
a caller sets; the fixed bounds of the identities checked up to rounding,
each a module constant named once; the max-norm unitarity defect used to
gate every decomposition; and a deliberately simple series matrix
exponential that serves as an independent cross-check for the closed-form
coset exponential.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexMatrix",
    "ComplexVector",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "UcosetError",
    "NonSquareError",
    "DimensionMismatchError",
    "DomainError",
    "unitarity_error",
    "expm_series",
]

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


@dataclass(frozen=True)
class Tolerances:
    """The unitarity gate: ``unitarity_tol`` is the largest defect
    ``max |M^dag M - 1|`` accepted for an input that must be unitary.  It
    must be positive and finite; anything else raises ``DomainError``."""

    unitarity_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.unitarity_tol < math.inf:
            raise DomainError(f"unitarity_tol must be positive and finite: {self.unitarity_tol}")


DEFAULT_TOLERANCES = Tolerances()


def _as_array(a, what: str, dtype=complex, copy=False) -> np.ndarray:
    # np.asarray(a, dtype), or a new np.array if copy; ragged -> DimensionMismatchError.
    try:
        return np.array(a, dtype=dtype) if copy else np.asarray(a, dtype=dtype)
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


def _check_shape(a: np.ndarray, shape: tuple, what: str) -> None:
    # DimensionMismatchError unless a has the given shape, whose entries must
    # be integers: (2,) == (2.0,) and (1,) == (True,), so a record's float or
    # bool dim would otherwise pass and be stored as given.
    if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in shape):
        raise DimensionMismatchError(f"{what}: dimensions {shape} must be integers")
    if a.shape != shape:
        raise DimensionMismatchError(f"{what}: shape {a.shape}, expected {shape}")


def _frozen_array(a, shape: tuple, dtype, what: str) -> np.ndarray:
    # A read-only copy of a as an array of the given shape and dtype.  Any
    # other shape, ragged input included, raises DimensionMismatchError and
    # a non-finite entry DomainError.
    out = _as_array(a, what, dtype, copy=True)
    _check_shape(out, shape, what)
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
        both defects are bounded by their equal 2-norms.
    """
    a = _as_square_matrix(m)
    defect = a.conj().T @ a
    defect[np.diag_indices(a.shape[0])] -= 1.0
    return float(np.max(np.abs(defect)))


def expm_series(a) -> ComplexMatrix:
    """Matrix exponential by scaled Taylor series with repeated squaring.

    The input is scaled by ``2**-s`` with
    ``s = max(0, ceil(log2(max |a_ij|)) + 2)`` so the series converges
    quickly, terms are accumulated until their max-magnitude drops below
    ``SERIES_CUTOFF``, and the result is squared ``s`` times.  Accurate to
    roughly machine precision for the moderate norms used here; kept
    intentionally free of clever rational approximations so it can act as
    an independent oracle.
    """
    mat = _as_square_matrix(a)
    n = mat.shape[0]
    largest = float(np.max(np.abs(mat)))
    squarings = 0
    if largest > 0.0:
        squarings = max(0, int(math.ceil(math.log2(largest))) + 2)
    scaled = mat / (2.0 ** squarings)

    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    k = 1
    while True:
        term = term @ scaled / k
        if float(np.max(np.abs(term))) < SERIES_CUTOFF:
            break
        result = result + term
        k += 1
        if k > 300:  # unreachable for scaled inputs; guards nonsense data
            break
    for _ in range(squarings):
        result = result @ result
    return result
