"""Shared numeric utilities: tolerances, unitarity defect, series exponential.

Everything in this package works on dense complex matrices stored as
``numpy.ndarray`` with ``dtype=complex``.  This module keeps the pieces the
other modules share: a tolerance bundle, the max-norm unitarity defect used
to gate every decomposition, and a deliberately simple series matrix
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


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances shared by the decomposition routines.

    Attributes
    ----------
    unitarity_tol : float
        Largest unitarity defect ``max |M^dag M - 1|`` accepted for an
        input that must be unitary.
    reconstruction_tol : float
        Largest entrywise deviation allowed when a factorization is
        multiplied back together and compared with its input.
    """

    unitarity_tol: float = 1e-10
    reconstruction_tol: float = 1e-10

    def __post_init__(self):
        for name in ("unitarity_tol", "reconstruction_tol"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be strictly positive")


DEFAULT_TOLERANCES = Tolerances()


def _as_square_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DimensionMismatchError("matrix must have at least one row")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has non-finite entries")
    return a


def unitarity_error(m) -> float:
    """Max-norm unitarity defect ``max_ij |(M^dag M - 1)_ij|``.

    Parameters
    ----------
    m : array_like
        Square complex matrix.

    Returns
    -------
    float
        Zero for an exactly unitary matrix; invariant under taking the
        conjugate transpose of ``m``.
    """
    a = _as_square_matrix(m)
    defect = a.conj().T @ a - np.eye(a.shape[0])
    return float(np.max(np.abs(defect)))


def expm_series(a) -> ComplexMatrix:
    """Matrix exponential by scaled Taylor series with repeated squaring.

    The input is scaled by ``2**-s`` with
    ``s = max(0, ceil(log2(max |a_ij|)) + 2)`` so the series converges
    quickly, terms are accumulated until their max-magnitude drops below
    1e-18, and the result is squared ``s`` times.  Accurate to roughly
    machine precision for the moderate norms used here; kept intentionally
    free of clever rational approximations so it can act as an independent
    oracle.
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
        if float(np.max(np.abs(term))) < 1e-18:
            break
        result = result + term
        k += 1
        if k > 300:  # unreachable for scaled inputs; guards nonsense data
            break
    for _ in range(squarings):
        result = result @ result
    return result
