"""Haar-uniform sampling of unitary matrices via ball-parametrized pivots.

A Haar-distributed U(N) matrix is assembled as

    U = R(n_1) R(n_2) ... R(n_{N-1}) diag(e^{i phi_1}, ..., e^{i phi_N})

where the level-k pivot direction ``n_k`` comes from a point X_k of the
closed even ball B^{2(N-k)} drawn uniformly (gamma phase 0) and the ``phi``
are independent angles uniform on (-pi, pi].  ``R(n_k)`` is the coset
factor of X_k with column k negated, and the sign flip commutes past the
later factors, which fix coordinate k; so ``U`` is composed as coset factors
with the first N - 1 phases negated.  One matrix consumes exactly N^2 real
variates: 2(N-k) per ball point plus N for the phases, in that order.

The draw order is part of the contract.  For each level k = 1 .. N-1 the
ball point delivers coordinates (t_1, t_2, ..., t_{2(N-k)}) which pack into
the complex vector X = (t_1 + i t_2, t_3 + i t_4, ...); then the N phase
angles are derived from uniforms ``u`` as ``phi = pi (1 - 2 u)``.

``haar_oracle`` draws from the same distribution through an unrelated
construction (QR of a complex Gaussian matrix with the phase-of-diagonal
correction) and exists purely as a statistical cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numkit import ComplexMatrix, UcosetError
from .coset import CosetFactorization, CosetVector, compose_cosets, coset_matrix_from_X
from .householder import FORWARD, PhaseDiagonal

__all__ = [
    "RngStream",
    "SampleReport",
    "OddDimensionError",
    "InvalidDimError",
    "TooFewSamplesError",
    "sample_ball",
    "haar_unitary",
    "haar_oracle",
    "haar_validate",
    "ks_statistic",
    "ks_statistic_two_sample",
]


class OddDimensionError(UcosetError):
    """Ball sampling requires a positive even dimension."""


class InvalidDimError(UcosetError):
    """Matrix dimension is out of range for the requested operation."""


class TooFewSamplesError(UcosetError):
    """Statistical validation needs more samples to mean anything."""


class RngStream:
    """Deterministic random stream with a delivered-variate counter.

    Wraps numpy's Philox 4x64-10 counter-based generator keyed by
    ``(seed, stream)``, so equal keys give bitwise-equal output on every
    platform.  ``draws`` counts each real variate handed out, which makes
    the variate budget of the samplers testable.

    Parameters
    ----------
    seed : int
        Key in [0, 2^64).
    stream : int, optional
        Second key word; distinct values give independent streams for the
        same seed.
    """

    def __init__(self, seed: int, stream: int = 0):
        seed = int(seed)
        stream = int(stream)
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must lie in [0, 2^64)")
        if not 0 <= stream < 2 ** 64:
            raise ValueError("stream must lie in [0, 2^64)")
        self.seed = seed
        self.stream = stream
        key = np.array([seed, stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.draws = 0

    def normals(self, count: int) -> np.ndarray:
        """Standard normal variates; advances ``draws`` by ``count``."""
        count = int(count)
        self.draws += count
        return self._gen.standard_normal(count)

    def uniforms(self, count: int) -> np.ndarray:
        """Uniform variates on [0, 1); advances ``draws`` by ``count``."""
        count = int(count)
        self.draws += count
        return self._gen.random(count)

    def substream(self, index: int) -> "RngStream":
        """Fresh independent stream; distinct indexes never collide."""
        return RngStream(self.seed, self.stream + 1 + int(index))


@dataclass(frozen=True, eq=False)
class SampleReport:
    """Summary statistics from ``haar_validate``.

    ``mean_moduli[i, j]`` is the sample mean of ``|U_ij|^2``, which is
    1/dim for the Haar measure; ``ks_statistic`` compares ``|U_11|^2``
    against its known distribution with density (dim-1)(1-t)^(dim-2).
    """

    dim: int
    sample_count: int
    ks_statistic: float
    mean_moduli: np.ndarray

    def __post_init__(self):
        moduli = np.array(self.mean_moduli, dtype=float)
        moduli.setflags(write=False)
        object.__setattr__(self, "mean_moduli", moduli)


def _reg_gamma_lower(m: int, t: float) -> float:
    # Regularized lower incomplete gamma P(m, t) for integer m >= 1.
    if t <= 0.0:
        return 0.0
    if t < m + 1.0:
        # Ascending tail e^{-t} sum_{j >= m} t^j / j!; no cancellation.
        term = math.exp(m * math.log(t) - t - math.lgamma(m + 1.0))
        total = term
        j = m
        while term > total * 1e-17:
            j += 1
            term *= t / j
            total += term
        return min(total, 1.0)
    # Complement of the short head sum; each term is at most 1.
    term = math.exp(-t)
    total = term
    for j in range(1, m):
        term *= t / j
        total += term
    return max(1.0 - total, 0.0)


def sample_ball(dim: int, rng: RngStream) -> np.ndarray:
    """Uniform point of the closed ball B^dim for even ``dim``.

    Consumes exactly ``dim`` standard normals.  The direction is the
    normalized Gaussian vector; the radius is ``F(||g||^2)^(1/dim)`` with
    ``F`` the chi-square CDF on ``dim`` degrees of freedom, since
    ``F(||g||^2)`` is uniform on (0, 1) and independent of the direction.
    No rejection, no extra variate.

    Raises OddDimensionError unless ``dim`` is a positive even integer.
    """
    dim = int(dim)
    if dim <= 0 or dim % 2:
        raise OddDimensionError(f"ball dimension must be positive and even, got {dim}")
    g = rng.normals(dim)
    s = float(g @ g)
    if s == 0.0:
        return np.zeros(dim)
    radius_frac = _reg_gamma_lower(dim // 2, 0.5 * s)
    return g * (radius_frac ** (1.0 / dim) / math.sqrt(s))


def haar_unitary(dim: int, rng: RngStream) -> ComplexMatrix:
    """Draw one Haar-distributed ``dim x dim`` unitary matrix.

    Consumes exactly ``dim**2`` variates from ``rng`` in the documented
    order.  ``dim = 1`` reduces to a single uniform phase.
    """
    dim = int(dim)
    if dim < 1:
        raise InvalidDimError(f"dim must be at least 1, got {dim}")
    factors = []
    for level in range(1, dim):
        point = sample_ball(2 * (dim - level), rng)
        x = point[0::2] + 1j * point[1::2]
        factors.append(coset_matrix_from_X(CosetVector.from_coords(x, level, dim)))
    phases = np.exp(1j * (math.pi * (1.0 - 2.0 * rng.uniforms(dim))))
    phases[:-1] *= -1.0
    terminal = PhaseDiagonal(phases, dim)
    return compose_cosets(CosetFactorization(tuple(factors), terminal, FORWARD, dim))


def haar_oracle(dim: int, rng: RngStream) -> ComplexMatrix:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R diagonal is divided out by its phases, which removes the QR sign
    ambiguity and makes the distribution exactly Haar.  Consumes
    ``2 * dim**2`` normals (interleaved real/imaginary parts).
    """
    dim = int(dim)
    if dim < 1:
        raise InvalidDimError(f"dim must be at least 1, got {dim}")
    flat = rng.normals(2 * dim * dim)
    z = (flat[0::2] + 1j * flat[1::2]).reshape(dim, dim) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    scale = np.abs(diag)
    safe = np.where(scale == 0.0, 1.0, scale)
    phases = np.where(scale == 0.0, 1.0, diag / safe)
    return q * phases


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a CDF callable."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.shape[0]
    if n == 0:
        raise ValueError("need at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(np.max(upper), np.max(lower)))


def ks_statistic_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("need at least one sample on each side")
    everything = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, everything, side="right") / a.shape[0]
    cdf_b = np.searchsorted(b, everything, side="right") / b.shape[0]
    return float(np.max(np.abs(cdf_a - cdf_b)))


def haar_validate(dim: int, samples: int, rng: RngStream) -> SampleReport:
    """Sample ``haar_unitary`` and summarize two sharp Haar statistics.

    The |U_11|^2 values are tested against their exact CDF
    ``1 - (1 - t)^(dim - 1)`` and every ``|U_ij|^2`` is averaged (exact
    mean 1/dim).  Requires ``dim >= 2`` and at least 1000 samples.
    """
    dim = int(dim)
    samples = int(samples)
    if dim < 2:
        raise InvalidDimError(f"dim must be at least 2 to validate, got {dim}")
    if samples < 1000:
        raise TooFewSamplesError(f"need at least 1000 samples, got {samples}")
    moduli_sum = np.zeros((dim, dim))
    corner = np.empty(samples)
    for k in range(samples):
        u = haar_unitary(dim, rng)
        p = np.abs(u)
        p *= p
        moduli_sum += p
        corner[k] = p[0, 0]
    ks = ks_statistic(corner, lambda t: 1.0 - (1.0 - t) ** (dim - 1))
    return SampleReport(
        dim=dim,
        sample_count=samples,
        ks_statistic=ks,
        mean_moduli=moduli_sum / samples,
    )
