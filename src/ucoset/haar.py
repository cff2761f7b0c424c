"""Haar-uniform sampling of unitary matrices via ball-parametrized pivots.

A Haar-distributed U(N) matrix is assembled as

    U = R(n_1) R(n_2) ... R(n_{N-1}) diag(e^{i phi_1}, ..., e^{i phi_N})

where the level-k pivot is ``n_k = (1 + rho_k) e_k + X_k`` for a point X_k
of the closed even ball B^{2(N-k)} drawn uniformly, rho_k = sqrt(1 - r_k^2),
and the ``phi`` are independent angles uniform on (-pi, pi].  One matrix
consumes exactly N^2 real variates: 2(N-k) per ball point plus N for the
phases, in that order.

The draw order is part of the contract.  For each level k = 1 .. N-1 the
ball point delivers coordinates (t_1, t_2, ..., t_{2(N-k)}) which pack into
the complex vector X = (t_1 + i t_2, t_3 + i t_4, ...); then the N phase
angles are derived from uniforms ``u`` as ``phi = pi (1 - 2 u)``.

``haar_unitary_batch`` is the one sampler body.  It draws a stack of
matrices with two generator calls per matrix, the N(N-1) normals of all its
ball points and then its N uniforms, each straight into the block, so a
stack equals as many successive ``haar_unitary`` calls, which is its count-1
case.  The ball radii of every level and matrix come from one vectorized
regularized gamma function, and the product of reflections runs over the
whole stack at once, in the panels of ``householder``.
``haar_validate`` and ``ucoset sample`` draw in blocks of bounded size, on
the same draw order.

``haar_oracle`` draws from the same distribution through an unrelated
construction (QR of a complex Gaussian matrix with the phase-of-diagonal
correction) and exists purely as a statistical cross-check.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numkit import ComplexMatrix, DomainError, UcosetError
from .householder import FORWARD, _product

__all__ = [
    "RngStream",
    "SampleReport",
    "OddDimensionError",
    "InvalidDimError",
    "TooFewSamplesError",
    "InvalidCountError",
    "sample_ball",
    "haar_unitary_batch",
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


class InvalidCountError(UcosetError):
    """A batch must hold at least one matrix."""


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
            raise DomainError("seed must lie in [0, 2^64)")
        if not 0 <= stream < 2 ** 64:
            raise DomainError("stream must lie in [0, 2^64)")
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


# Each sum in P(m, t) keeps its terms down to e^-45 of its largest one.
_TAIL_LOG = 45.0

# Size of a sampler block in matrix entries: a block's working set stays
# O(_BLOCK_ENTRIES) whatever the sample count.
_BLOCK_ENTRIES = 2 ** 13

_TINY = np.finfo(float).tiny


def _series_terms(m: int) -> int:
    # Term k of either sum is at most prod_{i=1..k} (m + 1) / (m + i) of the
    # first (the ascending series at t = m + 1 is the worst case; the head
    # sum falls faster); keep terms until that bound passes e^-45.
    k, decay = 1, 0.0
    while decay < _TAIL_LOG:
        k += 1
        decay += math.log((m + k) / (m + 1.0))
    return k


class _BallPlan(NamedTuple):
    # Constants for ball points with half-dimensions ``m`` along the last
    # axis.  ``j`` and ``log_fact`` hold, for both branches of P(m, t)
    # ([0] from t = m + 1 on, [1] below it) and every level, the term
    # indexes of the sum and log j!; log j! is +inf past j = 0, so that
    # those terms vanish.
    lim: np.ndarray
    j: np.ndarray
    log_fact: np.ndarray
    levels: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    inv_sizes: np.ndarray


@functools.lru_cache(maxsize=64)
def _ball_plan(ms: tuple) -> _BallPlan:
    m = np.array(ms)
    k = np.arange(_series_terms(max(ms)))
    j = np.stack([m[:, None] - 1 - k, m[:, None] + k])
    table = np.array([math.lgamma(v + 1.0) for v in range(int(j.max()) + 1)])
    log_fact = np.where(j >= 0, table[np.maximum(j, 0)], np.inf)
    sizes = 2 * m
    plan = _BallPlan(m + 1.0, j.astype(float), log_fact, np.arange(len(ms)),
                     sizes, np.cumsum(sizes) - sizes, 1.0 / sizes)
    for a in plan:
        a.setflags(write=False)
    return plan


def _reg_gamma(ms: tuple, t) -> np.ndarray:
    """Regularized lower incomplete gamma P(m, t) for t > 0 and integer m >= 1.

    ``ms`` holds the m of each position along the last axis of ``t``.
    Below t = m + 1 it sums the ascending series e^-t sum_{j >= m} t^j / j!,
    which has no cancellation for small P; from t = m + 1 on, where
    P > 1/2, it takes the complement of the head e^-t sum_{j < m} t^j / j!.
    Every term is evaluated in log form, j log t - t - log j!, so no factor
    e^-t underflows on its own at large t.  The terms run along a trailing
    axis, so the whole array is done in a few array operations.
    """
    plan = _ball_plan(ms)
    t = np.asarray(t, dtype=float)
    below = t < plan.lim
    branch = below.astype(np.intp)
    log_terms = (plan.j[branch, plan.levels] * np.log(t)[..., None]
                 - (t[..., None] + plan.log_fact[branch, plan.levels]))
    total = np.exp(log_terms).sum(axis=-1)
    return np.where(below, total, 1.0 - total)


def _ball_points(g: np.ndarray, ms: tuple) -> np.ndarray:
    # Each run of 2 m entries along the last axis of g, a Gaussian vector,
    # scaled to a uniform point of the ball B^{2m}: its radius is
    # P(m, |g|^2 / 2)^(1 / 2m).  A zero run (|g|^2 floored at _TINY) stays 0.
    plan = _ball_plan(ms)
    s = np.maximum(np.add.reduceat(g * g, plan.starts, axis=-1), _TINY)
    scale = _reg_gamma(ms, 0.5 * s) ** plan.inv_sizes / np.sqrt(s)
    return g * np.repeat(scale, plan.sizes, axis=-1)


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
    return _ball_points(rng.normals(dim), (dim // 2,))


def haar_unitary_batch(dim: int, count: int, rng: RngStream) -> np.ndarray:
    """Draw ``count`` Haar-distributed ``dim x dim`` unitaries, stacked.

    The matrices, and ``rng``'s state after the call, are those of ``count``
    successive ``haar_unitary`` calls: for each matrix, ``dim (dim - 1)``
    normals then ``dim`` uniforms, ``count * dim**2`` variates in all.  The
    ball radii and the reflection products run over the whole stack at once.

    Raises InvalidDimError for ``dim < 1`` and InvalidCountError for
    ``count < 1``.
    """
    dim = int(dim)
    count = int(count)
    if dim < 1:
        raise InvalidDimError(f"dim must be at least 1, got {dim}")
    if count < 1:
        raise InvalidCountError(f"count must be at least 1, got {count}")
    g = np.empty((count, dim * (dim - 1)))
    u = np.empty((count, dim))
    for k in range(count):
        rng._gen.standard_normal(out=g[k])
        rng._gen.random(out=u[k])
    rng.draws += count * dim * dim
    phases = np.exp(1j * (math.pi * (1.0 - 2.0 * u)))
    if dim == 1:
        return phases[..., None]
    ms = tuple(range(dim - 1, 0, -1))
    points = _ball_points(g, ms)
    rho = np.sqrt(np.maximum(
        0.0, 1.0 - np.add.reduceat(points * points, _ball_plan(ms).starts, axis=1)))
    pivots = np.zeros((count, dim - 1, dim), dtype=complex)
    flat = pivots.reshape(count, (dim - 1) * dim)
    flat[:, _below_corners(dim)] = points.view(complex)
    flat[:, ::dim + 1] = 1.0 + rho
    return _product(pivots, phases, FORWARD)


@functools.lru_cache(maxsize=64)
def _below_corners(dim: int) -> np.ndarray:
    # Flat indexes of the X_k, in draw order, in a (dim - 1, dim) stack of
    # pivots (1 + rho_k) e_k + X_k, the level-k one in row k - 1; the corners
    # sit every dim + 1 entries.
    below = np.flatnonzero(np.triu(np.ones((dim - 1, dim), dtype=bool), 1))
    below.setflags(write=False)
    return below


def _haar_blocks(dim: int, count: int, rng: RngStream):
    # ``count`` matrices as successive ``haar_unitary_batch`` stacks of at
    # most _BLOCK_ENTRIES entries each (at least one matrix).
    block = max(1, _BLOCK_ENTRIES // (dim * dim))
    for start in range(0, count, block):
        yield haar_unitary_batch(dim, min(block, count - start), rng)


def haar_unitary(dim: int, rng: RngStream) -> ComplexMatrix:
    """Draw one Haar-distributed ``dim x dim`` unitary matrix.

    Consumes exactly ``dim**2`` variates from ``rng`` in the documented
    order; it is ``haar_unitary_batch(dim, 1, rng)[0]``.  ``dim = 1``
    reduces to a single uniform phase.
    """
    return haar_unitary_batch(dim, 1, rng)[0]


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
        raise TooFewSamplesError("need at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(np.max(upper), np.max(lower)))


def ks_statistic_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise TooFewSamplesError("need at least one sample on each side")
    everything = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, everything, side="right") / a.shape[0]
    cdf_b = np.searchsorted(b, everything, side="right") / b.shape[0]
    return float(np.max(np.abs(cdf_a - cdf_b)))


def haar_validate(dim: int, samples: int, rng: RngStream) -> SampleReport:
    """Sample Haar unitaries and summarize two sharp Haar statistics.

    The |U_11|^2 values are tested against their exact CDF
    ``1 - (1 - t)^(dim - 1)`` and every ``|U_ij|^2`` is averaged (exact
    mean 1/dim).  Requires ``dim >= 2`` and at least 1000 samples.  The
    matrices are those of ``samples`` successive ``haar_unitary`` calls,
    drawn in blocks of ``haar_unitary_batch``, so memory stays bounded
    whatever the sample count.
    """
    dim = int(dim)
    samples = int(samples)
    if dim < 2:
        raise InvalidDimError(f"dim must be at least 2 to validate, got {dim}")
    if samples < 1000:
        raise TooFewSamplesError(f"need at least 1000 samples, got {samples}")
    moduli_sum = np.zeros((dim, dim))
    corner = np.empty(samples)
    done = 0
    for block in _haar_blocks(dim, samples, rng):
        p = np.abs(block)
        p *= p
        moduli_sum += p.sum(axis=0)
        corner[done:done + len(p)] = p[:, 0, 0]
        done += len(p)
    ks = ks_statistic(corner, lambda t: 1.0 - (1.0 - t) ** (dim - 1))
    return SampleReport(
        dim=dim,
        sample_count=samples,
        ks_statistic=ks,
        mean_moduli=moduli_sum / samples,
    )
