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

``haar_unitary_batch`` is the one sampler body: a coordinate draw, then a
product of reflections.  The draw takes two generator calls per matrix, the
N(N-1) normals of its ball points and then its N uniforms, and gives the
X_k, rho_k and phases of the whole stack, batch axis last, the ball radii
of every level and matrix from one vectorized regularized gamma function
(``_reg_gamma``).  A draw of fewer than ``_WY_WIDTH`` (16) reflections is
multiplied out from its X_k and rho_k themselves, one rank-1 step per level
(as in Stewart's 1980 sampler): 2 / <n_k|n_k> = 1 / (1 + rho_k) is
known, so no pivot is built and no <n_k|n_k> summed, and the steps cost less
there than forming a compact-WY ``T``.  A wider draw goes through the one
pivot builder of ``householder``, which turns 1 + rho_k and X_k into the
(N-1, N, count) pivots, and its compact-WY panels.  Each step is
elementwise along the count axis and every sum over a matrix's own axis
adds in index order, so a stack equals as many successive ``haar_unitary``
calls, its count-1 case, bit for bit, as do the bounded blocks that
``haar_validate`` and ``ucoset sample`` draw in.  ``decompose`` then
``cosets_from_householder`` read a draw back: its X_k, and its phases with
the first N - 1 negated as the terminal phases, within 6 N eps /
min_{j<=k} rho_j, a bound ``tests/test_haar.py`` derives.

``haar_oracle`` draws from the same distribution through an unrelated
construction (QR of a complex Gaussian matrix with the phase-of-diagonal
correction) and exists purely as a statistical cross-check.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _NAMES
from .numkit import ComplexMatrix, DomainError, UcosetError, _as_array, _instance, _integer
from .householder import FORWARD, _pivots, _product

__all__ = _NAMES["haar"].split()


class OddDimensionError(UcosetError):
    """Ball sampling requires a positive even dimension."""


class InvalidDimError(UcosetError):
    """Matrix dimension is out of range for the requested operation."""


class TooFewSamplesError(UcosetError):
    """A sample count out of range: statistical validation needs at least
    1000 samples to mean anything, and no more than one array can hold."""


class InvalidCountError(UcosetError):
    """A batch must hold at least one matrix, and fit in one array."""


# The most complex entries one numpy array can hold.  Past it numpy raises a
# bare ValueError for the shape or the byte count, so every size an entry
# point takes is checked against it, with the entry point's own typed error,
# before anything is drawn or allocated.
_MAX_ENTRIES = np.iinfo(np.intp).max // np.dtype(complex).itemsize

# The widest matrix one array holds.
_MAX_DIM = math.isqrt(_MAX_ENTRIES)

# Twice 1.63, about the asymptotic 99th-percentile Kolmogorov critical value, 1.628.
HAAR_TEST_KS_FACTOR = 2.0 * 1.63
# False-alarm rate of the mean-moduli gate, split evenly over the dim^2 entries.
HAAR_TEST_MEAN_ALARM = 1e-6


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

    A key that is not an integer (a float or bool included) or lies outside
    [0, 2^64) raises DomainError.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = _integer(seed, "seed", DomainError, 0, 2 ** 64)
        self.stream = _integer(stream, "stream", DomainError, 0, 2 ** 64)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.draws = 0

    def normals(self, count: int) -> np.ndarray:
        """Standard normal variates; advances ``draws`` by ``count``.

        A ``count`` that is not a non-negative integer, or is more than one
        array can hold, raises DomainError and leaves ``draws`` as it was;
        so it does in ``uniforms``.
        """
        return self._draw(self._gen.standard_normal, count)

    def uniforms(self, count: int) -> np.ndarray:
        """Uniform variates on [0, 1); advances ``draws`` by ``count``."""
        return self._draw(self._gen.random, count)

    def _draw(self, sampler, count) -> np.ndarray:
        # ``draws`` moves only once the generator has delivered.
        count = _integer(count, "count", DomainError, 0, _MAX_ENTRIES + 1)
        out = sampler(count)
        self.draws += count
        return out

    def substream(self, index: int) -> "RngStream":
        """Fresh independent stream keyed ``(seed, stream + 1 + index)``.

        Distinct indexes of one stream never collide, but nested substreams
        can coincide with their siblings: ``substream(0).substream(0)`` and
        ``substream(1)`` are the same stream.

        ``index`` is a non-negative integer, else DomainError: index -1
        would give back this stream itself.
        """
        index = _integer(index, "substream index", DomainError, 0)
        return RngStream(self.seed, self.stream + 1 + index)


class Gate(NamedTuple):
    """One statistical gate: a statistic, its threshold and the verdict."""

    statistic: float
    threshold: float
    passed: bool


@dataclass(frozen=True, eq=False)
class SampleReport:
    """Summary statistics from ``haar_validate``, and the gates they pass.

    ``mean_moduli[i, j]`` is the sample mean of ``|U_ij|^2``, which is
    1/dim for the Haar measure; ``ks_statistic`` compares ``|U_11|^2``
    against its known distribution with density (dim-1)(1-t)^(dim-2).

    Two read-only gates are derived from these fields on access, each a
    ``Gate``; ``passed`` is true when both pass, and a NaN statistic fails
    either.  With S = ``sample_count`` and N = ``dim``:

    * ``ks_gate``: ``ks_statistic`` passes strictly below
      ``HAAR_TEST_KS_FACTOR / sqrt(S)``.
    * ``mean_gate``: the largest ``|mean_moduli[i, j] - 1/N|`` passes at or
      below ``z sqrt((N - 1) / (N^2 (N + 1) S))``, z standard errors of a
      Beta(1, N - 1) mean, with ``z = sqrt(2 ln(2 N^2 / a))`` for the
      false-alarm rate a = ``HAAR_TEST_MEAN_ALARM`` split over the N^2
      entries (Bonferroni).
    """

    dim: int
    sample_count: int
    ks_statistic: float
    mean_moduli: np.ndarray

    def __post_init__(self):
        moduli = np.array(self.mean_moduli, dtype=float)
        moduli.setflags(write=False)
        object.__setattr__(self, "mean_moduli", moduli)

    @property
    def ks_gate(self) -> Gate:
        threshold = HAAR_TEST_KS_FACTOR / math.sqrt(self.sample_count)
        return Gate(self.ks_statistic, threshold, bool(self.ks_statistic < threshold))

    @property
    def mean_gate(self) -> Gate:
        # Each entry's mean over S samples is near normal, and the z of the
        # docstring has P(|Z| > z) <= 2 e^{-z^2 / 2} = a / N^2, the false-alarm
        # rate of one entry.
        n, s = self.dim, self.sample_count
        z = math.sqrt(2.0 * math.log(2.0 * n * n / HAAR_TEST_MEAN_ALARM))
        threshold = z * math.sqrt((n - 1) / (n * n * (n + 1) * s))
        dev = float(np.max(np.abs(self.mean_moduli - 1.0 / n)))
        return Gate(dev, threshold, dev <= threshold)

    @property
    def passed(self) -> bool:
        return self.ks_gate.passed and self.mean_gate.passed


# Each sum in P(m, t) keeps its terms down to 2^-60 of its largest one.
_TAIL = 2.0 ** -60

# Size of a sampler block in matrix entries: a block's working set stays
# O(_BLOCK_ENTRIES) whatever the sample count.
_BLOCK_ENTRIES = 2 ** 13

# Fewest reflections in a draw that ``householder._product`` multiplies out
# as compact-WY panels; a draw of fewer takes rank-1 steps on its ball
# coordinates (_rank1_product), cheaper there than forming a panel's T.
_WY_WIDTH = 16

# Floor of |g|^2 for a ball point: it keeps t / s and s / t finite in
# P(m, t), and a zero run of g stays 0.
_NORM_FLOOR = np.finfo(float).tiny ** 0.5

# The Stirling correction S(m) = log m! - (m + 1/2) log m + m - log(2 pi) / 2:
# its values for m < 10, rounded from a 50-digit evaluation, and from m = 10
# on the coefficients of its asymptotic series in 1 / m^(2k+1), whose first
# omitted term is below 2e-18 there.
_STIRLING_SMALL = (0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
                   0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
                   0.01189670994589177, 0.010411265261972096, 0.009255462182712733)
_STIRLING_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
                    1 / 156, -3617 / 122400)


def _stirling(m: int) -> float:
    if m <= len(_STIRLING_SMALL):
        return _STIRLING_SMALL[m - 1]
    return math.fsum(a / m ** (2 * k + 1) for k, a in enumerate(_STIRLING_SERIES))


def _switch(m: int) -> float:
    # Where P(m, t) turns from its ascending series to the complement of its
    # head sum: t = m - 0.8 sqrt(m), where P is about 0.2 (0.18 at m = 1), so
    # the complement 1 - Q loses at most a few bits to cancellation.
    return m - 0.8 * math.sqrt(m)


def _series_terms(m: int) -> int:
    # Each term of either sum is largest at the switch s, every ratio
    # t / (m + 1 + k) below it and (m - k) / t above it being largest there:
    # keep terms until those at s fall below _TAIL of the largest.  The head
    # sum has m terms; at large m its terms at s peak and then fall, and it
    # stops sooner.
    s = _switch(m)
    asc, term = 0, 1.0
    while term > _TAIL:
        term *= s / (m + 1 + asc)
        asc += 1
    head, term, peak = 0, 1.0, 1.0
    while head < m and term > _TAIL * peak:
        term *= (m - head) / s
        peak = max(peak, term)
        head += 1
    return max(asc, head)


class _BallPlan(NamedTuple):
    # Constants for ball points with half-dimensions ``m`` along the first
    # axis, each followed by ``batch`` unit axes so that it broadcasts over
    # the batch axes after the levels.  For P(m, t): m, the switch s, the
    # factor 1 / (sqrt(2 pi m) e^S(m)) of the leading term, and the ratio
    # weights, one row per term and two columns per level: the ascending
    # series' s / (m + 1 + k), then the head sum's (m - k) / s down to 0,
    # whose zeros end it after m terms; the first head weight is negated, so
    # that the head sum comes out negated.  ``column`` holds each level's
    # first column.  Then the runs of 2 m coordinates and the radius powers
    # 1 / 2 m.
    m: np.ndarray
    switch: np.ndarray
    lead: np.ndarray
    weights: np.ndarray
    column: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    inv_sizes: np.ndarray


@functools.lru_cache(maxsize=64)
def _ball_plan(ms: tuple, batch: int) -> _BallPlan:
    m = np.array(ms, dtype=float)
    k = np.arange(_series_terms(max(ms)))[:, None]
    switch = np.array([_switch(v) for v in ms])
    head = np.maximum(m - k, 0.0) / switch
    head[0] *= -1.0
    lead = np.array([math.exp(-_stirling(v)) / math.sqrt(2.0 * math.pi * v) for v in ms])
    sizes = 2 * np.array(ms)

    def levels(a):
        return a.reshape(a.shape + (1,) * batch)

    plan = _BallPlan(levels(m), levels(switch), levels(lead),
                     np.stack([switch / (m + 1.0 + k), head], axis=-1).reshape(len(k), -1),
                     levels(np.arange(0, 2 * len(ms), 2)), sizes, np.cumsum(sizes) - sizes,
                     levels(1.0 / sizes))
    for a in plan:
        a.setflags(write=False)
    return plan


# From this many values of P(m, t) on, _reg_gamma forms its prefix products
# row by row, each row one multiply over all levels and points; below it,
# one accumulate, whose inner loops each run down a single column, costs
# fewer interpreter steps.  Both multiply in the same order.  On a 2-vCPU
# x86-64 machine, one BLAS thread, the two cost the same at 224-256 values
# for N = 3 to 256.
_ROW_SCAN = 256


def _reg_gamma(ms: tuple, t) -> np.ndarray:
    """Regularized lower incomplete gamma P(m, t) for t > 0 and integer m >= 1.

    ``ms`` holds the m of each position along the first axis of ``t``; any
    further axes are batch axes, and a 0-d ``t`` broadcasts over the levels.
    Both branches scale the leading term e^-t t^m / m!, taken as

        exp(m (log q - (q - 1))) / (sqrt(2 pi m) e^S(m)),   q = t / m,

    with S the Stirling correction (Temme 1979; DiDonato & Morris 1986).  No
    factor e^-t or t^m over- or underflows on its own, and the exponent,
    -m (d - log(1 + d)) for d = q - 1, has no cancellation: the rounding of
    q enters log q and q - 1 alike, and it and the rounding of log q move
    the exponent by about |t - m| ulps.  Below the switch s = m - 0.8 sqrt(m),
    where P < 0.2, P is that term times the ascending series
    1 + sum_k prod_{j<=k} t / (m + j).  From s on, P is 1 minus the term
    times the head sum sum_{i=1..m} prod_{j<i} (m - j) / t, which is
    e^-t sum_{j<m} t^j / j! and has at most m terms.  Each ratio is
    min(t / s, s / t) times a weight of the plan, and the terms of each sum
    are prefix products along a leading axis, each row of them a whole
    array of the shape of ``t``: the whole array takes one log and one exp
    per entry and a few array operations, and no term takes a
    transcendental of its own.
    """
    t = np.asarray(t, dtype=float)
    plan = _ball_plan(ms, max(t.ndim - 1, 0))
    q = t / plan.m
    lead = plan.lead * np.exp(plan.m * (np.log(q) - (q - 1.0)))
    above = t >= plan.switch
    # One gather of each value's weights from its level's column on its
    # branch: a select against the plan broadcast over the batch axes would
    # run its inner loops along those axes alone, short for a few matrices.
    terms = plan.weights.take(plan.column + above, axis=1)
    terms *= np.minimum(t / plan.switch, plan.switch / t)
    if terms[0].size < _ROW_SCAN:
        # The prefix products, then their sum as its last prefix sum, which
        # adds in index order for a lone value as a sum over the leading
        # axis does for two or more; a lone value's sum would add pairwise.
        terms = np.add.accumulate(np.multiply.accumulate(terms, out=terms), out=terms)[-1:]
    else:
        for prev, row in zip(terms, terms[1:]):
            row *= prev
    # The term plus the term times the ascending sum below s; 1 plus the term
    # times the negated head sum from s on (the term is at most 1).
    return np.maximum(lead, above) + lead * terms.sum(axis=0)


def _ball_points(g: np.ndarray, ms: tuple) -> np.ndarray:
    # Each run of 2 m entries along the first axis of g, a Gaussian vector
    # per batch position, scaled to a uniform point of the ball B^{2m}: its
    # radius is P(m, |g|^2 / 2)^(1 / 2m).
    # m = 1 (N = 2) takes its radius as a correctly rounded square root, which
    # gives a lone draw its stack's bits; pow may round one value apart.
    plan = _ball_plan(ms, g.ndim - 1)
    s = np.maximum(np.add.reduceat(g * g, plan.starts), _NORM_FLOOR)
    p = _reg_gamma(ms, s * 0.5)
    scale = (np.sqrt(p) if ms == (1,) else p ** plan.inv_sizes) / np.sqrt(s)
    return g * scale.repeat(plan.sizes, axis=0)


def sample_ball(dim: int, rng: RngStream) -> np.ndarray:
    """Uniform point of the closed ball B^dim for even ``dim``.

    Consumes exactly ``dim`` standard normals.  The direction is the
    normalized Gaussian vector; the radius is ``F(||g||^2)^(1/dim)`` with
    ``F`` the chi-square CDF on ``dim`` degrees of freedom, since
    ``F(||g||^2)`` is uniform on (0, 1) and independent of the direction.
    No rejection, no extra variate.

    Raises OddDimensionError unless ``dim`` is a positive even integer that
    one array can hold.
    """
    if _integer(dim, "ball dimension", OddDimensionError, 2, _MAX_ENTRIES + 1) % 2:
        raise OddDimensionError(f"ball dimension must be a positive even integer, got {dim!r}")
    return _ball_points(_instance(rng, RngStream, "rng").normals(dim), (dim // 2,))


def _haar_coordinates(dim: int, count: int, rng: RngStream):
    # The X_k of levels 1 .. dim - 1 concatenated in draw order, their rho_k
    # and the phases e^{i phi} of ``count`` draws, batch axis last, with the
    # checks, variates and ``draws`` of ``haar_unitary_batch``.
    dim = _integer(dim, "dim", InvalidDimError, 1, _MAX_DIM + 1)
    count = _integer(count, "count", InvalidCountError, 1, _MAX_ENTRIES // (dim * dim) + 1)
    g = np.empty((count, dim * (dim - 1)))
    u = np.empty((count, dim))
    gen = _instance(rng, RngStream, "rng")._gen
    normals, uniforms = gen.standard_normal, gen.random
    for g_k, u_k in zip(g, u):
        normals(out=g_k)
        uniforms(out=u_k)
    rng.draws += count * dim * dim
    # e^{i phi} as cos and sin of the real angle: the values of a complex exp
    # of i phi, without one.
    angle = math.pi * (1.0 - 2.0 * u.T)
    phases = np.empty_like(angle, dtype=complex)
    np.cos(angle, out=phases.real)
    np.sin(angle, out=phases.imag)
    if dim == 1:
        return np.empty((0, count), dtype=complex), np.empty((0, count)), phases
    ms = tuple(range(dim - 1, 0, -1))
    points = _ball_points(g.T, ms)
    x = np.empty((len(points) // 2, count), dtype=complex)
    x.real, x.imag = points[0::2], points[1::2]
    rho = np.sqrt(np.maximum(
        0.0, 1.0 - np.add.reduceat(points * points, _ball_plan(ms, 1).starts)))
    return x, rho, phases


def _rank1_product(x, rho, phases) -> np.ndarray:
    # R(n_1) ... R(n_{N-1}) D, (N, N, count), for the coordinates of
    # _haar_coordinates: one rank-1 step per level from the last back,
    # elementwise along the batch axis, then the phases.  The level-k pivot
    # is n = (1 + rho) e_k + X, so 2 / <n|n> = 1 / (1 + rho), and before its
    # step row and column k of the product are e_k: the step takes
    # [[1, 0], [0, B]] to [[-rho, -s], [-X, B - X s / (1 + rho)]] with
    # s = X^dag B, which is [[-rho, -X^dag], [-X, rho]] at the last level.
    # The diagonal is set first; each step sums -s over B's rows into row k,
    # in index order whatever the count, its products in one step buffer.
    # Every complex product spans at least two entries of a lone draw's rows,
    # as it spans a stack's batch axis (the last level takes none, and at
    # N = 1 the phases multiply an exact 1): numpy may round a product of
    # single entries apart from one of a row.
    n, count = phases.shape
    t = np.zeros((n, n, count), dtype=complex)
    diag = t.reshape(n * n, count)[::n + 1]
    diag[:-1] = -rho
    diag[-1] = 1.0
    xn = np.conjugate(x)
    np.negative(xn, out=xn)
    if n > 1:
        t[-1, -2], t[-2, -1], diag[-1] = -x[-1], xn[-1], rho[-1]
    scaled = x / (1.0 + rho).repeat(range(n - 1, 0, -1), axis=0)
    buf = np.empty((n - 1, n - 1, count), dtype=complex)
    end = len(x) - 1
    for i in reversed(range(n - 2)):
        lvl = slice(end - (n - 1 - i), end)
        b, row, rest = buf[i:, i:], t[i, i + 1:], t[i + 1:, i + 1:]
        np.negative(x[lvl], out=t[i + 1:, i])
        np.multiply(xn[lvl, None], rest, out=b)
        b.sum(axis=0, out=row)
        np.multiply(scaled[lvl, None], row, out=b)
        rest += b
        end = lvl.start
    t *= phases
    return t


def haar_unitary_batch(dim: int, count: int, rng: RngStream) -> np.ndarray:
    """Draw ``count`` Haar-distributed ``dim x dim`` unitaries, stacked.

    The matrices, bit for bit, and ``rng``'s state after the call, are
    those of ``count`` successive ``haar_unitary`` calls: for each matrix,
    ``dim (dim - 1)`` normals then ``dim`` uniforms, ``count * dim**2``
    variates in all, drawn and multiplied out as one stack; the result is a
    (count, dim, dim) view.

    Raises InvalidDimError unless ``dim`` is an integer at least 1, and
    InvalidCountError unless ``count`` is an integer at least 1, each before
    any variate is drawn; so they do for a stack of more entries than one
    array can hold, InvalidDimError if one matrix is already too large.
    """
    x, rho, phases = _haar_coordinates(dim, count, rng)
    if len(rho) < _WY_WIDTH:
        t = _rank1_product(x, rho, phases)
    else:
        t = _product(_pivots(len(phases), 1, 1.0 + rho, x), phases, FORWARD)
    return t.transpose(2, 0, 1)


def _haar_blocks(dim: int, count: int, rng: RngStream):
    # ``count`` matrices as successive ``haar_unitary_batch`` stacks of at
    # most _BLOCK_ENTRIES entries each (at least one matrix).  dim and count
    # take that function's checks, the stack bound included, before the
    # first block, so a count no one stack could hold is rejected up front.
    dim = _integer(dim, "dim", InvalidDimError, 1, _MAX_DIM + 1)
    count = _integer(count, "count", InvalidCountError, 1, _MAX_ENTRIES // (dim * dim) + 1)
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
    ``2 * dim**2`` normals (interleaved real/imaginary parts).  Raises
    InvalidDimError, before any draw, unless ``dim`` is an integer at least
    1 whose normals one array can hold.
    """
    dim = _integer(dim, "dim", InvalidDimError, 1, math.isqrt(_MAX_ENTRIES // 2) + 1)
    flat = _instance(rng, RngStream, "rng").normals(2 * dim * dim)
    z = (flat[0::2] + 1j * flat[1::2]).reshape(dim, dim) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    scale = np.abs(diag)
    safe = np.where(scale == 0.0, 1.0, scale)
    phases = np.where(scale == 0.0, 1.0, diag / safe)
    return q * phases


def _sorted_samples(a, what: str) -> np.ndarray:
    # a sorted as a float array; DomainError unless 1-D and finite: a NaN
    # sorts last and gives a NaN statistic, and a 2-D array sorts each row.
    x = _as_array(a, what, float)
    if x.ndim != 1 or not np.isfinite(x).all():
        raise DomainError(f"{what} must be a 1-D array of finite numbers")
    return np.sort(x)


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a CDF callable;
    DomainError unless ``samples`` is 1-D and finite and ``cdf`` is callable
    and returns one finite value per sample."""
    x = _sorted_samples(samples, "samples")
    n = x.shape[0]
    if n == 0:
        raise TooFewSamplesError("need at least one sample")
    if not callable(cdf):
        raise DomainError(f"cdf must be callable, got {type(cdf).__name__}")
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        # A scalar or a length-1 output would broadcast to a wrong statistic.
        raise DomainError(f"cdf returned shape {f.shape} for {n} samples")
    if not np.isfinite(f).all():
        raise DomainError("cdf returned a value that is not finite")
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(np.max(upper), np.max(lower)))


def ks_statistic_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic; DomainError as ``ks_statistic``."""
    a, b = (_sorted_samples(s, "samples") for s in (a, b))
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
    mean 1/dim).  The report carries the verdict too: its ``ks_gate`` holds
    the KS statistic to ``HAAR_TEST_KS_FACTOR / sqrt(samples)``, its
    ``mean_gate`` the largest mean deviation from 1/dim to a Bonferroni
    bound at false-alarm rate ``HAAR_TEST_MEAN_ALARM``, and ``passed`` is
    true when both pass (``SampleReport``).  ``dim`` must be an integer at
    least 2 (else InvalidDimError) and ``samples`` one at least 1000 (else
    TooFewSamplesError), each no more than one array can hold, the
    ``samples * dim**2`` entries of the stack too.  The
    matrices are those of ``samples`` successive ``haar_unitary`` calls,
    drawn in blocks of ``haar_unitary_batch``, so memory stays bounded
    whatever the sample count.
    """
    dim = _integer(dim, "dim", InvalidDimError, 2, _MAX_DIM + 1)
    samples = _integer(samples, "samples", TooFewSamplesError, 1000,
                       _MAX_ENTRIES // (dim * dim) + 1)
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
