"""The machine's speed factor: fixed reference work timed between ops.

The machine changes speed by itself, by up to 1.6x, in stretches that last
from seconds to whole runs (see README, Noise).  Every kind of work moves
together: interpreted Python, small numpy calls, BLAS, rank-one updates of
large matrices and process start.  ``factor()`` times fixed kernels of those
kinds, which do not touch ``ucoset``, and returns the mean of their times
over their nominal times.  Each workload names the kernels whose work is
like its ops'.  The benchmark divides each measured time by the factor
taken around it, so that its figures read as at nominal speed.  A change to
the program does not move the factor, so it moves the figures in full.
"""

import subprocess
import sys
import time

import numpy as np

_RNG = np.random.default_rng(20101008)
_VECTORS = [_RNG.standard_normal(8) + 1j * _RNG.standard_normal(8) for _ in range(60)]
_MATRIX = (_RNG.standard_normal((128, 128)) + 1j * _RNG.standard_normal((128, 128))) / 16.0
_EYE = np.eye(8, dtype=complex)
_LARGE = (_RNG.standard_normal((256, 256)) + 1j * _RNG.standard_normal((256, 256))) / 16.0
_PIVOT = _RNG.standard_normal(256) + 1j * _RNG.standard_normal(256)


def _python():
    s = 0
    for i in range(12000):
        s += i * i % 7
    return s


def _small_numpy():
    acc = _EYE.copy()
    for v in _VECTORS:
        u = v / np.linalg.norm(v)
        acc = acc - 2.0 * np.outer(u, u.conj()) @ acc
    return acc


def _matmul():
    return _MATRIX @ _MATRIX @ _MATRIX


def _rank_one():
    return _LARGE - np.outer(_PIVOT, _PIVOT.conj() @ _LARGE) / 256.0


def _process_start():
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


# (kernel, nominal best-of-REPEATS time in ns): about the typical time on the
# 2-vCPU x86-64 machine the benchmark was built on, in its usual state.
# COMPUTE serves workloads whose ops run in the worker.  PROCESS serves
# cli-roundtrip, whose ops are fresh interpreter processes: there the
# COMPUTE factor, taken in the worker, made the per-op latencies spread more
# than the raw ones (log-latency residual 0.156 against 0.111 over a 150 s
# run), and a timed interpreter start alone cut it to 0.091.
COMPUTE = ((_python, 1.0e6), (_small_numpy, 1.0e6), (_matmul, 1.0e6), (_rank_one, 1.0e6))
PROCESS = ((_process_start, 12.0e6),)
REPEATS = 2


def factor(kernels=COMPUTE):
    """Mean over the kernels of best-of-REPEATS time over nominal time."""
    total = 0.0
    for kernel, nominal_ns in kernels:
        best = None
        for _ in range(REPEATS):
            t0 = time.perf_counter_ns()
            kernel()
            dt = time.perf_counter_ns() - t0
            best = dt if best is None else min(best, dt)
        total += best / nominal_ns
    return total / len(kernels)
