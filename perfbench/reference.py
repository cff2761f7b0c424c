"""Independent numpy computations that the benchmark checks outputs against.

Nothing here imports ``ucoset``: every check compares the program's output
with a computation written from the paper's formulas, or with a property the
method must have.
"""

import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def haar_matrix(n, rng):
    """Haar unitary from QR of a complex Gaussian matrix (phase-corrected)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def unitarity_defect(m):
    """Max-norm of ``M^dag M - 1``; ``m`` may be a stack of matrices."""
    m = np.asarray(m)
    gram = np.conj(np.swapaxes(m, -1, -2)) @ m
    return float(np.max(np.abs(gram - np.eye(m.shape[-1]))))


def ks_statistic(samples, cdf):
    """One-sample Kolmogorov-Smirnov statistic."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.shape[0]
    f = cdf(x)
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


def corner_cdf(dim):
    """Exact CDF of ``|U_11|^2`` for a Haar ``dim x dim`` unitary."""
    return lambda t: 1.0 - (1.0 - t) ** (dim - 1)


def _reg_gamma_lower(m, t):
    """Regularized lower incomplete gamma P(m, t), integer m, vectorized in t.

    Below t = m + 1 the ascending series sum_{j >= m} e^-t t^j / j! is used,
    which has no cancellation for small P; above it the complement of the
    m-term head sum, whose terms are all at most 1.
    """
    t = np.asarray(t, dtype=float)
    safe = np.where(t > 0.0, t, 1.0)
    term = np.exp(m * np.log(safe) - safe - math.lgamma(m + 1.0))
    series = term.copy()
    for j in range(m + 1, m + 80):
        term = term * safe / j
        series += term
    head = np.exp(-safe)
    total = head.copy()
    for j in range(1, m):
        head = head * safe / j
        total += head
    p = np.where(safe < m + 1.0, np.minimum(series, 1.0), np.maximum(1.0 - total, 0.0))
    return np.where(t > 0.0, p, 0.0)


def replay_haar(dim, count, seed, stream):
    """Rebuild the matrices the paper's sampler draws from one Philox stream.

    Per matrix the documented draw order is dim (dim - 1) normals (the ball
    points of levels 1 .. dim-1, 2 (dim - k) coordinates each) then dim
    uniforms for the phases.  Level k gives X from a uniform point of the
    ball B^{2(dim-k)}, the unit pivot n = gamma e_k + X / (2 gamma) with
    gamma = sqrt((1 + rho) / 2), and U = R(n_1) ... R(n_{dim-1}) diag(e^{i phi}).
    Returns a (count, dim, dim) stack.
    """
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    normals = np.empty((count, dim * (dim - 1)))
    uniforms = np.empty((count, dim))
    for s in range(count):
        normals[s] = gen.standard_normal(dim * (dim - 1))
        uniforms[s] = gen.random(dim)
    m = np.zeros((count, dim, dim), dtype=complex)
    idx = np.arange(dim)
    m[:, idx, idx] = np.exp(1j * math.pi * (1.0 - 2.0 * uniforms))
    pivots = []
    offset = 0
    for level in range(1, dim):
        half = dim - level
        g = normals[:, offset:offset + 2 * half]
        offset += 2 * half
        s = np.einsum("ij,ij->i", g, g)
        frac = _reg_gamma_lower(half, 0.5 * s) ** (1.0 / (2 * half))
        point = g * np.where(s > 0.0, frac / np.sqrt(np.where(s > 0.0, s, 1.0)), 0.0)[:, None]
        x = point[:, 0::2] + 1j * point[:, 1::2]
        rho = np.sqrt(np.maximum(0.0, 1.0 - np.einsum("ij,ij->i", x.real, x.real)
                                 - np.einsum("ij,ij->i", x.imag, x.imag)))
        gamma = np.sqrt(0.5 * (1.0 + rho))
        n = np.zeros((count, dim), dtype=complex)
        n[:, level - 1] = gamma
        n[:, level:] = x / (2.0 * gamma)[:, None]
        pivots.append(n)
    for n in reversed(pivots):
        m -= 2.0 * n[:, :, None] * np.einsum("si,sij->sj", n.conj(), m)[:, None, :]
    return m


def check_haar_job(report, dim, samples, draws, seed, stream):
    """Check one ``haar_validate`` job against the replayed stream.

    Returns the replayed matrices' largest unitarity defect and the first
    replayed matrix.
    """
    require(report.dim == dim and report.sample_count == samples,
            f"report is for dim {report.dim}, {report.sample_count} samples")
    require(draws == samples * dim * dim,
            f"job drew {draws} variates, expected {samples * dim * dim}")
    mats = replay_haar(dim, samples, seed, stream)
    defect = unitarity_defect(mats)
    require(defect <= 1e-12, f"replayed matrices have unitarity defect {defect:.2e}")
    p = np.abs(mats) ** 2
    ks = ks_statistic(p[:, 0, 0], corner_cdf(dim))
    require(abs(ks - report.ks_statistic) <= 1e-12,
            f"KS statistic {report.ks_statistic} differs from the replay's {ks}")
    dev = float(np.max(np.abs(p.mean(axis=0) - report.mean_moduli)))
    require(dev <= 1e-12, f"mean moduli differ from the replay's by {dev:.2e}")
    bound = 2.0 * 1.63 / math.sqrt(samples)
    require(ks < bound, f"KS statistic {ks:.4f} not below {bound:.4f}")
    return defect, mats[0]


def reflection_product(pivots, phases, ordering):
    """Rebuild U from Householder pivots with R(u) = 1 - 2 |u><u| / <u|u>.

    Forward ordering is ``R_1 ... R_{N-1} D``, reversed ``D R_{N-1} ... R_1``.
    Pivot k vanishes above index k - 1, so each R_k touches only the
    trailing block of the partial product.
    """
    n = len(phases)
    m = np.diag(np.asarray(phases, dtype=complex))
    for k in range(n - 1, 0, -1):
        u = np.asarray(pivots[k - 1])[k - 1:]
        scale = 2.0 / float(np.vdot(u, u).real)
        block = m[k - 1:, k - 1:]
        if ordering == "forward":
            block -= np.outer(u, scale * (u.conj() @ block))
        else:
            block -= np.outer(scale * (block @ u), u.conj())
    return m


def check_householder(u, pivots, pivot_phases, residual, ordering, rebuilt):
    """Check a Householder factorization and the program's reconstruction.

    Returns the largest reconstruction error seen.
    """
    n = u.shape[0]
    require(len(pivots) == n - 1, f"{len(pivots)} pivots for dim {n}")
    for k, p in enumerate(pivots, start=1):
        require(not np.any(p[:k - 1]), f"pivot {k} has nonzero leading components")
    expected = -np.exp(1j * np.asarray(pivot_phases))
    dev = float(np.max(np.abs(residual[:n - 1] - expected))) if n > 1 else 0.0
    require(dev <= 1e-12, f"residual entries differ from -e^(i phi_k) by {dev:.2e}")
    mine = reflection_product(pivots, residual, ordering)
    err_mine = float(np.max(np.abs(mine - u)))
    require(err_mine <= 1e-10, f"pivots rebuild U only to {err_mine:.2e}")
    err = float(np.max(np.abs(rebuilt - u)))
    require(err <= 1e-10, f"reconstruct returns U only to {err:.2e}")
    return max(err, err_mine)


def coset_product(xs, rhos, terminal, ordering):
    """Rebuild U from coset coordinates with the paper's factor formula.

    The level-k factor has corner rho, column X below it, row -X^dag right
    of it and trailing block 1 - |X><X| / (1 + rho); forward ordering is
    ``C_1 ... C_{N-1} T`` and reversed ``T C_{N-1} ... C_1``.
    """
    n = len(terminal)
    m = np.diag(np.asarray(terminal, dtype=complex))
    for k in range(n - 1, 0, -1):
        x = np.asarray(xs[k - 1])
        rho = rhos[k - 1]
        i = k - 1
        if ordering == "forward":
            top = m[i].copy()
            rest = m[i + 1:]
            xr = x.conj() @ rest
            m[i] = rho * top - xr
            rest += np.outer(x, top - xr / (1.0 + rho))
        else:
            left = m[:, i].copy()
            rest = m[:, i + 1:]
            rx = rest @ x
            m[:, i] = rho * left + rx
            rest -= np.outer(left + rx / (1.0 + rho), x.conj())
    return m


def check_coset(u, xs, rhos, terminal, ordering, composed):
    """Check extracted coset coordinates and the program's composition.

    Returns the largest reconstruction error seen.
    """
    n = u.shape[0]
    require(len(xs) == n - 1, f"{len(xs)} coset vectors for dim {n}")
    for k, (x, rho) in enumerate(zip(xs, rhos), start=1):
        r_sq = float(np.vdot(x, x).real)
        require(x.shape == (n - k,), f"X_{k} has shape {x.shape}")
        require(r_sq <= 1.0 + 1e-12, f"<X_{k}|X_{k}> = {r_sq} exceeds 1")
        require(abs(rho * rho + r_sq - 1.0) <= 1e-12, f"rho_{k} is inconsistent with X_{k}")
    mine = coset_product(xs, rhos, terminal, ordering)
    err_mine = float(np.max(np.abs(mine - u)))
    require(err_mine <= 1e-10, f"coset vectors rebuild U only to {err_mine:.2e}")
    err = float(np.max(np.abs(composed - u)))
    require(err <= 1e-10, f"compose_cosets returns U only to {err:.2e}")
    return max(err, err_mine)
