"""Closed-form golden data for the 3x3 worked example and small helpers.

U0 is the example unitary; the factor matrices below are its exact forward
Householder reflections (R1, R2), forward coset factors (C1, C2), reversed
Householder reflections (R1_REV, R2_REV) and reversed coset factors
(C1_REV, C2_REV), all written in closed form so tests compare against
values independent of the decomposition code.
"""

import math
from pathlib import Path

import numpy as np

from ucoset import RngStream, haar_oracle

GOLDEN_DIR = Path(__file__).parent / "golden"

S = math.sqrt(0.5)                  # 1/sqrt(2)
Q = (2.0 + math.sqrt(2.0)) / 4.0    # diagonal of the active 2x2 block
T = (2.0 - math.sqrt(2.0)) / 4.0    # = 1/(4 + 2 sqrt(2))

U0 = np.array(
    [
        [1j * S, 1j * S, 0.0],
        [-0.5j, 0.5j, 1j * S],
        [-0.5, 0.5, -S],
    ]
)

# Forward ordering: U0 = R1 R2 diag(RESIDUAL), pivot phases pi/2, pi/2.
PIVOT_U1 = np.array([1j * S + 1j, -0.5j, -0.5])
R1 = np.array(
    [
        [-S, 0.5, 0.5j],
        [0.5, Q, -1j * T],
        [-0.5j, 1j * T, Q],
    ]
)
R2 = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, -S, -1j * S],
        [0.0, 1j * S, S],
    ]
)
RESIDUAL = np.array([-1j, -1j, -1.0])
PIVOT_PHASES = np.array([math.pi / 2.0, math.pi / 2.0])

# Forward coset form: U0 = C1 C2 diag(TERMINAL); C_k is R_k with column k
# negated, X1 = (-1/2, i/2) and X2 = (-i/sqrt(2),) with rho = 1/sqrt(2).
C1 = np.array(
    [
        [S, 0.5, 0.5j],
        [-0.5, Q, -1j * T],
        [0.5j, 1j * T, Q],
    ]
)
C2 = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, S, -1j * S],
        [0.0, -1j * S, S],
    ]
)
TERMINAL = np.array([1j, 1j, -1.0])
X1 = np.array([-0.5, 0.5j])
RHO1 = S

# Reversed ordering: U0 = diag(RESIDUAL_REV) R2_REV R1_REV, and the coset
# form U0 = diag(TERMINAL_REV) C2_REV C1_REV with row k negated instead.
R1_REV = np.array(
    [
        [-S, -S, 0.0],
        [-S, S, 0.0],
        [0.0, 0.0, 1.0],
    ]
)
R2_REV = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, -S, -S],
        [0.0, -S, S],
    ]
)
C1_REV = np.array(
    [
        [S, S, 0.0],
        [-S, S, 0.0],
        [0.0, 0.0, 1.0],
    ]
)
C2_REV = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, S, S],
        [0.0, -S, S],
    ]
)
RESIDUAL_REV = np.array([-1j, -1j, -1.0])
TERMINAL_REV = np.array([1j, 1j, -1.0])
PIVOT_PHASES_REV = np.array([math.pi / 2.0, math.pi / 2.0])


def maxdiff(a, b) -> float:
    """Largest entrywise absolute difference."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Deterministic Haar-distributed test matrix (oracle construction)."""
    return haar_oracle(dim, RngStream(seed))


def perturbed_to_defect(dim, seed, frac, rank_one, tol):
    # U V diag(sqrt(1 + t r)) V^dag for a Haar U: (U')^dag U' - 1 is
    # t V diag(r) V^dag, so t is chosen for a defect of frac times the gate,
    # less a 1e-4 margin for rounding.  The rank-one case puts r = +-1 on
    # a direction with entries of equal modulus, which maximizes the 2-norm
    # of the defect for its largest entry.
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, seed)
    v = random_unitary(dim, seed + 1)
    r = rng.uniform(-1.0, 1.0, dim)
    if rank_one:
        x = np.exp(1j * rng.uniform(-math.pi, math.pi, dim)) / math.sqrt(dim)
        v, _ = np.linalg.qr(np.column_stack([x, v[:, 1:]]))
        r = np.zeros(dim)
        r[0] = rng.choice([-1.0, 1.0])
    t = frac * tol * (1.0 - 1e-4) / float(np.max(np.abs((v * r) @ v.conj().T)))
    return ((u @ v) * np.sqrt(1.0 + t * r)) @ v.conj().T


def reversed_repro(dim: int = 300, defect: float = 9.99e-11) -> np.ndarray:
    """W (1 + t |x><x|)^(1/2) for x of equal-modulus entries and W the
    reflection taking x to -e_1: U^dag U - 1 = t |x><x| has the given
    largest entry, and U U^dag - 1 = t |e_1><e_1| is dim times larger."""
    x = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    p = x.copy()
    p[0] += 1.0
    w = np.eye(dim) - (2.0 / np.vdot(p, p).real) * np.outer(p, p.conj())
    t = defect * dim
    return w @ (np.eye(dim) + (math.sqrt(1.0 + t) - 1.0) * np.outer(x, x.conj()))
