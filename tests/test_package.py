"""Package-wide contracts: one list of public names, typed errors, named bounds."""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import ucoset
from ucoset import UcosetError, coset, haar, householder, numkit

MODULES = (numkit, householder, coset, haar)


def test_public_names_are_the_modules_own():
    names = ucoset.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ucoset, name) is getattr(module, name), name


BAD_INPUTS = {
    "tolerance": lambda: numkit.Tolerances(unitarity_tol=float("inf")),
    "seed": lambda: haar.RngStream(-1),
    "stream": lambda: haar.RngStream(0, 2 ** 64),
    "matrix-nonfinite": lambda: numkit.unitarity_error(np.array([[np.nan]])),
    "matrix-empty": lambda: numkit.unitarity_error(np.zeros((0, 0))),
    "matrix-ragged": lambda: numkit.unitarity_error([1.0, [0.0]]),
    "expm-ragged": lambda: numkit.expm_series([[0.0, 1.0], [0.0]]),
    "ks-empty": lambda: haar.ks_statistic([], lambda x: x),
    "ks-two-sample-empty": lambda: haar.ks_statistic_two_sample([0.5], []),
    "oracle-dim": lambda: haar.haar_oracle(0, haar.RngStream(0)),
    # An integer past the float range is not finite, as an entry or a scalar.
    "tolerance-int-overflow": lambda: numkit.Tolerances(10 ** 400),
    "tolerance-2^1024": lambda: numkit.Tolerances(2 ** 1024),
    "matrix-int-overflow": lambda: numkit.unitarity_error([[10 ** 400]]),
    "expm-int-overflow": lambda: numkit.expm_series([[10 ** 400]]),
    "ks-int-overflow": lambda: haar.ks_statistic([0.5, 10 ** 400], lambda x: x),
    # A finite input whose exponential overflows, with no warning on the way.
    "expm-overflow": lambda: numkit.expm_series(np.full((2, 2), 1e3)),
}


@pytest.mark.parametrize("build", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises_typed_error(build):
    with pytest.raises(UcosetError):
        build()


# Finite square inputs both orderings must refuse: each column check of the
# loop, an overflow inside it, and the record checks a loose tol leaves.  A
# defect of 3.2 tol on the diagonal alone passes a check of |<w|w>^(1/2) - 1|.
NOT_UNITARY = {
    "column-norm": (np.diag([2.0, 1.0]), 1e-10),
    "column-norm-squared": (np.diag([1.0 + 1.6e-10, 1.0]), 1e-10),
    "unit-columns-not-orthogonal": (np.array([[1.0, 0.6], [0.0, 0.8]]), 1e-10),
    "last-column-norm": (np.array([[1.0 + 5e-10]]), 1e-10),
    "overflow-in-the-loop": (np.array([[0.6, 1.7e308], [0.8, 1.7e308]]), 1e-10),
    "pivot-norm": (np.array([[0.0, 1.0], [1.0, 0.0]]) * (1.0 - 1e-5), 1e-3),
    "phase-diagonal": ((1.0 + 1e-5) * np.eye(3), 1e-3),
}


@pytest.mark.parametrize("m, tol", NOT_UNITARY.values(), ids=NOT_UNITARY.keys())
@pytest.mark.parametrize("dec", [householder.decompose, householder.decompose_reversed])
def test_every_rejection_of_a_finite_square_input_is_not_unitary(dec, m, tol):
    with pytest.raises(householder.NotUnitaryError) as info:
        dec(m, numkit.Tolerances(tol))
    if tol == numkit.DEFAULT_TOLERANCES.unitarity_tol:
        assert re.match(r"unitarity defect at level \d+: .* \(bound 2\.0e-10\)$",
                        str(info.value))


def test_factorization_records_store_no_redundant_field():
    # The pivot phases are read off the stack, not stored beside it.
    def names(cls):
        return [field.name for field in dataclasses.fields(cls)]

    assert names(householder.HouseholderFactorization) == ["pivots", "residual", "ordering", "dim"]
    assert names(coset.CosetFactorization) == ["pivots", "terminal_phases", "ordering", "dim"]
    assert isinstance(householder.HouseholderFactorization.pivot_phases, property)


@pytest.mark.parametrize("dim", [2.0, True, np.float64(3), "2", None],
                         ids=["float", "bool", "np.float64", "str", "none"])
def test_records_reject_a_dim_that_is_not_an_integer(dim):
    # (2,) == (2.0,), so a shape check alone would store such a dim as given.
    n = 2 if dim is None else int(dim)
    f = householder.decompose(np.eye(n))
    cf = coset.cosets_from_householder(f)
    builds = [
        lambda: householder.PhaseDiagonal(np.ones(n), dim),
        lambda: householder.HouseholderFactorization(f.pivots, f.residual, f.ordering, dim),
        lambda: coset.CosetFactorization(cf.pivots, cf.terminal_phases, cf.ordering, dim),
        lambda: coset.CosetVector(np.zeros(n - 1), 1, dim, 1.0),
        lambda: householder.Reflection(np.ones(n), 1, dim),
        lambda: coset.Generator(np.zeros(n - 1), dim, 1),
    ]
    for build in builds:
        with pytest.raises(numkit.DimensionMismatchError):
            build()


def small_float_literals(src_dir):
    """``file:line`` of every float literal with 0 < |v| < 1e-6 in the package
    sources that is not the whole value of a module-level constant of
    numkit.py or the default of a ``Tolerances`` field."""
    found = []
    for path in sorted(Path(src_dir).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = set()
        if path.name == "numkit.py":
            bodies = [tree.body] + [node.body for node in tree.body
                                    if isinstance(node, ast.ClassDef) and node.name == "Tolerances"]
            named = {id(stmt.value) for body in bodies for stmt in body
                     if isinstance(stmt, (ast.Assign, ast.AnnAssign))}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0.0 < abs(node.value) < 1e-6 and id(node) not in named]
    return found


def test_every_fixed_bound_is_named_once():
    assert small_float_literals(Path(numkit.__file__).parent) == []


# Levels that are not integers, a tolerance or scalar that is not a real
# number, a tol, phase, record, factor, X, generator, reflection or rng
# argument of the wrong type, KS samples that are not 1-D and finite, and a
# cdf that is not callable or gives other than one finite value per sample:
# each is a typed error, not a TypeError or AttributeError from using it, a
# quiet default, a broadcast or NaN statistic, and a bool level is not stored
# as given.
# A reversed record of either kind is the wrong ordering before it is the
# wrong type.
COLUMN = np.array([1.0, 0.0, 0.0])
U3 = np.eye(3)
KS_SAMPLES = (np.arange(10) + 0.5) / 10
F3 = householder.decompose(U3)
CF3 = coset.cosets_from_householder(F3)
NOT_INTEGER = {
    "column-float": (lambda: householder.pivot_from_column(COLUMN, 1.5),
                     numkit.DimensionMismatchError),
    "column-np.float64": (lambda: householder.pivot_from_column(COLUMN, np.float64(1.0)),
                          numkit.DimensionMismatchError),
    "column-bool": (lambda: householder.pivot_from_column(COLUMN, True),
                    numkit.DimensionMismatchError),
    "reflection-float": (lambda: householder.Reflection(np.array([0.0, 2.0, 0.0]), 1.5, 3),
                         numkit.DimensionMismatchError),
    "reflection-bool": (lambda: householder.Reflection(np.array([2.0, 0.0]), True, 2),
                        numkit.DimensionMismatchError),
    "factor-float": (lambda: coset.CosetFactor(matrix=np.eye(3), level=1.5),
                     numkit.DimensionMismatchError),
    "factor-bool": (lambda: coset.CosetFactor(matrix=np.eye(3), level=True),
                    numkit.DimensionMismatchError),
    "vector-float": (lambda: coset.CosetVector(np.zeros(1), 1.5, 3, 1.0),
                     numkit.DimensionMismatchError),
    "vector-bool": (lambda: coset.CosetVector(np.zeros(1), True, 2, 1.0),
                    numkit.DimensionMismatchError),
    "generator-bool": (lambda: coset.Generator(np.zeros(1), 2, True),
                       numkit.DimensionMismatchError),
    "tolerance-str": (lambda: numkit.Tolerances(unitarity_tol="1e-10"), numkit.DomainError),
    "tolerance-none": (lambda: numkit.Tolerances(unitarity_tol=None), numkit.DomainError),
    "tolerance-complex": (lambda: numkit.Tolerances(unitarity_tol=1e-10j), numkit.DomainError),
    "tolerance-bool": (lambda: numkit.Tolerances(unitarity_tol=True), numkit.DomainError),
    "decompose-tol-float": (lambda: householder.decompose(U3, 1e-8), numkit.DomainError),
    "decompose-tol-zero": (lambda: householder.decompose(U3, 0), numkit.DomainError),
    "decompose-reversed-tol-float": (lambda: householder.decompose_reversed(U3, 1e-8),
                                     numkit.DomainError),
    "column-tol-float": (lambda: householder.pivot_from_column(COLUMN, 1, 1e-8),
                         numkit.DomainError),
    "householder-phases-array": (
        lambda: householder.HouseholderFactorization(F3.pivots, np.ones(3), "forward", 3),
        numkit.DomainError),
    "coset-phases-none": (lambda: coset.CosetFactorization(CF3.pivots, None, "forward", 3),
                          coset.MalformedFactorError),
    "vector-rho-str": (lambda: coset.CosetVector(np.zeros(1), 1, 2, "a"), coset.RhoRangeError),
    "vector-rho-none": (lambda: coset.CosetVector(np.zeros(1), 1, 2, None), coset.RhoRangeError),
    "vector-rho-complex": (lambda: coset.CosetVector(np.zeros(1), 1, 2, 1 + 0j),
                           coset.RhoRangeError),
    "gamma-modulus-str": (lambda: coset.Gamma("x", 0.0), coset.RhoRangeError),
    "gamma-from-rho-str": (lambda: coset.gamma_from_rho("x", 0.0), coset.RhoRangeError),
    "gamma-from-rho-phase-str": (lambda: coset.gamma_from_rho(0.5, "x"), numkit.DomainError),
    "u2-str": (lambda: coset.coset_u2_explicit("a", 0.1), numkit.DomainError),
    "u3-none": (lambda: coset.coset_u3_explicit(None, 0, 0, 0), numkit.DomainError),
    "ks-nan": (lambda: haar.ks_statistic([np.nan, 0.2], lambda x: x), numkit.DomainError),
    "ks-2d": (lambda: haar.ks_statistic([[0.1, 0.9]], lambda x: x), numkit.DomainError),
    "ks-two-sample-nan": (lambda: haar.ks_statistic_two_sample([0.5], [np.nan]),
                          numkit.DomainError),
    "reconstruct-matrix": (lambda: householder.reconstruct(U3), numkit.DomainError),
    "reconstruct-coset": (lambda: householder.reconstruct(CF3), numkit.DomainError),
    "compose-householder": (lambda: coset.compose_cosets(F3), numkit.DomainError),
    "cosets-from-matrix": (lambda: coset.cosets_from_householder(U3), numkit.DomainError),
    "cosets-from-coset": (lambda: coset.cosets_from_householder(CF3), numkit.DomainError),
    "cosets-reversed-from-coset": (lambda: coset.cosets_from_householder_reversed(CF3),
                                   coset.WrongOrderingError),
    "extract-householder": (lambda: coset.extract_coset_vector(F3), numkit.DomainError),
    "haar-unitary-rng": (lambda: haar.haar_unitary(3, np.random.default_rng(0)),
                         numkit.DomainError),
    "haar-validate-rng": (lambda: haar.haar_validate(2, 1000, 0), numkit.DomainError),
    "sample-ball-rng": (lambda: haar.sample_ball(4, None), numkit.DomainError),
    "haar-oracle-rng": (lambda: haar.haar_oracle(2, "rng"), numkit.DomainError),
    "factor-from-str": (lambda: coset.coset_matrix_from_X("X"), numkit.DomainError),
    "normal-from-str": (lambda: coset.normal_from_coset_vector("X", 0.0), numkit.DomainError),
    "generator-matrix-str": (lambda: coset.generator_matrix("B"), numkit.DomainError),
    "exp-coset-str": (lambda: coset.exp_coset("B"), numkit.DomainError),
    "reflect-matrix-str": (lambda: householder.reflect_matrix("R"), numkit.DomainError),
    "apply-reflection-str": (lambda: householder.apply_reflection("R", np.eye(3)),
                             numkit.DomainError),
    "ks-cdf-one-value": (lambda: haar.ks_statistic(KS_SAMPLES, lambda t: 0.5),
                         numkit.DomainError),
    "ks-cdf-wrong-length": (lambda: haar.ks_statistic(KS_SAMPLES, lambda t: t[:1]),
                            numkit.DomainError),
    "ks-cdf-not-callable": (lambda: haar.ks_statistic(KS_SAMPLES, 0.5), numkit.DomainError),
    "ks-cdf-nan": (lambda: haar.ks_statistic(KS_SAMPLES, lambda t: t * np.nan),
                   numkit.DomainError),
}


@pytest.mark.parametrize("build, error", NOT_INTEGER.values(), ids=NOT_INTEGER.keys())
def test_levels_are_integers_and_tolerances_real(build, error):
    with pytest.raises(error):
        build()
    # numpy integers and floats stay accepted.
    assert householder.pivot_from_column(COLUMN, np.int64(1))[0].level == 1
    assert numkit.Tolerances(np.float64(1e-6)).unitarity_tol == 1e-6
