"""Householder and canonical coset decompositions of unitary matrices.

The package factors unitary matrices into Householder reflections (forward,
column-clearing, or reversed, row-clearing order), converts the reflections
into canonical coset factors parametrized by ball coordinates, and samples
Haar-distributed unitary matrices by drawing those coordinates uniformly.

``import ucoset`` loads none of its modules.  Each public name, and each of
the modules ``numkit``, ``householder``, ``coset`` and ``haar``, is resolved
on first use (PEP 562), so ``ucoset.X`` is the defining module's ``X`` and a
process that uses only the Householder factorization never imports the coset
or Haar modules.  ``_NAMES`` below is the one list of public names: each
module reads its ``__all__`` from its entry, and ``__all__`` here lists
every entry in that order, a name two modules export once.
"""

__version__ = "0.1.0"

# The one list of public names: each module's __all__, re-exports included,
# which the module reads from here.  A name's home is the first module that
# lists it, so ucoset.DomainError loads only numkit.
_NAMES = {
    "numkit": "ComplexMatrix ComplexVector Tolerances DEFAULT_TOLERANCES UcosetError "
              "NonSquareError DimensionMismatchError DomainError unitarity_error expm_series",
    "householder": "FORWARD REVERSED Reflection PhaseDiagonal HouseholderFactorization "
                   "NotUnitaryError PhaseError NotUnitLengthError LeadingComponentsNonzeroError "
                   "DimensionMismatchError DomainError reflect_matrix pivot_from_column "
                   "apply_reflection decompose decompose_reversed reconstruct",
    "coset": "CosetVector Gamma CosetFactor CosetFactorization Generator WrongOrderingError "
             "MalformedFactorError BallViolationError RhoRangeError DomainError "
             "cosets_from_householder cosets_from_householder_reversed compose_cosets "
             "extract_coset_vector coset_matrix_from_X gamma_from_rho normal_from_coset_vector "
             "generator_matrix exp_coset coset_u2_explicit coset_u3_explicit",
    "haar": "RngStream Gate SampleReport OddDimensionError InvalidDimError TooFewSamplesError "
            "InvalidCountError sample_ball haar_unitary_batch haar_unitary haar_oracle "
            "haar_validate ks_statistic ks_statistic_two_sample",
}
_HOMES = {name: module for module, names in reversed(_NAMES.items()) for name in names.split()}

__all__ = list(dict.fromkeys(" ".join(_NAMES.values()).split()))


def __getattr__(name):
    home = name if name in _NAMES else _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in python -X importtime.
    __import__(f"{__name__}.{home}")
    if home != name:
        globals()[name] = getattr(globals()[home], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_NAMES})
