"""Package-wide contracts: one list of public names, typed errors."""

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
    "tolerance": lambda: numkit.Tolerances(reconstruction_tol=0.0),
    "seed": lambda: haar.RngStream(-1),
    "stream": lambda: haar.RngStream(0, 2 ** 64),
    "matrix-nonfinite": lambda: numkit.unitarity_error(np.array([[np.nan]])),
    "matrix-empty": lambda: numkit.unitarity_error(np.zeros((0, 0))),
    "ks-empty": lambda: haar.ks_statistic([], lambda x: x),
    "ks-two-sample-empty": lambda: haar.ks_statistic_two_sample([0.5], []),
}


@pytest.mark.parametrize("build", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises_typed_error(build):
    with pytest.raises(UcosetError):
        build()
