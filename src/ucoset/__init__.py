"""Householder and canonical coset decompositions of unitary matrices.

The package factors unitary matrices into Householder reflections (forward,
column-clearing, or reversed, row-clearing order), converts the reflections
into canonical coset factors parametrized by ball coordinates, and samples
Haar-distributed unitary matrices by drawing those coordinates uniformly.
"""

from . import coset, haar, householder, numkit
from .numkit import *  # noqa: F401,F403
from .householder import *  # noqa: F401,F403
from .coset import *  # noqa: F401,F403
from .haar import *  # noqa: F401,F403

__version__ = "0.1.0"

# The public names are the modules' own; a name two modules export is one object.
__all__ = list(dict.fromkeys(
    name for module in (numkit, householder, coset, haar) for name in module.__all__))
