"""The bitwise stack-equals-lone tests, re-run under each numpy SIMD cap.

A Haar stack equals as many lone draws bit for bit, a vector reflects to the
bits it has as a column of a matrix, and a lone coset factor reads the X of
its row of a stack, only while both sides go through inner loops that round
alike: numpy may round a complex product of single entries apart from one
over a row, fusing the multiply-add in one loop and not in the other.
numpy picks those loops by CPU at import, so the tests below re-run in a
fresh interpreter under ``NPY_DISABLE_CPU_FEATURES``, once for each dispatch
target this CPU has, naming it and every target after it: numpy then runs
the loops of the level below.  The child confirms from ``__cpu_features__``
that the cap took effect, and a cap that does not (a numpy that does not
read the variable) is skipped.

The N = 2 draw, in both Haar tests, takes its one ball's radius power 1/2 as
``np.sqrt``, which rounds correctly for a lone value as for a stack; ``pow``
on an exponent array may not (``haar._ball_points``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ucoset

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

TESTS = Path(__file__).resolve().parent

BITWISE = [
    "test_haar.py::TestHaarUnitaryBatch::test_equals_successive_single_draws",
    "test_haar.py::TestRank1Draws",
    "test_householder.py::TestApplyReflection::test_vector_is_its_column_of_the_matrix_bit_for_bit",
    "test_coset.py::TestStackRead",
]

# Each dispatch target this CPU has, with every later one it has: numpy
# lists its targets from the lowest level up.
_DISPATCH = list(getattr(_umath, "__cpu_dispatch__", ()))
_FEATURES = getattr(_umath, "__cpu_features__", {})
CAPS = [[t for t in _DISPATCH[i:] if _FEATURES.get(t)]
        for i, t in enumerate(_DISPATCH) if _FEATURES.get(t)]

# The child's exit code when a capped feature still reads as available.
NOT_APPLIED = 100

CHILD = f"""
import sys
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
if any(umath.__cpu_features__.get(t) for t in sys.argv[1].split()):
    sys.exit({NOT_APPLIED})
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


@pytest.mark.parametrize("cap", CAPS, ids=" ".join)
def test_bitwise_tests_pass_under_the_cap(cap):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ucoset.__file__)))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(cap))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, " ".join(cap),
                           *(str(TESTS / t) for t in BITWISE)],
                          capture_output=True, text=True, env=env, cwd=TESTS.parent)
    if proc.returncode == NOT_APPLIED:
        pytest.skip(f"this numpy does not apply NPY_DISABLE_CPU_FEATURES={' '.join(cap)}")
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
