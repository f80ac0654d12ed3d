"""The BLAS a golden comparison ran on, named in the message of a mismatch.

The solver and scan goldens hold byte for byte for one numpy version and
one OpenBLAS kernel (tests/golden/README.md), so a mismatch says which it
ran on: another kernel sums in another order, which is not a regression.
"""

import ctypes
import glob
import os

import numpy as np


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked at run time, read as the
    CI step reads it; "unknown" when there is no such symbol."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        get = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    get.restype = ctypes.c_char_p
    return get().decode()


def golden_mismatch(name: str) -> str:
    # a requested core is named too: OpenBLAS may serve it with another one's
    # kernels (numpy 2.4.6's OpenBLAS runs Haswell's for Zen)
    core = openblas_core()
    if os.environ.get("OPENBLAS_CORETYPE"):
        core += f" (OPENBLAS_CORETYPE={os.environ['OPENBLAS_CORETYPE']})"
    return (f"output differs from tests/golden/{name} on numpy {np.__version__}, "
            f"OpenBLAS core {core}; tests/golden/README.md names the platform the "
            "goldens hold on")
