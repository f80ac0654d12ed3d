"""The BLAS a golden comparison ran on, named in the message of a mismatch.

The solver and scan goldens hold byte for byte for one numpy version and
one OpenBLAS kernel (tests/golden/README.md), so a mismatch says which it
ran on: another kernel sums in another order, which is not a regression.
Run as a script, it prints numpy's version and OpenBLAS's config and core,
the report CI prints before its tests.
"""

import ctypes
import glob
import os

import numpy as np


def _openblas(what: str) -> str:
    """What numpy's bundled OpenBLAS reports for `what` ("config" or
    "corename") through scipy_openblas_get_<what>64_; "unknown" when there
    is no such symbol."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        get = getattr(ctypes.CDLL(libs[0]), f"scipy_openblas_get_{what}64_")
    except (IndexError, OSError, AttributeError):
        return "unknown"
    get.restype = ctypes.c_char_p
    return get().decode()


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked at run time."""
    return _openblas("corename")


def golden_mismatch(name: str) -> str:
    # a requested core is named too: OpenBLAS may serve it with another one's
    # kernels (numpy 2.4.6's OpenBLAS runs Haswell's for Zen)
    core = openblas_core()
    if os.environ.get("OPENBLAS_CORETYPE"):
        core += f" (OPENBLAS_CORETYPE={os.environ['OPENBLAS_CORETYPE']})"
    return (f"output differs from tests/golden/{name} on numpy {np.__version__}, "
            f"OpenBLAS core {core}; tests/golden/README.md names the platform the "
            "goldens hold on")


if __name__ == "__main__":
    print("numpy", np.__version__)
    for what in ("config", "corename"):
        print(f"openblas {what}:", _openblas(what))
