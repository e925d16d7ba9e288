"""Pin BLAS to one thread per pool before any test module loads numpy.

Pytest does not go through biqa's entry point, so without this OpenBLAS
starts one thread per CPU and they compete with the harness's worker
threads. A value the caller set is kept.
"""

import os
import sys

import pytest

from biqa import __main__ as entry

CALLER_BLAS = {var: os.environ.get(var) for var in entry.BLAS_VARS}
NUMPY_BEFORE_PIN = "numpy" in sys.modules
entry.pin_blas_threads()


@pytest.fixture(scope="session")
def blas_pin() -> tuple[dict, bool]:
    """The BLAS variables as the caller set them (None if unset), and
    whether numpy had loaded before the pin."""
    return CALLER_BLAS, NUMPY_BEFORE_PIN
