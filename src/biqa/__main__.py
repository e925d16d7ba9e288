"""`python -m biqa` and the `biqa` console script.

Pins each BLAS pool to one thread before numpy is first imported: at the
scorer's matrix sizes more threads only compete for cores. A value already
in the environment wins, and library imports leave the environment alone.
Importing this module loads only os, so the test suite's conftest.py pins
through the same function.
"""

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Set each BLAS thread-count variable to 1 unless it is already set."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")


def main() -> None:
    pin_blas_threads()
    from .cli import main as cli_main

    cli_main()


if __name__ == "__main__":
    main()
