"""`python -m biqa` and the `biqa` console script.

Pins each BLAS pool to one thread before numpy is first imported: at the
scorer's matrix sizes more threads only compete for cores. A value already
in the environment wins, and library imports leave the environment alone.
"""

import os


def main() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main

    cli_main()


if __name__ == "__main__":
    main()
