"""Command-line entry point for `python -m bhspectra` and the `bhspectra` script.

numpy starts an OpenBLAS worker pool on import, one thread per core by
default. No bhspectra operation gains from BLAS threads, and an idle worker
spins, so the CLI defaults OPENBLAS_NUM_THREADS to 1 before it imports numpy.
A value the caller set wins. Library users (`import bhspectra`) keep their own
BLAS settings.
"""

import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
