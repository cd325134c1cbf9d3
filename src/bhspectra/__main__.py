"""Command-line entry point for `python -m bhspectra` and the `bhspectra` script.

numpy starts an OpenBLAS worker pool on import, one thread per core by
default. No bhspectra operation gains from BLAS threads, and an idle worker
spins, so the CLI defaults OPENBLAS_NUM_THREADS to 1 before it imports numpy.
A value the caller set wins. Library users (`import bhspectra`) keep their own
BLAS settings.

When the command returns, the entry point freezes the heap (`gc.freeze()`).
Interpreter exit runs forced passes of the cyclic collector over every live
object, ~22k after numpy's import: 20-25 ms of finalization in a cascade or
spectrum run, against 5-6 ms once they sit in the permanent generation
(2 shared cores, Python 3.11). atexit handlers and the flushing of stdio
still run. A collection of the two young generations (under 1.2 ms) first
frees the command's last cyclic garbage, such as json's encoder closures;
frozen with the rest, it raised a cascade run's peak RSS by ~0.12 MB. This
relies on one rule: every output file is closed explicitly (a `with` block or
`write_text`) before `main` returns, so no byte waits on a finalizer. Calling
`bhspectra.cli.main` in process leaves the caller's collector alone.
"""

import gc
import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    try:
        return cli_main()
    finally:
        gc.collect(1)
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
