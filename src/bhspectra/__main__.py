"""Command-line entry point for `python -m bhspectra` and the `bhspectra` script.

numpy starts an OpenBLAS worker pool on import, one thread per core by
default. No bhspectra operation gains from BLAS threads, and an idle worker
spins, so the CLI defaults OPENBLAS_NUM_THREADS to 1 before it imports numpy.
A value the caller set wins.

numpy.random imports hashlib (bit_generator -> secrets -> hmac), and hashlib
maps OpenSSL's libcrypto through _hashlib: ~3.6 MB of resident memory that
no command uses (the manifest hash takes the builtin sha256, see cli). Of the
commands, verify and typicality import numpy.random; cascade loads no numpy
at all. So the CLI blocks _hashlib before numpy loads (a None entry in
sys.modules makes its import fail), and hashlib and hmac take the
interpreter's builtin hash modules instead. The block is set only where
_hashlib is not loaded yet and every builtin module hashlib falls back to
exists; where one is missing, hashlib would log an error for each hash it
cannot build. Library users (`import bhspectra`) keep their BLAS settings
and their OpenSSL hashes.

When the command returns, the entry point freezes the heap (`gc.freeze()`).
Interpreter exit runs forced passes of the cyclic collector over every live
object, ~22k after numpy's import: 20-25 ms of finalization in a spectrum
run, against 5-6 ms once they sit in the permanent generation (2 shared
cores, Python 3.11). The commands that load numpy are spectrum, verify and
typicality; a cascade run, which loads none, ends with ~14k objects. atexit
handlers and the flushing of stdio still run. This relies on one rule: every
output file is closed explicitly (a `with` block or `write_text`) before
`main` returns, so no byte waits on a finalizer. Calling `bhspectra.cli.main`
in process leaves the caller's collector alone.
"""

import gc
import importlib.util
import os
import sys

# The builtin modules hashlib builds its always-supported hashes from when
# _hashlib cannot be imported (sha256 and sha512 share _sha2 from Python 3.12).
_BUILTIN_HASHES = ("_md5", "_sha1", "_blake2", "_sha3",
                   *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")))


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if "_hashlib" not in sys.modules and all(map(importlib.util.find_spec, _BUILTIN_HASHES)):
        sys.modules["_hashlib"] = None
    from .cli import main as cli_main

    try:
        return cli_main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
