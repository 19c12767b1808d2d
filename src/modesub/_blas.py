"""One BLAS thread for the Schmidt solve, and the BLAS a run used.

The solve path (:func:`~modesub.kernel.kernel_gram`, and
:func:`~modesub.schmidt.decompose` or the scan's eigenvalue-only solve)
hands BLAS only small problems: a syrk per block of about 420 x 49
samples and one ``eigh`` per parity block of about 25 x 25, or for the
scan one ``eigvalsh`` where the blocks' traces allow.  A second OpenBLAS
thread does not pay for itself there, and after each call it spin-waits
on the other core, which slows the numpy passes that follow (the
sampler's and the solve's) by up to 3.5x on a two-core machine.
:func:`one_blas_thread` runs a call at one thread and puts the count back
afterwards.

The thread count is set through the OpenBLAS that numpy's wheels bundle in
``numpy.libs`` (``libscipy_openblas*``), found on first use, so importing
the package loads no library.  With any other BLAS (Accelerate, MKL, a
system OpenBLAS) nothing is found and the helper does nothing.  The count
is process-wide: solves running in several Python threads at once share it.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# the variables that set BLAS and OpenMP thread counts at library load
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    or None when numpy links another BLAS."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix in ("64_", ""):
            names = (f"scipy_openblas_get_num_threads{suffix}",
                     f"scipy_openblas_set_num_threads{suffix}")
            if all(hasattr(lib, name) for name in names):
                getter, setter = (getattr(lib, name) for name in names)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS runs now; None for another BLAS."""
    found = _openblas()
    return None if found is None else found[0]()


@contextmanager
def one_blas_thread():
    """Run the block, or the decorated function, at one OpenBLAS thread.

    The count in force on entry is restored on exit, also when the block
    raises, so nested uses compose.  Without a bundled OpenBLAS it does
    nothing.
    """
    found = _openblas()
    if found is None:
        yield
        return
    get, set_threads = found
    saved = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(saved)


@functools.cache
def environment() -> dict:
    """numpy, its BLAS, the BLAS threads outside the solve, whether the
    solve ran at one thread, the CPU count and each of
    :data:`THREAD_VARIABLES` (None when unset); read once per process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 has no "dicts" mode
        blas = {}
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "solve_single_thread": _openblas() is not None,
            "nproc": os.cpu_count(),
            **{name: os.environ.get(name) for name in THREAD_VARIABLES}}
