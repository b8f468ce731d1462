"""The package's one BLAS thread setting.

numpy's wheels ship OpenBLAS, which by default splits a call over every core
once it passes a small size: the many small Grams of a sweep then spend CPU
in a second thread that mostly spins, and a reduction changes its last bits
with the thread count (under some kernels a complex Gram too).  So every
BLAS call of the package runs at one thread, through `blas_threads`, which
sets the count on entry and restores the caller's count on exit; the caller's
count only sizes the workers of `purity._deal`.  OpenBLAS keeps one count for
the whole process, `openblas_set_num_threads_local` included, so the count
holds for every thread's calls, not only the body's; `blas_threads` holds one
module lock from the set to the restore, so two threads' scopes run one
after the other and neither restores a count under the other's body.  Where
numpy's OpenBLAS or that symbol is absent (another BLAS, an older OpenBLAS),
it changes nothing.

OpenBLAS also keeps its idle workers busy-waiting for about 2^28 cycles
(about 0.1 s) after start-up and after every threaded call, before they
sleep; with every call on one thread that spin is only lost CPU, paid by
each CLI run.  OpenBLAS reads `OPENBLAS_THREAD_TIMEOUT` (clamped to 4..30,
the log2 of that wait) once, when numpy loads it, so this module sets it to
4 before its own `import numpy`: an idle worker then sleeps at once, and a
threaded call still wakes it and splits the work the same way, so no result
bit changes.  A value the user set wins.  The variable is removed again once
numpy has loaded, so the environment that child processes inherit is left as
found.  It acts only when entspec is what loads numpy: if numpy was imported
first, the setting does nothing and harms nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager

_TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"
_set_timeout = _TIMEOUT not in os.environ
if _set_timeout:
    os.environ[_TIMEOUT] = "4"  # the least wait: idle workers sleep at once
try:
    import numpy as np
finally:
    if _set_timeout:
        del os.environ[_TIMEOUT]


@functools.cache
def _library():
    """The OpenBLAS that numpy loaded, the first of its libraries with
    `openblas_set_num_threads_local`, or None; opened on first use, so
    importing the package opens nothing."""
    root = os.path.dirname(np.__file__)
    for path in sorted(
        glob.glob(os.path.join(root + ".libs", "*openblas*"))  # Linux, Windows
        + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))  # macOS
    ):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(library, "openblas_set_num_threads_local"):
            return library
    return None


@functools.cache
def _setter():
    """`openblas_set_num_threads_local` of `_library()`, or None."""
    setter = getattr(_library(), "openblas_set_num_threads_local", None)
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int  # the count it replaced
    return setter


_LOCK = threading.RLock()  # held by one scope of `blas_threads` at a time


@contextmanager
def blas_threads(count: int):
    """Run the body at `count` OpenBLAS threads and yield the caller's count;
    without the OpenBLAS symbol, yield None and change nothing.  The body
    holds `_LOCK`: a scope of another thread waits for it, a nested scope of
    the same thread does not, so a thread that the body waits on must not
    enter one."""
    set_threads = _setter()
    with _LOCK:
        previous = None if set_threads is None else set_threads(count)
        try:
            yield previous
        finally:
            if set_threads is not None:
                set_threads(previous)
