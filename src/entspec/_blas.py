"""The package's one BLAS thread setting.

numpy's wheels ship OpenBLAS, which by default splits a call over every core
once it passes a small size: the many small Grams of a sweep then spend CPU
in a second thread that mostly spins, and a dot product over more than about
10000 elements changes its last bits with the thread count.  `blas_threads`
sets the count for the calls in its body and restores the caller's count on
exit.  Where numpy's OpenBLAS or its `openblas_set_num_threads_local` is
absent (another BLAS, an older OpenBLAS), it changes nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

import numpy as np


@functools.cache
def _setter():
    """`openblas_set_num_threads_local` of the OpenBLAS that numpy loaded, or
    None; looked up on first use, so importing the package opens nothing."""
    root = os.path.dirname(np.__file__)
    for path in sorted(
        glob.glob(os.path.join(root + ".libs", "*openblas*"))  # Linux, Windows
        + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))  # macOS
    ):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int  # the count it replaced
        return setter
    return None


@contextmanager
def blas_threads(count: int | None):
    """Run the body at `count` OpenBLAS threads and yield the caller's count.

    With `count` None, or without the OpenBLAS symbol, yield None and change
    nothing; so `blas_threads(caller)` inside `blas_threads(1) as caller`
    restores the caller's count when there is one.
    """
    set_threads = None if count is None else _setter()
    if set_threads is None:
        yield None
        return
    previous = set_threads(count)
    try:
        yield previous
    finally:
        set_threads(previous)
