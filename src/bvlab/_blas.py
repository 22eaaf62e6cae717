"""Run a block on one thread of NumPy's bundled OpenBLAS.

bvlab's hot loops multiply matrices of a few dozen to a few hundred rows,
where a second BLAS thread costs more in hand-off than it saves and, beside
a busy process, slows a loop down severalfold.  The thread count is a
runtime setting of the library, so it is changed around the loop and
restored after it; an environment variable would come too late once NumPy
is imported.  Results do not depend on the count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from typing import Callable, Iterator, Optional

import numpy as np

_LIBRARY_GLOB = "libscipy_openblas64_*"
_GET_SYMBOL = "scipy_openblas_get_num_threads64_"
_SET_SYMBOL = "scipy_openblas_set_num_threads64_"


@functools.cache
def _thread_controls() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """The (get, set) thread-count functions, or None without the library."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, _LIBRARY_GLOB))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = getattr(lib, _GET_SYMBOL), getattr(lib, _SET_SYMBOL)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def single_blas_thread() -> Iterator[None]:
    """Set OpenBLAS to one thread for the block, then restore the old count.

    Does nothing when NumPy does not bundle OpenBLAS or the library lacks
    the thread-count symbols.
    """
    controls = _thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
