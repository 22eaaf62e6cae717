"""Run a block on one thread of NumPy's bundled OpenBLAS.

bvlab's hot loops multiply matrices of a few dozen to a few hundred rows,
where a second BLAS thread costs more in hand-off than it saves and, beside
a busy process, slows a loop down severalfold.  The thread count is a
runtime setting of the library, so it is changed around the loop and
restored after it; an environment variable would come too late once NumPy
is imported.  Matrix products give the same bits at any count, but a dot
product (``ddot``, used by ``np.vdot``) of more than 10,000 entries sums in
one part per thread, so its bits depend on the count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from typing import Callable, Iterator, Optional

import numpy as np

_LIBRARY_GLOB = "libscipy_openblas64_*"
_GET_SYMBOL = "scipy_openblas_get_num_threads64_"
_SET_SYMBOL = "scipy_openblas_set_num_threads64_"

# The count is one setting of the whole process: the first thread to enter
# single_blas_thread sets it to 1 and the last to leave restores it.
_lock = threading.Lock()
_inside = 0  # threads now inside single_blas_thread, nested entries counted
_previous = 0  # the count to restore when _inside falls back to 0
if hasattr(os, "register_at_fork"):  # no thread holds it across a fork
    os.register_at_fork(before=_lock.acquire, after_in_parent=_lock.release,
                        after_in_child=_lock.release)


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

    Nests, also across threads: the count stays 1 while any thread is inside
    and is restored when the last one leaves.  Does nothing when NumPy does
    not bundle OpenBLAS or the library lacks the thread-count symbols.
    """
    global _inside, _previous
    controls = _thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _lock:
        if not _inside:
            _previous = get()
            set_(1)
        _inside += 1
    try:
        yield
    finally:
        with _lock:
            _inside -= 1
            if not _inside:
                set_(_previous)
