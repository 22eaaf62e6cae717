"""NumPy's bundled OpenBLAS: one-thread blocks and an inverse Cholesky factor.

bvlab's hot loops multiply matrices of a few dozen to a few hundred rows,
where a second BLAS thread costs more in hand-off than it saves and, beside
a busy process, slows a loop down severalfold.  The thread count is a
runtime setting of the library, so it is changed around the loop and
restored after it; an environment variable would come too late once NumPy
is imported.  Matrix products give the same bits at any count, but a dot
product (``ddot``, used by ``np.vdot``) of more than 10,000 entries sums in
one part per thread, so its bits depend on the count.

NumPy has no triangular inverse, but the scipy-openblas library of NumPy 2
wheels exports all of LAPACK: :func:`inverse_cholesky` binds its ``dpotrf``
and ``dtrtri`` through ctypes on first use.  Where NumPy bundles no such
library (NumPy 1.x, MKL or Accelerate builds), it takes
``np.linalg.inv(np.linalg.cholesky(a))`` instead, equal but for the last bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from typing import Any, Callable, Iterator, Optional

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
def _library() -> Optional[ctypes.CDLL]:
    """NumPy's bundled scipy-openblas, or None where NumPy bundles none."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, _LIBRARY_GLOB))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _symbols(*names: str) -> Optional[list[Any]]:
    """The library's functions of these names, or None if it or one is missing."""
    try:
        return [getattr(_library(), name) for name in names]
    except AttributeError:  # also raised by None, the missing library
        return None


@functools.cache
def _thread_controls() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """The (get, set) thread-count functions, or None without the library."""
    symbols = _symbols(_GET_SYMBOL, _SET_SYMBOL)
    if symbols is None:
        return None
    get, set_ = symbols
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@functools.cache
def _lapack() -> Optional[tuple[Any, Any]]:
    """LAPACK's (dpotrf, dtrtri) from the library, or None without them."""
    symbols = _symbols("scipy_dpotrf_64_", "scipy_dtrtri_64_")
    if symbols is None:
        return None
    potrf, trtri = symbols
    char, int64_p = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64)
    # (uplo, n, a, lda, info) and (uplo, diag, n, a, lda, info) with 64-bit
    # integers, then the length of each character argument.
    potrf.argtypes = [char, int64_p, ctypes.c_void_p, int64_p, int64_p, ctypes.c_size_t]
    trtri.argtypes = [char, char, int64_p, ctypes.c_void_p, int64_p, int64_p,
                      ctypes.c_size_t, ctypes.c_size_t]
    potrf.restype = trtri.restype = None
    return potrf, trtri


@functools.lru_cache(maxsize=None)
def _above_diagonal(n: int) -> np.ndarray:
    """The n x n boolean mask of the entries above the diagonal."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)  # shared by every caller through the cache
    return mask


def inverse_cholesky(a: np.ndarray) -> np.ndarray:
    """The lower-triangular ``K = C^-1`` for the Cholesky factorization ``a = C C^T``.

    ``a``, a C-contiguous positive definite float64 matrix, is read only in
    its lower triangle and may be overwritten by K.  Raises ``ValueError``
    for another dtype or shape and ``np.linalg.LinAlgError`` if a is not
    positive definite.
    """
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square float64 matrix, got {a.dtype} of shape {a.shape}")
    routines = _lapack()
    if routines is None:
        return np.linalg.inv(np.linalg.cholesky(a))
    potrf, trtri = routines
    n, info = ctypes.c_int64(a.shape[0]), ctypes.c_int64()
    # Column-major LAPACK sees a^T: its upper triangle is a's lower one.
    data = ctypes.byref(ctypes.c_char.from_buffer(a))  # C-contiguous and writable
    potrf(b"U", n, data, n, info, 1)
    if not info.value:
        trtri(b"U", b"N", n, data, n, info, 1, 1)
    if info.value:
        raise np.linalg.LinAlgError(f"Matrix is not positive definite (LAPACK info {info.value})")
    np.copyto(a, 0.0, where=_above_diagonal(a.shape[0]))
    return a


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
