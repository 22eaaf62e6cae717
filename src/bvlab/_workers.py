"""Long-lived forked worker processes that run contiguous index blocks.

:func:`run_blocks` cuts ``range(count)`` into contiguous blocks and runs a
block function on each: block 0 in this process, block ``i`` in worker
``i - 1``.  A worker is forked the first time a split needs it and then
serves every later split of the process, so a split pays one pipe round
trip instead of a fork.  There is at most one worker per extra CPU of
``os.sched_getaffinity(0)``, and worker ``i - 1`` pins itself to the
``i``-th CPU of the mask.  This process is held on the first CPU of its
mask only while a split runs, and its mask is restored after, so that it
still counts every CPU.  Unpinned, a woken worker lands on its parent's CPU;
with only the workers pinned, the parent is woken by a reply on the
worker's CPU, starts the next split there, and the two share one CPU while
another idles (on a 2-vCPU VM, a split ``simulate`` call ran no faster than
one process).  Requests and replies
are pickles sent over one pipe each way, framed by their length; a request
holds the block's bounds, each shared argument whole and only the block's
own slice of each per-index argument (``sliced``).  A worker
exits when its request pipe reaches end of file, i.e. when the parent
closes it (:func:`shutdown`, also run at exit) or dies.

This process also keeps the read end of each worker's request pipe, which
is non-blocking (for the worker too, which waits in ``poll``).  A request
of at most ``select.PIPE_BUF`` bytes, header included, is written in one
atomic write and read in one read, so exactly one side reads it: the
worker, which then runs the block, or this process, which takes it back
and runs the block itself (see :func:`run_timed`).  As that read end keeps
a request pipe open, a dead worker no longer fails a write: a write that
finds the pipe full waits for room or for the worker's reply pipe to hang
up.

Block functions must be module-level functions that pickle by reference
and are not replaced at run time (a replaced module attribute no longer
pickles as the function it wraps).  One split at a time uses the pool: a
split asked for while another runs, from another thread or from inside a
block (in a worker, too), runs all its blocks in its own thread instead,
with the same result.  A worker runs only NumPy, ``pickle`` and ``os``
calls; OpenBLAS stops its thread pool before a fork (``pthread_atfork``),
and no thread holds the lock of :func:`bvlab._blas.single_blas_thread`
across one, so a worker never waits on a lock held by a thread it lacks.

A worker lives as long as this process and holds its own copy-on-write
image of it (70-124 MB peak resident after a benchmark-sized run), so
counting workers by the affinity mask assumes the mask is the CPU share the
process really gets.  :func:`run_timed` splits a call whose requests are
small at once when every worker it needs is already running, and otherwise
sizes a split by its work: it times a lead slice of the units here and
splits only what is left.
"""

from __future__ import annotations

import atexit
import ctypes
import math
import os
import pickle
import select
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ._blas import single_blas_thread

_HEADER = 8  # bytes of the little-endian length before each pickle
# A worker hands its freed heap back to the system after a larger message.
_LARGE = 1 << 20


@dataclass(frozen=True)
class _Worker:
    pid: int
    requests: int  # write end of the worker's request pipe
    replies: int  # read end of its reply pipe
    unread: int  # read end of its request pipe: takes back a request not yet read


_pool: list[Optional[_Worker]] = []  # slot i runs block i + 1; None when dropped
_owner = 0  # the process id whose children the workers in _pool are
_busy = threading.Lock()  # held while a split uses the pool


def available() -> int:
    """Processes a split may use: the CPUs of the affinity mask.

    1 without ``os.fork`` or ``os.sched_getaffinity``.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


# Least estimated work, in microseconds of one core, worth splitting over the
# pool after run_timed's lead slice.  A call whose requests are small skips
# the lead slice once every worker it needs runs (see run_timed), so for the
# Monte Carlo this decides only whether a process without workers forks them;
# the emit and the parse, whose requests are large, are still split by it.
# On a 2-vCPU VM a pool round trip (a small pickled request, the worker woken
# from a pipe read, a small reply) took 38 us in the median between
# back-to-back calls, but after 50 ms of idling 0.5 ms in the median, 2.7 ms
# at the 90th percentile and up to 8 ms: the time to wake a halted vCPU.  A
# two-way split of W us saves about W / 2 minus that, so from 5 ms on it gains
# even at that 90th percentile.  Measured there, Monte Carlo calls of about
# 2.5 ms split ran slower in the mean, while each 40-trial simulate point of
# criterion 03 (10-20 ms) ran 1.5-1.6x faster in a benchmark-like sequence.
# The first split of a process also forks its workers (4-14 ms at 0-250 MB
# resident); a call below the threshold never does.  A split at once pays no
# wake-up: a request still unread when this process's block is done is taken
# back and run here.
MIN_SPLIT_US = 5_000.0


def split_blocks(count: int, unit_us: float) -> int:
    """Processes to split ``count`` units of about ``unit_us`` each over.

    Going from k - 1 to k processes saves ``W / (k (k - 1))`` of W us of
    work; a process is added only while that is at least the wake-up cost
    above, ``MIN_SPLIT_US / 2``.  So a call splits from ``MIN_SPLIT_US`` on,
    takes a third process from three times that, and never wakes more
    processes than its work pays for, however wide the affinity mask.  At
    most ``count`` and :func:`available` processes.
    """
    work = count * unit_us
    limit = min(available(), count)
    blocks = 1
    while blocks < limit and (blocks + 1) * blocks * MIN_SPLIT_US <= 2.0 * work:
        blocks += 1
    return blocks


def _write(fd: int, payload: bytes) -> None:
    """Send the length header and ``payload`` without joining them: a join
    would copy every message, 16 MB for a large dump-parse block.  Up to
    ``select.PIPE_BUF`` bytes in all, this is one atomic write."""
    views = [memoryview(len(payload).to_bytes(_HEADER, "little")), memoryview(payload)]
    while views:
        try:
            done = os.writev(fd, views)
        except BlockingIOError:  # a full request pipe
            _wait_for_room(fd)
            continue
        while views and done >= len(views[0]):
            done -= len(views.pop(0))
        if views:
            views[0] = views[0][done:]


def _wait_for_room(requests: int) -> None:
    """Wait until a worker's request pipe has room; ``BrokenPipeError`` if
    the worker has died, i.e. its reply pipe hung up, meanwhile."""
    worker = next(worker for worker in _pool if worker and worker.requests == requests)
    ready = select.poll()
    ready.register(requests, select.POLLOUT)
    ready.register(worker.replies, 0)  # reports only a hang-up or an error
    if any(fd == worker.replies for fd, _ in ready.poll()):
        raise BrokenPipeError(f"worker process {worker.pid} hung up")


def _read_some(fd: int, view: memoryview, ready: select.poll) -> int:
    """Read what ``fd`` has into ``view``, in one read, waiting until it has
    something; raises ``EOFError`` at end of file."""
    while True:
        try:
            count = os.readv(fd, [view])
        except BlockingIOError:  # an empty request pipe, also once a request is taken back
            ready.poll()
            continue
        if not count:
            raise EOFError("pipe closed")
        return count


def _read(fd: int) -> bytearray:
    """The next message from ``fd``, a reply pipe or a worker's non-blocking
    request pipe.  A message of at most ``select.PIPE_BUF`` bytes comes whole
    from the first read, so a request is never half taken back."""
    ready = select.poll()
    ready.register(fd, select.POLLIN)
    first = bytearray(select.PIPE_BUF)
    got = _read_some(fd, memoryview(first), ready)
    while got < _HEADER:
        got += _read_some(fd, memoryview(first)[got:_HEADER], ready)
    data = bytearray(int.from_bytes(first[:_HEADER], "little"))  # filled in place
    data[:got - _HEADER] = first[_HEADER:got]
    done, view = got - _HEADER, memoryview(data)
    while done < len(data):
        done += _read_some(fd, view[done:], ready)
    return data


def _pin(cpus: set[int]) -> None:
    """Restrict this thread to ``cpus``; best effort, as a CPU may be offline."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _serve(requests: int, replies: int, cpu: int) -> None:
    """A worker's loop: run each requested block and send back its outcome.

    The outcome is ``(True, result)`` or ``(False, exception)``; an outcome
    that does not pickle is replaced by a ``RuntimeError`` naming why.
    Returns at end of file on ``requests``.
    """
    import signal

    # Ctrl-C reaches the whole process group; the parent alone handles it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _pin({cpu})
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
    with single_blas_thread():  # every block a worker runs is part of a split
        while True:
            try:
                request = _read(requests)
            except EOFError:
                return
            size = len(request)
            try:
                fn, lo, hi, args = pickle.loads(request)
                del request  # a large block's bytes are held once, as its arguments
                outcome = (True, fn(lo, hi, *args))
            except Exception as exc:  # noqa: BLE001 -- re-raised by the parent
                outcome = (False, exc)
            try:
                payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # noqa: BLE001
                payload = pickle.dumps((False, RuntimeError(
                    f"block outcome does not pickle: {type(exc).__name__}: {exc}")))
            _write(replies, payload)
            if trim and max(size, len(payload)) > _LARGE:
                request = args = outcome = payload = None  # free the block's memory first
                trim(0)  # glibc keeps a freed heap once a large free raised its mmap threshold


def _start(slot: int, mask: set[int]) -> _Worker:
    """Fork the worker of ``slot``, pinned to CPU ``slot + 1`` of ``mask``."""
    cpus = sorted(mask)
    cpu = cpus[(slot + 1) % len(cpus)]
    request_read, request_write = os.pipe()
    reply_read, reply_write = os.pipe()
    os.set_blocking(request_read, False)  # for the worker too: it shares the open pipe
    os.set_blocking(request_write, False)  # see _write
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for fd in (request_write, reply_read, *_pool_fds()):
                os.close(fd)
            _pool.clear()
            _serve(request_read, reply_write, cpu)
            code = 0
        finally:
            os._exit(code)
    os.close(reply_write)
    return _Worker(pid, request_write, reply_read, request_read)


def _pool_fds() -> list[int]:
    return [fd for worker in _pool if worker
            for fd in (worker.requests, worker.replies, worker.unread)]


def _claim() -> None:
    """Forget workers inherited from a parent process: they are not ours."""
    global _owner
    if _owner != os.getpid():
        for fd in _pool_fds():
            os.close(fd)
        _pool.clear()
        _owner = os.getpid()


def _drop(slot: int, kill: bool) -> str:
    """Close, optionally SIGKILL, and reap the worker of ``slot``; its exit status."""
    worker = _pool[slot]
    if worker is None:
        return "dropped"
    _pool[slot] = None
    for fd in (worker.requests, worker.replies, worker.unread):
        os.close(fd)
    if kill:
        import signal  # here only: importing it costs about 1 ms of set-up

        try:
            os.kill(worker.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    try:
        code = os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1])
    except ChildProcessError:
        return "already reaped"
    return f"killed by signal {-code}" if code < 0 else f"exit status {code}"


def shutdown() -> None:
    """Stop every worker: close its pipes, so that it exits, and reap it.

    Registered with ``atexit``; the next split starts fresh workers.
    """
    _claim()
    for slot, worker in enumerate(_pool):
        if worker:
            _drop(slot, kill=False)
    _pool.clear()


atexit.register(shutdown)


def run_blocks(fn: Callable, count: int, blocks: int, *args, sliced: tuple = ()) -> list:
    """``[fn(lo, hi, *[s[lo:hi] for s in sliced], *args) for (lo, hi) in the
    blocks]``, one block per process.

    ``range(count)`` is cut into ``blocks`` contiguous blocks whose sizes
    differ by at most one, ``blocks`` first cut down to ``count`` and to
    :func:`available`.  The ``sliced`` arguments hold one item per index,
    and each block receives only its own slice of them, so a worker is sent
    only its block's items; ``args`` go to every block whole.  Every block
    runs on one BLAS thread.  With one block, or while another split uses
    the pool, the one block ``(0, count)`` runs in this thread.  Otherwise
    block 0 runs here and block ``i`` in worker ``i - 1``, and the results
    come back in block order.  Meanwhile this thread is held on the first
    CPU of its affinity mask; a mask changed by someone else during the call
    is overwritten when the call restores it.  An exception
    in a block is re-raised unchanged; if several blocks fail, the one of the
    lowest block is raised, which is what running the blocks in order would
    raise.

    Raises:
        RuntimeError: a worker died; it names the block and the exit status.
            The worker is reaped and dropped, and the next split starts a
            fresh one.  If this process is interrupted while blocks run, the
            busy workers are SIGKILLed, reaped and dropped, and the
            interruption propagates.
    """
    return _run(fn, 0, count, min(blocks, available(), count), args, sliced)


def run_timed(fn: Callable, count: int, *args, sliced: tuple = ()) -> list:
    """:func:`run_blocks` over ``range(count)``, split at once or as far as
    the measured cost of its units pays for; the results of its blocks, in
    index order.

    When a worker for every block of a :func:`run_blocks` split into
    :func:`available` blocks is already running, and each block's request
    fits in one atomic pipe write (``select.PIPE_BUF``, 4 KB on Linux; a
    Monte Carlo block's takes about 140 bytes), the call is split that way
    at once, however short.  Once its own block is done, this process takes
    back every request that no worker has read yet, runs those blocks itself
    in block order, and waits only for the blocks a worker has begun: a
    worker slow to wake (after idling, 0.5 ms in the median and up to 8 ms
    on a 2-vCPU VM) or stopped delays nothing.  A request is pickled only up
    to that size, so a call with a large one (a large table's rendering, a
    dump parse) finds out cheaply.

    Otherwise a lead slice ``[0, m)`` runs here first, on one BLAS thread, ``m``
    doubling from 1: ``fn`` over blocks of 1, 1, 2, 4, ... units, until a
    block after the first would have taken ``MIN_SPLIT_US / 16`` at the
    lowest cost per unit that those blocks showed.  The units left are then
    split by :func:`split_blocks` at that cost: normally the last block's,
    while a block slowed by a pause (4 ms pauses hit one lead slice of the
    edge grid's rendering in 30 on a 2-vCPU VM) neither ends the lead slice
    nor sets the cost.  The first block is never measured, as it also pays
    what a process does once (a process's first Monte Carlo trial took 15 ms
    there, most of it importing ``numpy.random``, and the next ones
    0.2-0.5 ms).  With ``MIN_SPLIT_US`` at 0 there is no lead slice.
    ``fn`` sees the indices of ``range(count)`` whatever the split, and an
    exception is raised as :func:`run_blocks` raises it.
    """
    results, lo, unit_us = [], 0, math.inf
    with single_blas_thread():  # held into the split: no switch back to more threads
        if _busy.acquire(blocking=False):
            try:
                at_once = _small_requests(fn, count, args, sliced)
                if at_once:
                    return _split(fn, at_once[0], args, sliced, requests=at_once[1])
            finally:
                _busy.release()
        while lo < count and MIN_SPLIT_US > 0:
            hi = min(count, 2 * lo or 1)
            start = time.perf_counter()
            results.append(fn(lo, hi, *_block_args(lo, hi, sliced, args)))
            spent = (time.perf_counter() - start) * 1e6
            lo, size = hi, hi - lo
            if lo > 1:
                unit_us = min(unit_us, spent / size)
                if size * unit_us >= MIN_SPLIT_US / 16:
                    break
        if lo < count:
            results += _run(fn, lo, count, split_blocks(count - lo, unit_us), args, sliced)
    return results


def _run(fn: Callable, lo: int, hi: int, blocks: int, args: tuple, sliced: tuple) -> list:
    """Indices ``lo..hi-1`` in ``blocks`` blocks, as :func:`run_blocks` runs them."""
    if blocks < 2 or not _busy.acquire(blocking=False):
        with single_blas_thread():
            return [fn(lo, hi, *_block_args(lo, hi, sliced, args))]
    try:
        return _split(fn, [lo + (hi - lo) * i // blocks for i in range(blocks + 1)],
                      args, sliced)
    finally:
        _busy.release()


def _block_args(lo: int, hi: int, sliced: tuple, args: tuple) -> tuple:
    return (*[items[lo:hi] for items in sliced], *args)


class _TooLarge(Exception):
    pass


class _Capped(bytearray):
    """A pickle's bytes, refused once they would not fit in one atomic pipe
    write beside their header; a large request stops being pickled there."""

    def write(self, data) -> None:  # bytes, or a pickle.PickleBuffer of 64 KB or more
        if len(self) + memoryview(data).nbytes > select.PIPE_BUF - _HEADER:
            raise _TooLarge
        self.extend(data)


def _small_requests(fn: Callable, count: int, args: tuple,
                    sliced: tuple) -> Optional[tuple[list[int], list[bytearray]]]:
    """The bounds and requests of ``range(count)`` split at once into
    :func:`available` blocks, or None unless a worker for every block runs
    and each request fits in one atomic pipe write.  Needs ``_busy``."""
    blocks = min(available(), count)
    _claim()
    if blocks < 2 or len(_pool) < blocks - 1 or not all(_pool[:blocks - 1]):
        return None
    bounds = [count * i // blocks for i in range(blocks + 1)]
    requests = []
    for lo, hi in zip(bounds[1:], bounds[2:]):
        request = _Capped()
        try:
            pickle.Pickler(request, pickle.HIGHEST_PROTOCOL).dump(
                (fn, lo, hi, _block_args(lo, hi, sliced, args)))
        except _TooLarge:
            return None
        requests.append(request)
    return bounds, requests


def _outcome(fn: Callable, lo: int, hi: int, args: tuple, sliced: tuple) -> tuple:
    """``(True, result)`` of the block ``lo..hi-1`` run here, or ``(False, exception)``."""
    try:
        with single_blas_thread():
            return True, fn(lo, hi, *_block_args(lo, hi, sliced, args))
    except Exception as exc:  # noqa: BLE001 -- raised by _split, in block order
        return False, exc


def _split(fn: Callable, bounds: list[int], args: tuple, sliced: tuple,
           requests: Optional[list[bytearray]] = None) -> list:
    """:func:`run_blocks` over the pool, with the two or more blocks between
    neighbouring ``bounds``.  Given the ``requests`` of
    :func:`_small_requests`, those that no worker has read once block 0 is
    done are taken back and run here."""
    take_back = requests is not None
    blocks = len(bounds) - 1
    _claim()
    _pool.extend([None] * (blocks - 1 - len(_pool)))
    outcomes: list[Optional[tuple]] = [None] * blocks
    busy = []  # slots whose request is being or was sent, with no reply read yet
    if requests is None:
        requests = [pickle.dumps((fn, lo, hi, _block_args(lo, hi, sliced, args)),
                                 pickle.HIGHEST_PROTOCOL)
                    for lo, hi in zip(bounds[1:], bounds[2:])]
    mask = os.sched_getaffinity(0)
    _pin({min(mask)})
    try:
        for slot, request in enumerate(requests):
            if _pool[slot] is None:
                _pool[slot] = _start(slot, mask)
            busy.append(slot)  # before the write: a half-sent request kills it
            try:
                _write(_pool[slot].requests, request)
            except OSError:
                busy.remove(slot)
                outcomes[slot + 1] = _died(slot, bounds)
        outcomes[0] = _outcome(fn, bounds[0], bounds[1], args, sliced)
        taken = [slot for slot in busy if take_back and _took_back(_pool[slot])]
        for slot in taken:  # in block order
            busy.remove(slot)
            outcomes[slot + 1] = _outcome(fn, bounds[slot + 1], bounds[slot + 2], args, sliced)
        for slot in busy[:]:
            outcomes[slot + 1] = _reply(slot, bounds)
            busy.remove(slot)
    except BaseException:
        for slot in busy:
            _drop(slot, kill=True)
        raise
    finally:
        _pin(mask)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _took_back(worker: _Worker) -> bool:
    """Whether this process read back the worker's request before the worker did."""
    try:
        return bool(os.read(worker.unread, select.PIPE_BUF))
    except BlockingIOError:  # the pipe is empty: the worker has it
        return False


def _reply(slot: int, bounds: list[int]) -> tuple:
    """Read the outcome of block ``slot + 1`` from its worker."""
    try:
        reply = _read(_pool[slot].replies)
    except (EOFError, OSError):
        return _died(slot, bounds)
    try:
        return pickle.loads(reply)
    except Exception as exc:  # noqa: BLE001
        return False, RuntimeError(f"{_block(slot, bounds)}: its outcome does not "
                                   f"unpickle: {type(exc).__name__}: {exc}")


def _block(slot: int, bounds: list[int]) -> str:
    return f"block {slot + 1} (indices {bounds[slot + 1]}-{bounds[slot + 2] - 1})"


def _died(slot: int, bounds: list[int]) -> tuple[bool, RuntimeError]:
    """Reap the dead worker of ``slot``; the failed outcome of its block."""
    pid = _pool[slot].pid
    status = _drop(slot, kill=True)
    return False, RuntimeError(
        f"{_block(slot, bounds)} failed: worker process {pid} died ({status})")
