"""The worker pool: block order, errors, worker death and clean-up."""

import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import bvlab
import bvlab._workers as workers
from bvlab.cli import ConfigError
from bvlab.mlp import TrainingDivergedError
from bvlab.twolayer import ModelDims, SingularSystemError, mc_bias_variance
from conftest import assert_only_pool_workers, children, force_processes, needs_fork


def _pids(lo, hi, tag):
    return [(i, tag, os.getpid()) for i in range(lo, hi)]


def _fail_from(lo, hi, first_bad):
    """Raise ``ValueError(f"index {i}")`` at the first index ``i >= first_bad``."""
    for i in range(lo, hi):
        if i >= first_bad:
            raise ValueError(f"index {i}")
    return hi - lo


def _interrupted_here(lo, hi, parent):
    """Interrupt this process's block; a worker's block sleeps until killed."""
    if os.getpid() == parent:
        raise KeyboardInterrupt
    time.sleep(60)


def _sizes(lo, hi, blob):
    return os.getpid(), hi - lo, len(blob)


def _slices(lo, hi, items, rows, shared):
    return lo, hi, items, rows.tolist(), shared


_PINNED = []


def _churn(lo, hi, parent, blob):
    """In a worker: grow the heap by 64 MB between live allocations, then free
    it.  ``blob`` only makes the request large."""
    if os.getpid() != parent:
        large = np.ones(1 << 19)
        del large  # freeing a 4 MB buffer raises glibc's mmap threshold
        chunks = []
        for _ in range(64):
            chunks.append(np.ones(1 << 17))  # 1 MB, now from the heap
            _PINNED.append(np.ones(1 << 13))  # 64 KB kept between them: no free top to cut
        del chunks
    return hi - lo


def _resident_mb(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        line = next(line for line in fh if line.startswith("VmRSS:"))
    return int(line.split()[1]) / 1024


def _nested(lo, hi):
    """A split asked for from inside a block."""
    return workers.run_blocks(_pids, 2, 2, "inner")


_HOLDING = threading.Event()
_RELEASE = threading.Event()


def _hold_the_pool(lo, hi, parent):
    """This process's block waits for ``_RELEASE``; a worker's returns at once."""
    if os.getpid() == parent:
        _HOLDING.set()
        assert _RELEASE.wait(30)
    return os.getpid()


REAL_AFFINITY = getattr(os, "sched_getaffinity", None)  # before any test patches it


def _cpus(lo, hi):
    return sorted(REAL_AFFINITY(0))


def _spin(lo, hi, unit_us, paused=None):
    """Busy-wait ``unit_us`` per index, and 5 ms more in a block from index
    ``paused``; the indices and this process's id."""
    end = time.perf_counter() + ((hi - lo) * unit_us + 5000.0 * (lo == paused)) * 1e-6
    while time.perf_counter() < end:
        pass
    return list(range(lo, hi)), os.getpid()


def _meet(lo, hi, parent, mark):
    """This process's block waits for the file ``mark``, which a worker's
    block makes; the indices and this process's id."""
    if os.getpid() == parent:
        end = time.monotonic() + 10
        while not os.path.exists(mark):
            assert time.monotonic() < end, "no worker ran a block"
            time.sleep(1e-3)
    else:
        open(mark, "x").close()
    return list(range(lo, hi)), os.getpid()


def _stamp(lo, hi, tag, unit_us):
    """``_pids`` after busy-waiting ``unit_us`` per index."""
    _spin(lo, hi, unit_us)
    return _pids(lo, hi, tag)


def _request_bytes(blob_length):
    """Bytes sent for block 1 of ``run_timed(_sizes, 4, bytes(blob_length))``
    split in two, header included."""
    return workers._HEADER + len(pickle.dumps((_sizes, 2, 4, (bytes(blob_length),)),
                                              pickle.HIGHEST_PROTOCOL))


def _lengths(lo, hi, chunks):
    return [memoryview(chunk).nbytes for chunk in chunks]


def _blas_threads(lo, hi):
    controls = bvlab._blas._thread_controls()
    return None if controls is None else controls[0]()


@pytest.mark.parametrize("exc", [
    TrainingDivergedError("non-finite loss at epoch 3 (lr=0.1)", 3),
    SingularSystemError("Gram matrix is singular at lam=0"),
    ConfigError("field 'gamma': bad number"),
])
def test_exceptions_survive_a_pickle_round_trip(exc):
    back = pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert getattr(back, "epoch", None) == getattr(exc, "epoch", None)


@needs_fork
class TestRunBlocks:
    def test_one_block_runs_here_as_is(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork called"))
        assert workers.run_blocks(_pids, 5, 1, "x") == [_pids(0, 5, "x")]

    @pytest.mark.parametrize("blocks", [2, 3])
    def test_contiguous_blocks_in_order(self, monkeypatch, blocks):
        force_processes(monkeypatch, blocks)
        results = workers.run_blocks(_pids, 7, blocks, "x")
        assert [i for block in results for i, _, _ in block] == list(range(7))
        pids = [{pid for _, _, pid in block} for block in results]
        assert pids[0] == {os.getpid()}
        assert len(set().union(*pids)) == blocks
        assert_only_pool_workers()

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_each_block_receives_only_its_slice(self, monkeypatch, blocks):
        force_processes(monkeypatch, blocks)
        items, rows = list("abcdefg"), np.arange(14).reshape(7, 2)
        results = workers.run_blocks(_slices, 7, blocks, "shared", sliced=(items, rows))
        bounds = [7 * i // blocks for i in range(blocks + 1)]
        assert results == [(lo, hi, items[lo:hi], rows[lo:hi].tolist(), "shared")
                           for lo, hi in zip(bounds, bounds[1:])]
        assert_only_pool_workers()

    def test_each_process_holds_its_own_cpu_during_a_split(self):
        mask = sorted(REAL_AFFINITY(0))
        if len(mask) < 2:
            pytest.skip("needs two CPUs")
        assert workers.run_blocks(_cpus, 2, 2) == [[mask[0]], [mask[1]]]
        assert sorted(REAL_AFFINITY(0)) == mask
        assert_only_pool_workers()

    def test_workers_are_reused(self, monkeypatch):
        force_processes(monkeypatch, 3)
        first = workers.run_blocks(_pids, 3, 3, "a")
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        second = workers.run_blocks(_pids, 3, 3, "b")
        assert forks == []
        assert [b[0][2] for b in first] == [b[0][2] for b in second]
        assert_only_pool_workers()

    @pytest.mark.parametrize("first_bad", [0, 2, 3, 5])
    def test_lowest_failing_block_raises(self, monkeypatch, first_bad):
        """The error of the serial loop: every block from ``first_bad`` fails."""
        force_processes(monkeypatch, 3)
        with pytest.raises(ValueError, match=f"^index {first_bad}$"):
            workers.run_blocks(_fail_from, 6, 3, first_bad)
        assert workers.run_blocks(_fail_from, 6, 3, 6) == [2, 2, 2]
        assert_only_pool_workers()

    def test_blocks_run_on_one_blas_thread(self, monkeypatch):
        """Split or not, so that a block's bits do not depend on the split."""
        force_processes(monkeypatch, 2)
        before = _blas_threads(0, 0)
        one = None if before is None else 1
        assert workers.run_blocks(_blas_threads, 2, 1) == [one]
        assert workers.run_blocks(_blas_threads, 2, 2) == [one, one]
        assert workers.run_timed(_blas_threads, 2) == [one, one]  # split, no lead slice
        workers.shutdown()  # no worker runs: a lead slice
        monkeypatch.setattr(workers, "MIN_SPLIT_US", 1e9)
        assert workers.run_timed(_blas_threads, 2) == [one, one]  # both in the lead slice
        assert _blas_threads(0, 0) == before

    def test_blocks_are_cut_down_to_the_cpus(self, monkeypatch):
        monkeypatch.setattr(workers, "available", lambda: 2)
        results = workers.run_blocks(_pids, 8, 8, "x")
        assert [i for block in results for i, _, _ in block] == list(range(8))
        assert len(results) == 2 and len(workers._pool) == 1
        assert_only_pool_workers()

    def test_killed_worker_fails_a_large_request(self, monkeypatch):
        """This process keeps its own read end of the request pipe, so the
        write does not fail; it must not wait for room forever either."""
        force_processes(monkeypatch, 2)
        workers.run_blocks(_pids, 2, 2, "x")
        (worker,) = workers._pool
        os.kill(worker.pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match=rf"block 1 \(indices 2-3\) failed: worker "
                                               rf"process {worker.pid} died"):
            workers.run_blocks(_sizes, 4, 2, bytes(1 << 20))  # larger than a pipe's buffer
        assert workers._pool == [None]
        assert_only_pool_workers()

    def test_killed_worker_fails_one_call(self, monkeypatch):
        force_processes(monkeypatch, 2)
        workers.run_blocks(_pids, 2, 2, "x")
        (worker,) = workers._pool
        os.kill(worker.pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match=rf"block 1 \(indices 1-1\) failed: worker "
                                               rf"process {worker.pid} died \(killed by "
                                               rf"signal {int(signal.SIGKILL)}\)"):
            workers.run_blocks(_pids, 2, 2, "x")
        assert workers._pool == [None]
        results = workers.run_blocks(_pids, 2, 2, "y")
        assert results[1][0][2] not in (worker.pid, os.getpid())
        assert_only_pool_workers()

    def test_interrupted_parent_kills_the_busy_workers(self, monkeypatch):
        force_processes(monkeypatch, 3)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            workers.run_blocks(_interrupted_here, 3, 3, os.getpid())
        assert time.perf_counter() - start < 30
        assert workers._pool == [None, None]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupt_while_sending_a_request_kills_that_worker(self, monkeypatch):
        """A half-sent request must not stay in the worker's pipe for the next call."""
        force_processes(monkeypatch, 2)
        workers.run_blocks(_pids, 2, 2, "x")  # the worker is forked with the real _write
        (worker,) = workers._pool
        blob = bytes(1 << 20)  # larger than a pipe's buffer
        write = workers._write

        def write_a_chunk_then_interrupt(fd, payload):
            monkeypatch.setattr(workers, "_write", write)
            os.write(fd, len(payload).to_bytes(workers._HEADER, "little") + payload[:4096])
            raise KeyboardInterrupt

        monkeypatch.setattr(workers, "_write", write_a_chunk_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            workers.run_blocks(_sizes, 4, 2, blob)
        assert workers._pool == [None]
        assert not os.path.exists(f"/proc/{worker.pid}")
        here, there = workers.run_blocks(_sizes, 4, 2, blob)
        assert here == (os.getpid(), 2, len(blob))
        assert there[1:] == (2, len(blob)) and there[0] not in (os.getpid(), worker.pid)
        assert_only_pool_workers()

    def test_a_split_inside_a_block_runs_in_that_process(self, monkeypatch):
        force_processes(monkeypatch, 2)
        outer = workers.run_blocks(_nested, 2, 2)
        pids = [{pid for _, _, pid in inner} for (inner,) in outer]
        assert pids[0] == {os.getpid()}
        assert len(pids[1]) == 1 and pids[1] != pids[0]
        assert_only_pool_workers()

    def test_a_second_thread_splits_in_its_own_thread(self, monkeypatch):
        """One split at a time uses the pool; another thread's runs in that thread."""
        force_processes(monkeypatch, 2)
        _HOLDING.clear()
        _RELEASE.clear()
        held = []
        holder = threading.Thread(
            target=lambda: held.append(workers.run_blocks(_hold_the_pool, 2, 2, os.getpid())),
            daemon=True)
        holder.start()
        try:
            assert _HOLDING.wait(30)
            assert workers.run_blocks(_pids, 4, 2, "other") == [_pids(0, 4, "other")]
        finally:
            _RELEASE.set()
            holder.join(30)
        assert not holder.is_alive()
        (pids,) = held
        assert pids[0] == os.getpid() and pids[1] == workers._pool[0].pid
        assert_only_pool_workers()

    def test_threads_splitting_at_once_each_get_their_own_results(self, monkeypatch):
        force_processes(monkeypatch, 2)
        errors = []

        def split_often(tag):
            try:
                for call in range(20):
                    results = workers.run_blocks(_pids, 6, 2, (tag, call))
                    assert [(i, t) for block in results for i, t, _ in block] == \
                        [(i, (tag, call)) for i in range(6)]
            except BaseException as exc:  # noqa: BLE001 -- reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=split_often, args=(tag,), daemon=True)
                       for tag in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert_only_pool_workers()

    def test_forked_child_does_not_use_the_parents_workers(self, monkeypatch):
        force_processes(monkeypatch, 2)
        workers.run_blocks(_pids, 2, 2, "x")
        (worker,) = workers._pool
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                results = workers.run_blocks(_pids, 2, 2, "child")
                ok = results[1][0][2] != worker.pid and workers._pool[0].pid != worker.pid
                workers.shutdown()
                os.write(write_fd, b"ok" if ok else b"reused")
            finally:
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            assert pipe.read() == b"ok"
        os.waitpid(pid, 0)
        assert workers._pool == [worker]
        assert workers.run_blocks(_pids, 2, 2, "x")[1][0][2] == worker.pid
        assert_only_pool_workers()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_worker_returns_freed_heap_after_a_large_block(self, monkeypatch):
        """Without a trim the worker keeps about 64 MB more resident."""
        force_processes(monkeypatch, 2)
        workers.run_blocks(_pids, 2, 2, "x")
        (worker,) = workers._pool
        before = _resident_mb(worker.pid)
        assert workers.run_blocks(_churn, 2, 2, os.getpid(), bytes(2 << 20)) == [1, 1]
        workers.run_blocks(_pids, 2, 2, "x")  # requests are serial: the trim has run
        assert _resident_mb(worker.pid) < before + 16

    def test_workers_exit_with_the_process(self):
        """A process that ran a split ``simulate`` leaves no worker behind."""
        script = (
            "import os, bvlab._workers as w, bvlab.cli as cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "w.MIN_SPLIT_US = 0.0\n"  # 40 trials at p = 32 split on any host
            "assert cli.main(['simulate', '--set', 'lambda0=1', '--set', 'd=64', "
            "'--set', 'n=6400', '--set', 'p=32', '--set', 'trials=40', "
            "'--out', os.devnull]) == 0\n"
            "print(' '.join(str(x.pid) for x in w._pool if x))\n"
        )
        src = str(Path(bvlab.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, check=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 1
        for pid in pids:
            assert not os.path.exists(f"/proc/{pid}")


@needs_fork
class TestRunTimed:
    """The lead slice and the split it sizes, with the real ``MIN_SPLIT_US``."""

    def test_lead_slice_doubles_from_one_unit(self, monkeypatch):
        monkeypatch.setattr(workers, "MIN_SPLIT_US", 1e9)  # no block takes that long
        results = workers.run_timed(_pids, 20, "x")
        assert [len(block) for block in results] == [1, 1, 2, 4, 8, 4]
        assert sum(results, []) == _pids(0, 20, "x")

    def test_short_work_starts_no_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork called"))
        results = workers.run_timed(_spin, 20, 20.0)
        assert [i for block, _ in results for i in block] == list(range(20))
        assert workers._pool == []

    @pytest.mark.parametrize("paused", [2, 8])
    def test_a_paused_block_neither_ends_the_lead_slice_nor_sets_the_cost(
            self, monkeypatch, paused):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork called"))
        results = workers.run_timed(_spin, 60, 20.0, paused)
        assert [i for block, _ in results for i in block] == list(range(60))
        assert workers._pool == []

    def test_long_work_splits_over_the_cpus(self, monkeypatch):
        """Units 0 and 1 are the lead slice; the other 38, of 500 us each, pay for a split."""
        workers.shutdown()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        results = workers.run_timed(_spin, 40, 500.0)
        assert [block for block, _ in results] == [[0], [1], list(range(2, 21)),
                                                    list(range(21, 40))]
        assert [pid for _, pid in results] == [os.getpid()] * 3 + [workers._pool[0].pid]
        assert_only_pool_workers()


@needs_fork
class TestWarmPool:
    """``run_timed`` once the pool has every worker, with the real ``MIN_SPLIT_US``."""

    @pytest.fixture(autouse=True)
    def warm_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        workers.shutdown()
        workers.run_blocks(_pids, 2, 2, "x")

    def test_short_call_splits_at_once(self, tmp_path):
        """No lead slice: block 1 is sent before this process runs block 0."""
        (worker,) = workers._pool
        results = workers.run_timed(_meet, 6, os.getpid(), str(tmp_path / "mark"))
        assert results == [([0, 1, 2], os.getpid()), ([3, 4, 5], worker.pid)]
        assert_only_pool_workers()

    def test_stopped_worker_delays_nothing(self):
        """Its request is taken back and run here; it never reaches the worker."""
        (worker,) = workers._pool
        done = []
        call = threading.Thread(target=lambda: done.append(workers.run_timed(_spin, 20, 500.0)),
                                daemon=True)
        os.kill(worker.pid, signal.SIGSTOP)
        try:
            end = time.monotonic() + 10
            while children()[worker.pid] != "T" and time.monotonic() < end:
                time.sleep(1e-3)
            call.start()
            call.join(10)
            assert not call.is_alive()
        finally:
            os.kill(worker.pid, signal.SIGCONT)
            if call.ident is not None:
                call.join(30)
        (results,) = done
        assert results == [(list(range(10)), os.getpid()), (list(range(10, 20)), os.getpid())]
        assert workers.run_blocks(_pids, 4, 2, "y") == [
            _pids(0, 2, "y"), [(2, "y", worker.pid), (3, "y", worker.pid)]]
        assert_only_pool_workers()

    def test_back_to_back_calls_each_get_their_own_results(self, monkeypatch):
        """Each request is run once, by its worker or here, and no outcome is
        left over for the next call, whichever side wins the pipe."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        workers.run_blocks(_pids, 3, 3, "x")  # a second worker: 3 processes on 2 CPUs
        ran = set()
        start = time.monotonic()
        for call in range(300):
            results = workers.run_timed(_stamp, 6, call, (0.0, 20.0, 100.0)[call % 3])
            assert [(i, tag) for block in results for i, tag, _ in block] == \
                [(i, call) for i in range(6)]
            ran |= {(block, pid == os.getpid()) for block, ((_, _, pid), *_) in
                    enumerate(results)}
        assert time.monotonic() - start < 30
        assert {(0, True), (1, False), (2, False)} <= ran  # the workers took part
        assert_only_pool_workers()

    def test_requests_past_one_atomic_write_take_the_lead_slice(self):
        fits = max(n for n in range(select.PIPE_BUF) if _request_bytes(n) <= select.PIPE_BUF)
        assert _request_bytes(fits) == select.PIPE_BUF
        at_once = workers.run_timed(_sizes, 4, bytes(fits))
        assert [size for _, size, _ in at_once] == [2, 2]
        lead_slice = workers.run_timed(_sizes, 4, bytes(fits + 1))
        assert lead_slice == [(os.getpid(), size, fits + 1) for size in (1, 1, 2)]
        assert_only_pool_workers()

    def test_large_buffers_take_the_lead_slice(self):
        """The pickler hands a buffer of 64 KB or more on as it is, to be sized."""
        chunks = [pickle.PickleBuffer(bytes(1 << 16))] * 4
        assert workers.run_timed(_lengths, 4, sliced=(chunks,)) == [
            [1 << 16], [1 << 16], [1 << 16] * 2]
        assert_only_pool_workers()


@needs_fork
def test_handful_of_trials_never_forks(monkeypatch):
    """With the real threshold, a small library call stays in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork called"))
    mc_bias_variance(ModelDims(d=16, n=100, p=8, lambda0=1.0), 5, 0)
    assert workers._pool == []
