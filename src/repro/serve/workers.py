"""Dispatch of request compute onto worker processes, one pipe each.

The event loop must never run the partitioning pipeline itself — a
single Example-8 optimisation would stall every connection for tens of
milliseconds.  :class:`WorkerPool` is the bridge: it owns ``workers``
compute processes, each reached over its own duplex
``multiprocessing`` pipe, and runs every request as one
:func:`~repro.serve.pipeline.run_one` call in one of them.

**Dispatch policy.**  A request submitted while a worker is idle ships
to it at once, inside :meth:`WorkerPool.submit` — no timer, no
executor hop.  Requests that arrive while every worker is busy wait in
a FIFO and go one at a time to the next worker that frees, so a backlog
spreads over every worker.  The analytic-cache entries stay in the
worker that computed them.  Each reply carries a snapshot of that
worker's cache counts; the pool keeps the latest one per slot, and
:meth:`WorkerPool.cache_stats` sums them for ``/metrics``.  A restarted
slot counts again from its new worker's start.

**Transport.**  A worker runs :func:`_worker_main`: hydrate
(:func:`~repro.serve.pipeline.init_worker`), send its cache counts (the
readiness handshake :meth:`prewarm` waits for), then receive →
``run_one`` → send until a ``None`` message.  While a worker is busy the
event loop watches its pipe with ``loop.add_reader`` and reads the one
reply when it fires.

A worker that dies mid-request (OOM kill, segfault) shows as EOF or an
``OSError`` on its pipe; the pool fails only that request with a
``worker-died`` error, restarts that slot, and keeps serving.  Requests
on the other workers are untouched.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from collections import deque

from ..lattice import analytic_cache_stats
from ..obs import get_logger, get_registry
from .pipeline import init_worker, run_one
from .protocol import PartitionRequest, ProtocolError

__all__ = ["WorkerPool"]

logger = get_logger("serve.workers")

#: One submitted request: ``(request, request_id, submitted_at, future)``.
_Item = tuple[PartitionRequest, "str | None", float, asyncio.Future]


def _worker_main(conn, opt_budget_s) -> None:
    """A compute process: hydrate, then serve requests until ``None``.

    Every message sent is ``(outcome, caches)``; the first, sent once
    hydration is done, has no outcome.
    """
    init_worker(opt_budget_s=opt_budget_s)
    conn.send((None, analytic_cache_stats()))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        conn.send((run_one(*message), analytic_cache_stats()))


def merge_numeric(into: dict, src: dict) -> dict:
    """Recursively sum numeric leaves of ``src`` into ``into``."""
    for key, value in src.items():
        if isinstance(value, dict):
            into[key] = merge_numeric(
                into.get(key) if isinstance(into.get(key), dict) else {}, value
            )
        elif isinstance(value, bool):
            into.setdefault(key, value)
        elif isinstance(value, (int, float)):
            base = into.get(key, 0)
            into[key] = (base if isinstance(base, (int, float)) else 0) + value
        else:
            into.setdefault(key, value)
    return into


class _Worker:
    """One compute process, the parent's end of its pipe, the request it
    is running and its latest analytic-cache counts."""

    def __init__(self, process: multiprocessing.Process, conn, ready: asyncio.Future):
        self.process = process
        self.conn = conn
        self.fd = conn.fileno()
        self.ready = ready  # resolved by the hydration handshake (or death)
        self.item: _Item | None = None
        self.caches: dict = {}


class WorkerPool:
    """Ship each compute submission to the next idle worker."""

    def __init__(self, *, workers: int = 1, opt_budget_s: float | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.opt_budget_s = opt_budget_s
        self._loop: asyncio.AbstractEventLoop | None = None
        self._slots: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._pending: deque[_Item] = deque()
        self._metrics = get_registry()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Start every worker (call on the event loop's thread)."""
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
            self._slots = [self._spawn() for _ in range(self.workers)]

    def _spawn(self) -> _Worker:
        """Start one worker; it counts as busy until its handshake."""
        parent_end, child_end = multiprocessing.Pipe(duplex=True)
        process = multiprocessing.Process(
            target=_worker_main,
            args=(child_end, self.opt_budget_s),
            name="repro-serve-worker",
            daemon=True,
        )
        process.start()
        # Only the child may hold its end, or EOF never reaches us.
        child_end.close()
        worker = _Worker(process, parent_end, self._loop.create_future())
        self._loop.add_reader(worker.fd, self._on_reply, worker)
        return worker

    def worker_pids(self) -> list[int]:
        """The pid of the process in each worker slot."""
        return [worker.process.pid for worker in self._slots]

    def cache_stats(self) -> dict:
        """The workers' analytic-cache counts, summed over slots
        (``{}`` until a worker has answered)."""
        total: dict = {}
        for worker in self._slots:
            merge_numeric(total, worker.caches)
        return total

    async def prewarm(self) -> None:
        """Wait until every worker has spawned and finished hydration.

        A worker that dies while hydrating also counts as done here —
        its slot is restarted and errors surface on real requests; the
        caller only wants "hydration is no longer pending".
        """
        if self._loop is None:
            raise RuntimeError("WorkerPool.prewarm before start()")
        await asyncio.gather(*(worker.ready for worker in self._slots))

    async def drain(self) -> None:
        """Wait until nothing is pending or in flight.

        Queued requests keep shipping as workers free, so this returns
        only once every submitted request has its result.
        """
        while True:
            items = list(self._pending)
            items += [worker.item for worker in self._slots if worker.item]
            waiting = [future for *_, future in items if not future.done()]
            if not waiting:
                return
            await asyncio.wait(waiting)

    async def stop(self) -> None:
        """Fail what is left, end every worker and join them.

        Futures are failed and pipes closed on the loop thread; only the
        blocking join of the worker processes runs off-loop.  Idle
        workers get ``None`` and exit; a busy worker (hydrating, or
        running a request a timed-out drain left behind) is killed — its
        work is abandoned.
        """
        if self._loop is None:
            return
        shutting_down = ("server shutting down", "shutting-down", 503)
        self._fail(self._pending, *shutting_down)
        self._pending.clear()
        processes = []
        for worker in self._slots:
            if worker in self._idle:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
            else:
                self._loop.remove_reader(worker.fd)
                self._fail([worker.item] if worker.item else [], *shutting_down)
                worker.process.kill()
            worker.conn.close()
            processes.append(worker.process)
        self._slots, self._idle, self._loop = [], [], None

        def join() -> None:
            for process in processes:
                process.join()

        await asyncio.get_running_loop().run_in_executor(None, join)

    # -- submission ------------------------------------------------------
    async def submit(
        self, request: PartitionRequest, request_id: str | None = None
    ) -> tuple[dict, dict]:
        """Queue ``request`` and await ``(report, meta)``.

        ``meta`` is the worker's compute telemetry (``worker_pid``,
        ``compute_ms``, serialized ``spans``) plus the queue time this
        request spent between submission and its result, less the
        compute.  Raises :class:`~repro.serve.protocol.ProtocolError`
        when the pipeline (or the worker) failed the request; the same
        meta rides on the exception as ``e.compute_meta`` so errored
        requests still leave a flight record with a latency breakdown.
        """
        if self._loop is None:
            raise RuntimeError("WorkerPool.submit before start()")
        future: asyncio.Future = self._loop.create_future()
        self._pending.append((request, request_id, time.perf_counter(), future))
        self._dispatch()
        return await future

    def _dispatch(self) -> None:
        """Ship queued requests to idle workers, one each, oldest first."""
        while self._pending and self._idle:
            worker = self._idle.pop()
            worker.item = item = self._pending.popleft()
            try:
                worker.conn.send(item[:2])
            except OSError:
                pass  # a dead worker: its pipe reads EOF, and _on_reply handles it
            self._loop.add_reader(worker.fd, self._on_reply, worker)

    # -- the pipes -------------------------------------------------------
    def _on_reply(self, worker: _Worker) -> None:
        self._loop.remove_reader(worker.fd)
        try:
            outcome, worker.caches = worker.conn.recv()
        except (EOFError, OSError):
            self._worker_died(worker)
            return
        item, worker.item = worker.item, None
        if not worker.ready.done():
            worker.ready.set_result(None)
        if item is not None:
            self._deliver(item, outcome)
        self._idle.append(worker)
        self._dispatch()

    def _worker_died(self, worker: _Worker) -> None:
        """Fail the dead worker's request and restart its slot."""
        item, worker.item = worker.item, None
        logger.error(
            "compute worker %d died; restarting it", worker.process.pid
        )
        self._metrics.counter("serve.worker_deaths").inc()
        worker.conn.close()
        worker.process.kill()
        worker.process.join(timeout=1.0)  # its pipe is closed: it is exiting
        if not worker.ready.done():
            worker.ready.set_result(None)
        self._fail(
            [item] if item else [],
            "a compute worker process died while running this request; "
            "the request may be retried",
            "worker-died",
            500,
        )
        self._slots[self._slots.index(worker)] = self._spawn()

    @staticmethod
    def _fail(items, message: str, code: str, status: int) -> None:
        for *_, future in items:
            if not future.done():
                future.set_exception(ProtocolError(message, code=code, status=status))

    @staticmethod
    def _deliver(item: _Item, outcome) -> None:
        _, _, submitted, future = item
        if future.done():
            return
        kind, payload, meta = outcome
        # Wall time from submit to result, minus worker-measured
        # compute: time spent behind busy workers and on the pipes.
        compute_ms = meta.get("compute_s", 0.0) * 1000.0
        meta["compute_ms"] = round(compute_ms, 3)
        meta["queue_ms"] = round(
            max((time.perf_counter() - submitted) * 1000.0 - compute_ms, 0.0), 3
        )
        if kind == "ok":
            future.set_result((payload, meta))
            return
        err = payload.get("error", {})
        exc = ProtocolError(
            err.get("message", "pipeline failed"),
            code=err.get("code", "internal-error"),
            status=payload.get("status", 500),
            field=err.get("field"),
        )
        exc.compute_meta = meta
        future.set_exception(exc)
