"""Dispatch of request compute onto worker processes, one pipe each.

The event loop must never run the partitioning pipeline itself — a
single Example-8 optimisation would stall every connection for tens of
milliseconds.  :class:`MicroBatcher` is the bridge: it owns ``workers``
compute processes, each reached over its own duplex
``multiprocessing`` pipe, and runs every batch as one
:func:`~repro.serve.pipeline.run_batch` call in one of them.

**Dispatch policy.**  A request submitted while a worker is idle ships
to it at once, inside :meth:`MicroBatcher.submit` — no timer, no
executor hop.  Requests that arrive while every worker is busy pile up;
when the first worker frees they go to it as one batch of at most
``max_batch``, so batching happens exactly when there is load to batch
and each worker reuses its warm analytic caches across the batch.
The entries stay in the worker that computed them.  Each reply carries
a snapshot of that worker's cache counts; the batcher keeps the latest
one per slot, and :meth:`MicroBatcher.cache_stats` sums them for
``/metrics``.  A restarted slot counts again from its new worker's
start.

**Transport.**  A worker runs :func:`_worker_main`: hydrate
(:func:`~repro.serve.pipeline.init_worker`), answer the empty batch the
parent sends first (the readiness handshake :meth:`prewarm` waits for),
then receive → ``run_batch`` → send until a ``None`` message.  While a
batch is in flight the event loop watches that worker's pipe with
``loop.add_reader`` and reads the one reply when it fires.

A worker that dies mid-batch (OOM kill, segfault) shows as EOF or an
``OSError`` on its pipe; the batcher fails only that worker's batch
with per-request ``worker-died`` errors, restarts that slot, and keeps
serving — one lost batch, not a dead service.  Batches on the other
workers are untouched.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time

from ..obs import get_logger, get_registry
from .http import merge_numeric
from .pipeline import init_worker, run_batch
from .protocol import PartitionRequest, ProtocolError

__all__ = ["MicroBatcher"]

logger = get_logger("serve.batching")

#: One submitted request: ``(request, request_id, submitted_at, future)``.
_Item = tuple[PartitionRequest, "str | None", float, asyncio.Future]


def _worker_main(conn, opt_budget_s) -> None:
    """A compute process: hydrate, then serve batches until ``None``."""
    init_worker(opt_budget_s=opt_budget_s)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        items, ship_traces = message
        conn.send(run_batch(items, ship_traces))


class _Worker:
    """One compute process, the parent's end of its pipe, the batch it
    is running (``None`` when idle) and its latest analytic-cache
    counts."""

    def __init__(self, process: multiprocessing.Process, conn, ready: asyncio.Future):
        self.process = process
        self.conn = conn
        self.fd = conn.fileno()
        self.ready = ready  # resolved by the hydration handshake (or death)
        self.batch: list[_Item] | None = None
        self.caches: dict = {}


class MicroBatcher:
    """Ship compute submissions to idle workers; batch them under load."""

    def __init__(
        self,
        *,
        workers: int = 1,
        max_batch: int = 8,
        ship_traces: bool = True,
        opt_budget_s: float | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.max_batch = max_batch
        self.ship_traces = ship_traces
        self.opt_budget_s = opt_budget_s
        self._loop: asyncio.AbstractEventLoop | None = None
        self._slots: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._pending: list[_Item] = []
        self._metrics = get_registry()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Start every worker (call on the event loop's thread)."""
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
            self._slots = [self._spawn() for _ in range(self.workers)]

    def _spawn(self) -> _Worker:
        """Start one worker and send it the empty hydration batch."""
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
        self._send(worker, [])
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

        Each worker answers its first (empty) batch only after
        :func:`~repro.serve.pipeline.init_worker` returns.  A worker
        that dies while hydrating also counts as done here — its slot is
        restarted and errors surface on real batches; the caller only
        wants "hydration is no longer pending".
        """
        if self._loop is None:
            raise RuntimeError("MicroBatcher.prewarm before start()")
        await asyncio.gather(*(worker.ready for worker in self._slots))

    async def drain(self) -> None:
        """Wait until nothing is pending or in flight.

        Requests piled up behind busy workers keep shipping as workers
        free, so this returns only once every submitted request has its
        result.
        """
        while True:
            items = list(self._pending)
            for worker in self._slots:
                items += worker.batch or ()
            waiting = [future for *_, future in items if not future.done()]
            if not waiting:
                return
            await asyncio.wait(waiting)

    async def stop(self) -> None:
        """Fail what is left, end every worker and join them.

        Futures are failed and pipes closed on the loop thread; only the
        blocking join of the worker processes runs off-loop.  Idle
        workers get ``None`` and exit; a worker whose batch is still in
        flight (a drain that timed out) is killed — its work is
        abandoned.
        """
        if self._loop is None:
            return
        shutting_down = ("server shutting down", "shutting-down", 503)
        self._fail(self._pending, *shutting_down)
        self._pending = []
        processes = []
        for worker in self._slots:
            if worker.batch is not None:
                self._loop.remove_reader(worker.fd)
                self._fail(worker.batch, *shutting_down)
                worker.process.kill()
            else:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
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
            raise RuntimeError("MicroBatcher.submit before start()")
        future: asyncio.Future = self._loop.create_future()
        self._pending.append((request, request_id, time.perf_counter(), future))
        self._dispatch()
        return await future

    def _dispatch(self) -> None:
        """Ship pending requests to idle workers, ``max_batch`` at a time."""
        while self._pending and self._idle:
            worker = self._idle.pop()
            batch = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            self._metrics.counter("serve.batches").inc()
            self._metrics.histogram("serve.batch_size").observe(len(batch))
            self._send(worker, batch)

    # -- the pipes -------------------------------------------------------
    def _send(self, worker: _Worker, batch: list[_Item]) -> None:
        worker.batch = batch
        try:
            worker.conn.send(
                ([(request, rid) for request, rid, _, _ in batch], self.ship_traces)
            )
        except OSError:
            pass  # a dead worker: its pipe reads EOF, and _on_reply handles it
        self._loop.add_reader(worker.fd, self._on_reply, worker)

    def _on_reply(self, worker: _Worker) -> None:
        self._loop.remove_reader(worker.fd)
        try:
            outcomes, worker.caches = worker.conn.recv()
        except (EOFError, OSError):
            self._worker_died(worker)
            return
        batch, worker.batch = worker.batch, None
        if not worker.ready.done():
            worker.ready.set_result(None)
        self._deliver(batch, outcomes)
        self._idle.append(worker)
        self._dispatch()

    def _worker_died(self, worker: _Worker) -> None:
        """Fail the dead worker's batch and restart its slot."""
        batch, worker.batch = worker.batch or [], None
        logger.error(
            "compute worker %d died; failing %d request(s) and restarting it",
            worker.process.pid,
            len(batch),
        )
        self._metrics.counter("serve.worker_deaths").inc()
        worker.conn.close()
        worker.process.kill()
        worker.process.join(timeout=1.0)  # its pipe is closed: it is exiting
        if not worker.ready.done():
            worker.ready.set_result(None)
        self._fail(
            batch,
            "a compute worker process died while running this batch; the "
            "request may be retried",
            "worker-died",
            500,
        )
        self._slots[self._slots.index(worker)] = self._spawn()

    @staticmethod
    def _fail(batch: list[_Item], message: str, code: str, status: int) -> None:
        for _, _, _, future in batch:
            if not future.done():
                future.set_exception(ProtocolError(message, code=code, status=status))

    @staticmethod
    def _deliver(batch: list[_Item], outcomes) -> None:
        now = time.perf_counter()
        for (_, _, submitted, future), (kind, payload, meta) in zip(batch, outcomes):
            if future.done():
                continue
            # Wall time from submit to result, minus worker-measured
            # compute: time spent behind busy workers and batch-mates,
            # and on the pipes.
            compute_ms = meta.get("compute_s", 0.0) * 1000.0
            meta["compute_ms"] = round(compute_ms, 3)
            meta["queue_ms"] = round(max((now - submitted) * 1000.0 - compute_ms, 0.0), 3)
            if kind == "ok":
                future.set_result((payload, meta))
            else:
                err = payload.get("error", {})
                exc = ProtocolError(
                    err.get("message", "pipeline failed"),
                    code=err.get("code", "internal-error"),
                    status=payload.get("status", 500),
                    field=err.get("field"),
                )
                exc.compute_meta = meta
                future.set_exception(exc)
