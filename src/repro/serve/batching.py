"""Micro-batching of request compute onto the PR-4 process pool.

The event loop must never run the partitioning pipeline itself — a
single Example-8 optimisation would stall every connection for tens of
milliseconds.  :class:`MicroBatcher` is the bridge: requests accumulate
for a short window (or until the batch is full) and ship to a
``ProcessPoolExecutor`` as *one* :func:`~repro.serve.pipeline.run_batch`
call, amortising submit/pickle overhead and letting each worker reuse
its warm analytic caches across the whole batch.  Cache entries the
workers compute, and their hit/miss counts, travel back with each result
and are absorbed into the server's process-wide tables, so they survive
worker recycling, show on ``/metrics`` and reach ``--cache-dir``
persistence at shutdown.

A worker that dies mid-batch (OOM kill, segfault) breaks the pool;
the batcher converts that into per-request ``worker-died`` errors,
replaces the pool, and keeps serving — one lost batch, not a dead
service.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..lattice.memo import absorb_shipment
from ..obs import get_logger, get_registry
from .pipeline import init_worker, prewarm_worker, run_batch
from .protocol import PartitionRequest, ProtocolError

__all__ = ["MicroBatcher"]

logger = get_logger("serve.batching")


class MicroBatcher:
    """Coalesce concurrent compute submissions into pool batches."""

    def __init__(
        self,
        *,
        workers: int = 1,
        cache_dir: str | None = None,
        window_s: float = 0.002,
        max_batch: int = 8,
        ship_traces: bool = True,
        plan_cache: bool = False,
        opt_budget_s: float | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache_dir = cache_dir
        self.window_s = window_s
        self.max_batch = max_batch
        self.ship_traces = ship_traces
        self.plan_cache = plan_cache
        self.opt_budget_s = opt_budget_s
        self._pool: ProcessPoolExecutor | None = None
        self._pending: list[tuple[PartitionRequest, str | None, float, asyncio.Future]] = []
        self._timer: asyncio.TimerHandle | None = None
        self._dispatches: set[asyncio.Task] = set()
        self._metrics = get_registry()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        if self._pool is None:
            self._pool = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=init_worker,
            initargs=(self.cache_dir, self.plan_cache, self.opt_budget_s),
        )

    async def prewarm(self) -> None:
        """Force every pool worker to spawn and finish cache hydration.

        Submits one :func:`~repro.serve.pipeline.prewarm_worker` call per
        worker slot directly to the pool (bypassing the batch window) and
        waits for all of them.  Failures are swallowed — a pool that
        cannot warm will surface errors on the first real batch; the
        caller only wants "hydration is no longer pending".
        """
        if self._pool is None:
            raise RuntimeError("MicroBatcher.prewarm before start()")
        futures = [self._pool.submit(prewarm_worker) for _ in range(self.workers)]
        await asyncio.gather(
            *(asyncio.wrap_future(f) for f in futures), return_exceptions=True
        )

    async def drain(self) -> None:
        """Flush pending work and wait for every in-flight batch."""
        self._flush()
        while self._dispatches:
            await asyncio.gather(*list(self._dispatches), return_exceptions=True)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        for _, _, _, future in self._pending:
            if not future.done():
                future.set_exception(
                    ProtocolError("server shutting down", code="shutting-down", status=503)
                )
        self._pending.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- submission ------------------------------------------------------
    async def submit(
        self, request: PartitionRequest, request_id: str | None = None
    ) -> tuple[dict, dict]:
        """Queue ``request`` and await ``(report, meta)``.

        ``meta`` is the worker's compute telemetry (``worker_pid``,
        ``compute_ms``, serialized ``spans``) plus the queue time this
        request spent between submission and pool pickup.  Raises
        :class:`~repro.serve.protocol.ProtocolError` when the pipeline
        (or the pool) failed the request; the same meta rides on the
        exception as ``e.compute_meta`` so errored requests still leave
        a flight record with a latency breakdown.
        """
        if self._pool is None:
            raise RuntimeError("MicroBatcher.submit before start()")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((request, request_id, time.perf_counter(), future))
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._timer is None:
            self._timer = loop.call_later(self.window_s, self._flush)
        return await future

    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        task = asyncio.ensure_future(self._dispatch(batch))
        self._dispatches.add(task)
        task.add_done_callback(self._dispatches.discard)

    # -- dispatch --------------------------------------------------------
    async def _dispatch(
        self,
        batch: list[tuple[PartitionRequest, str | None, float, asyncio.Future]],
    ) -> None:
        loop = asyncio.get_running_loop()
        self._metrics.counter("serve.batches").inc()
        self._metrics.histogram("serve.batch_size").observe(len(batch))
        try:
            outcomes, shipment = await loop.run_in_executor(
                self._pool,
                run_batch,
                [(request, rid) for request, rid, _, _ in batch],
                self.ship_traces,
            )
        except BrokenProcessPool:
            logger.error(
                "a compute worker died mid-batch; failing %d request(s) "
                "and replacing the pool",
                len(batch),
            )
            self._metrics.counter("serve.worker_deaths").inc()
            broken, self._pool = self._pool, self._new_pool()
            # The broken pool cannot run anything again; reap its children
            # without blocking the loop on their exit.
            broken.shutdown(wait=False, cancel_futures=True)
            for _, _, _, future in batch:
                if not future.done():
                    future.set_exception(
                        ProtocolError(
                            "a compute worker process died while running this "
                            "batch; the request may be retried",
                            code="worker-died",
                            status=500,
                        )
                    )
            return
        except Exception as e:  # pragma: no cover - defensive
            for _, _, _, future in batch:
                if not future.done():
                    future.set_exception(
                        ProtocolError(
                            f"batch dispatch failed: {type(e).__name__}: {e}",
                            code="internal-error",
                            status=500,
                        )
                    )
            return
        absorb_shipment(shipment)
        now = time.perf_counter()
        for (_, _, submitted, future), (kind, payload, meta) in zip(batch, outcomes):
            if future.done():
                continue
            # Wall time from submit to result, minus worker-measured
            # compute: everything spent in the batch window, the pool's
            # call queue, and behind batch-mates.
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
