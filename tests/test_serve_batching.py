"""The batcher's dispatch policy and worker-death handling.

:class:`~repro.serve.batching.MicroBatcher` ships a request to an idle
worker inside ``submit``; requests that arrive while every worker is
busy pile up and leave as batches of at most ``max_batch`` when a
worker frees.  Each test reads which batches shipped from the
``serve.batch_size`` histogram.  No test depends on wall-clock time:
"busy" is made by submitting within one event-loop iteration (a reply
cannot be read before the loop polls again), by the hydration
handshake every new worker runs, or by stopping a worker with SIGSTOP.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.obs import get_registry
from repro.serve.batching import MicroBatcher
from repro.serve.protocol import ProtocolError, validate_partition_request


def _request(n: int):
    return validate_partition_request(
        {"source": f"Doall (i, 1, {n})\n  A[i] = B[i]\nEndDoall\n", "processors": 4}
    )


def _batch_sizes() -> dict[int, int]:
    """The ``serve.batch_size`` bins: batch size → batches shipped."""
    return dict(get_registry().histogram("serve.batch_size").bins)


def _shipped_since(before: dict[int, int]) -> dict[int, int]:
    after = _batch_sizes()
    return {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}


async def _with_batcher(body, **kwargs):
    batcher = MicroBatcher(**kwargs)
    batcher.start()
    try:
        return await body(batcher)
    finally:
        await batcher.stop()


def test_lone_request_dispatched_inside_submit():
    async def body(b):
        await b.prewarm()
        before = _batch_sizes()
        task = asyncio.ensure_future(b.submit(_request(8), "lone"))
        await asyncio.sleep(0)  # submit runs up to awaiting its result
        assert not b._pending
        assert _shipped_since(before) == {1: 1}
        report, meta = await task
        assert report["schema"] == "repro.run-report"
        assert meta["request_id"] == "lone"
        assert meta["worker_pid"] in b.worker_pids()

    asyncio.run(_with_batcher(body, workers=1))


def test_requests_behind_a_busy_worker_ship_as_one_batch():
    async def body(b):
        await b.prewarm()
        before = _batch_sizes()
        # One event-loop iteration: the first request takes the idle
        # worker, the other five find it busy and pile up.
        tasks = [asyncio.ensure_future(b.submit(_request(8 + k))) for k in range(6)]
        results = await asyncio.gather(*tasks)
        assert all(r["schema"] == "repro.run-report" for r, _ in results)
        assert _shipped_since(before) == {1: 1, 5: 1}

    asyncio.run(_with_batcher(body, workers=1))


def test_max_batch_splits_a_backlog():
    async def body(b):
        # Submitted before the hydration handshake returns: all five
        # wait behind the busy worker, then leave two at a time.
        before = _batch_sizes()
        tasks = [asyncio.ensure_future(b.submit(_request(8 + k))) for k in range(5)]
        await asyncio.gather(*tasks)
        assert _shipped_since(before) == {2: 2, 1: 1}

    asyncio.run(_with_batcher(body, workers=1, max_batch=2))


def test_drain_flushes_coalesced_requests():
    async def body(b):
        tasks = [asyncio.ensure_future(b.submit(_request(8 + k))) for k in range(4)]
        await asyncio.sleep(0)
        assert len(b._pending) == 4  # all behind the hydrating worker
        await b.drain()
        assert not b._pending
        assert all(t.done() and not t.exception() for t in tasks)

    asyncio.run(_with_batcher(body, workers=1))


def test_stop_fails_pending_requests():
    async def body(b):
        task = asyncio.ensure_future(b.submit(_request(8)))
        await asyncio.sleep(0)
        await b.stop()
        with pytest.raises(ProtocolError) as exc:
            await task
        assert exc.value.code == "shutting-down" and exc.value.status == 503

    asyncio.run(_with_batcher(body, workers=1))


def test_one_dead_worker_fails_only_its_batch():
    deaths = get_registry().counter("serve.worker_deaths")

    async def body(b):
        await b.prewarm()
        victim, survivor = b.worker_pids()
        deaths_before = deaths.value
        # Stopped workers cannot answer, so both stay busy with their
        # batch until they are killed or continued.
        for pid in (victim, survivor):
            os.kill(pid, signal.SIGSTOP)
        try:
            tasks = [asyncio.ensure_future(b.submit(_request(8 + k))) for k in range(2)]
            await asyncio.sleep(0)
            assert not b._pending  # one batch on each worker
            os.kill(victim, signal.SIGKILL)
        finally:
            for pid in (victim, survivor):  # never leave a worker stopped
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        failed = [o for o in outcomes if isinstance(o, ProtocolError)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert len(failed) == 1 and len(served) == 1, outcomes
        assert failed[0].code == "worker-died" and failed[0].status == 500
        assert served[0][1]["worker_pid"] == survivor
        assert deaths.value == deaths_before + 1
        pids = b.worker_pids()
        assert survivor in pids and victim not in pids and len(pids) == 2
        # The restarted slot serves again.
        await b.prewarm()
        report, _ = await b.submit(_request(16))
        assert report["schema"] == "repro.run-report"

    asyncio.run(_with_batcher(body, workers=2))
