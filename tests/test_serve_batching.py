"""The worker pool's dispatch policy and worker-death handling.

:class:`~repro.serve.workers.WorkerPool` ships a request to an idle
worker inside ``submit``; requests that arrive while every worker is
busy wait in a FIFO and go one at a time to the next worker that frees.
No test depends on wall-clock time: "busy" is made by the hydration
handshake every new worker runs, or by stopping a worker with SIGSTOP.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.obs import get_registry
from repro.serve.protocol import ProtocolError, validate_partition_request
from repro.serve.workers import WorkerPool


def _request(n: int):
    return validate_partition_request(
        {"source": f"Doall (i, 1, {n})\n  A[i] = B[i]\nEndDoall\n", "processors": 4}
    )


async def _with_pool(body, **kwargs):
    pool = WorkerPool(**kwargs)
    pool.start()
    try:
        return await body(pool)
    finally:
        await pool.stop()


def _resume(*pids: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGCONT)
        except ProcessLookupError:
            pass


def test_lone_request_dispatched_inside_submit():
    async def body(b):
        await b.prewarm()
        task = asyncio.ensure_future(b.submit(_request(8), "lone"))
        await asyncio.sleep(0)  # submit runs up to awaiting its result
        assert not b._pending
        assert [w.item[1] for w in b._slots if w.item] == ["lone"]
        report, meta = await task
        assert report["schema"] == "repro.run-report"
        assert meta["request_id"] == "lone"
        assert meta["worker_pid"] in b.worker_pids()

    asyncio.run(_with_pool(body, workers=1))


def test_queued_requests_spread_over_freed_workers():
    """A backlog goes one request per freed worker, not all to the first.

    Both workers are stopped, each holding one request, with two more
    queued behind them.  ``first`` resumes, answers, takes the oldest
    queued request and is stopped again; ``second`` resumes and must
    take the other one.
    """

    async def body(b):
        await b.prewarm()
        pids = b.worker_pids()
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        try:
            held = [asyncio.ensure_future(b.submit(_request(8 + k))) for k in range(2)]
            await asyncio.sleep(0)
            assert not b._pending  # one request on each stopped worker
            queued = [asyncio.ensure_future(b.submit(_request(64 + k))) for k in range(2)]
            await asyncio.sleep(0)
            first = pids[0]
            _resume(first)
            done, _ = await asyncio.wait(held, return_when=asyncio.FIRST_COMPLETED)
            os.kill(first, signal.SIGSTOP)
            assert [t.result()[1]["worker_pid"] for t in done] == [first]
            (second,) = set(pids) - {first}
            _resume(second)
            await asyncio.gather(*held)
            _resume(first)
            results = await asyncio.gather(*queued)
        finally:
            _resume(*pids)  # never leave a worker stopped
        assert {meta["worker_pid"] for _, meta in results} == set(pids)

    asyncio.run(_with_pool(body, workers=2))


def test_drain_flushes_coalesced_requests():
    async def body(b):
        tasks = [asyncio.ensure_future(b.submit(_request(8 + k))) for k in range(4)]
        await asyncio.sleep(0)
        assert len(b._pending) == 4  # all behind the hydrating worker
        await b.drain()
        assert not b._pending
        assert all(t.done() and not t.exception() for t in tasks)

    asyncio.run(_with_pool(body, workers=1))


def test_stop_fails_pending_requests():
    async def body(b):
        task = asyncio.ensure_future(b.submit(_request(8)))
        await asyncio.sleep(0)
        await b.stop()
        with pytest.raises(ProtocolError) as exc:
            await task
        assert exc.value.code == "shutting-down" and exc.value.status == 503

    asyncio.run(_with_pool(body, workers=1))


def test_one_dead_worker_fails_only_its_batch():
    deaths = get_registry().counter("serve.worker_deaths")

    async def body(b):
        await b.prewarm()
        victim, survivor = b.worker_pids()
        deaths_before = deaths.value
        # Stopped workers cannot answer, so both stay busy with their
        # request until they are killed or continued.
        for pid in (victim, survivor):
            os.kill(pid, signal.SIGSTOP)
        try:
            tasks = [asyncio.ensure_future(b.submit(_request(8 + k))) for k in range(2)]
            await asyncio.sleep(0)
            assert not b._pending  # one request on each worker
            os.kill(victim, signal.SIGKILL)
        finally:
            _resume(victim, survivor)  # never leave a worker stopped
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

    asyncio.run(_with_pool(body, workers=2))
