"""Client-side 429 retry behaviour.

The service sheds load with 429 + ``Retry-After`` when its admission
queue is full; the client must absorb that transparently — capped
exponential backoff honoring the hint, with *deterministic* seeded
jitter so any retry schedule is reproducible — and only surface the 429
once ``max_retries_429`` attempts are exhausted.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.serve import (
    EmbeddedServer,
    ServeClient,
    ServeConfig,
    ServeError,
    backoff_delay_s,
)

FAST_SOURCE = "Doall (i, 1, 8)\n  A[i] = B[i]\nEndDoall\n"

SLOW_SOURCE = (
    "Doall (i, 1, N)\n"
    "  Doall (j, 1, N)\n"
    "    Doall (k, 1, N)\n"
    "      A(i,j,k) = B(i-1,j,k+1) + B(i,j+1,k) + B(i+1,j-2,k-3)\n"
    "    EndDoall\n"
    "  EndDoall\n"
    "EndDoall\n"
)


class TestBackoffDelay:
    def test_exponential_growth_and_cap(self):
        delays = [backoff_delay_s(a, None, base_s=0.05, cap_s=2.0) for a in range(8)]
        assert delays[:4] == [0.05, 0.1, 0.2, 0.4]
        assert delays[-1] == 2.0  # capped, not 6.4

    def test_retry_after_is_a_floor(self):
        assert backoff_delay_s(0, 0.8, base_s=0.05, cap_s=2.0) == 0.8
        # ... until the exponential term overtakes it.
        assert backoff_delay_s(5, 0.8, base_s=0.05, cap_s=2.0) == 1.6
        # The cap still wins over a huge hint.
        assert backoff_delay_s(0, 60.0, base_s=0.05, cap_s=2.0) == 2.0

    def test_jitter_is_deterministic_and_bounded(self):
        a = [backoff_delay_s(i, None, rng=random.Random(7)) for i in range(6)]
        b = [backoff_delay_s(i, None, rng=random.Random(7)) for i in range(6)]
        assert a == b  # same seed, same schedule
        for attempt, jittered in enumerate(a):
            plain = backoff_delay_s(attempt, None)
            assert plain <= jittered <= plain * 1.1


def _occupy(port: int, done: threading.Event) -> None:
    # method="auto" runs the parallelepiped portfolio (about 0.15 s warm):
    # the rectangular pass alone takes a few milliseconds and can finish
    # before the test sees it in flight.
    with ServeClient("127.0.0.1", port, max_retries_429=0) as c:
        c.partition(SLOW_SOURCE, 8, bindings={"N": 20}, method="auto", label="occupy")
    done.set()


def _wait_inflight(port: int) -> None:
    with ServeClient("127.0.0.1", port) as c:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if c.healthz()["inflight"] >= 1:
                return
            time.sleep(0.01)
    pytest.fail("slow request never became in-flight")


@pytest.fixture
def tiny_server():
    """workers=1, queue_depth=1: one slow request saturates admission."""
    with EmbeddedServer(ServeConfig(port=0, workers=1, queue_depth=1)) as emb:
        yield emb


class TestBlockingClientRetries:
    def test_client_rides_out_overload(self, tiny_server):
        done = threading.Event()
        t = threading.Thread(target=_occupy, args=(tiny_server.port, done))
        t.start()
        try:
            _wait_inflight(tiny_server.port)
            with ServeClient(
                "127.0.0.1", tiny_server.port,
                max_retries_429=100, backoff_base_s=0.05, backoff_cap_s=0.5,
            ) as c:
                report = c.partition(FAST_SOURCE, 4, label="patient")
                assert report["schema"] == "repro.run-report"
                # The admission queue was full when we started, so the
                # success came through at least one 429 retry.
                assert c.retries_429 >= 1
        finally:
            t.join(timeout=120)
        assert done.is_set()

    def test_retries_exhausted_surfaces_429(self, tiny_server):
        done = threading.Event()
        t = threading.Thread(target=_occupy, args=(tiny_server.port, done))
        t.start()
        try:
            _wait_inflight(tiny_server.port)
            with ServeClient(
                "127.0.0.1", tiny_server.port, max_retries_429=0
            ) as c:
                with pytest.raises(ServeError) as exc:
                    c.partition(FAST_SOURCE, 4, label="impatient")
            assert exc.value.status == 429
            assert exc.value.code == "overloaded"
            assert exc.value.retry_after is not None
        finally:
            t.join(timeout=120)

    def test_seeded_clients_share_a_schedule(self):
        # Two clients with the same seed must plan identical backoff
        # sequences (the deterministic-jitter contract, no server needed).
        a = ServeClient("127.0.0.1", 1, backoff_seed=42)
        b = ServeClient("127.0.0.1", 1, backoff_seed=42)
        seq_a = [
            backoff_delay_s(i, None, rng=a._backoff_rng) for i in range(5)
        ]
        seq_b = [
            backoff_delay_s(i, None, rng=b._backoff_rng) for i in range(5)
        ]
        assert seq_a == seq_b
