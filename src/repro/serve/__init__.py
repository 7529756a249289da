"""Partition-as-a-service (``repro serve``).

A long-lived asyncio JSON-over-HTTP service around the partitioning
pipeline, so many queries amortise one warm process: request validation
with typed errors (:mod:`~repro.serve.protocol`), canonical-key request
coalescing and a completed-response LRU, dispatch of compute to worker
processes over one pipe each, one request at a time
(:mod:`~repro.serve.workers` → :mod:`~repro.serve.pipeline`), bounded
admission with 429 backpressure, per-request deadlines, and graceful
drain — all metered through :mod:`repro.obs`, in one server class
(:mod:`~repro.serve.server`; request framing in
:mod:`~repro.serve.http`).  Workers run
:func:`~repro.serve.pipeline.run_request`, the same pipeline as the
one-shot CLI; ``--workers N`` is how one server uses N cores, all of
them behind one response cache.  The blocking client lives in
:mod:`~repro.serve.client`; the closed-loop load generator behind
``repro loadgen`` in :mod:`~repro.serve.loadgen`.
"""

import importlib

#: Each public name → the submodule that defines it.  Submodules load on
#: first use, so a process that needs only the request pipeline (the
#: one-shot CLI, a pool worker) does not import the server, the load
#: generator and asyncio.
_EXPORTS = {
    "ServeClient": "client",
    "ServeError": "client",
    "backoff_delay_s": "client",
    "PartitionRequest": "protocol",
    "ProtocolError": "protocol",
    "validate_partition_request": "protocol",
    "EmbeddedServer": "server",
    "PartitionServer": "server",
    "ServeConfig": "server",
    "serve_main": "server",
    "loadgen_main": "loadgen",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
