"""Partition-as-a-service (``repro serve`` / ``repro route``).

A long-lived asyncio JSON-over-HTTP service around the partitioning
pipeline, so many queries amortise one warm process: request validation
with typed errors (:mod:`~repro.serve.protocol`), canonical-key request
coalescing and a completed-response LRU, micro-batching of compute onto
a process pool (:mod:`~repro.serve.batching` →
:mod:`~repro.serve.pipeline`), bounded admission with 429 backpressure,
per-request deadlines, and graceful drain — all metered through
:mod:`repro.obs` (:mod:`~repro.serve.server`, on the HTTP core in
:mod:`~repro.serve.http` that the router shares).  Blocking and asyncio
clients live in :mod:`~repro.serve.client`; the closed-loop load
generator behind ``repro loadgen`` in :mod:`~repro.serve.loadgen`.

:mod:`~repro.serve.cluster` scales this horizontally: ``repro route``
fronts N replicas with shard-affine rendezvous hashing of the canonical
request key, health-tracked failover, periodic cross-replica cache
exchange through the shared ``--cache-dir``, and merged ``/metrics`` +
``/debug`` aggregation.
"""

from .client import (
    AsyncConnectionPool,
    AsyncServeClient,
    ServeClient,
    ServeError,
    backoff_delay_s,
)
from .protocol import PartitionRequest, ProtocolError, validate_partition_request
from .server import EmbeddedServer, PartitionServer, ServeConfig, serve_main
from .cluster import (
    EmbeddedRouter,
    RouterConfig,
    RouterServer,
    rendezvous_order,
    route_main,
)
from .loadgen import ClusterHandle, loadgen_main, spawn_cluster, spawn_router

__all__ = [
    "AsyncConnectionPool",
    "AsyncServeClient",
    "ServeClient",
    "ServeError",
    "backoff_delay_s",
    "PartitionRequest",
    "ProtocolError",
    "validate_partition_request",
    "EmbeddedServer",
    "PartitionServer",
    "ServeConfig",
    "serve_main",
    "EmbeddedRouter",
    "RouterConfig",
    "RouterServer",
    "rendezvous_order",
    "route_main",
    "ClusterHandle",
    "loadgen_main",
    "spawn_cluster",
    "spawn_router",
]
