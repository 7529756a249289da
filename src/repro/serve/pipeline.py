"""The request pipeline: a partition request → a run report.

:func:`run_request` is the one implementation of the paper's compiler
pass (Section 4) behind both front ends: parse, lower, classify,
communication-free hyperplanes, optimise the tile, predict traffic,
optionally simulate, and build the schema-versioned ``repro.run-report``
document.  ``program == "flow"`` requests go to
:func:`repro.flow.run.run_flow` instead.  The one-shot CLI builds a
:class:`~repro.serve.protocol.PartitionRequest` from argv and calls it
directly (printing its summary from the returned objects);
:func:`execute_request` is the service's thin wrapper around it, so a
served response is byte-identical (timings aside) to a CLI
``--json-report`` of the same program.  ``tests/test_serve_differential.py``
holds that equivalence, on error paths too.

The module is imported by the server's compute workers
(:mod:`repro.serve.batching` runs :func:`run_batch` in them), so everything
here must be picklable by reference and safe to run serially in a
long-lived worker: the tracer is reset per request (span lists must not
accumulate across requests).  The worker's analytic caches stay in the
worker; each batch reply carries only a snapshot of their counters
(:func:`~repro.lattice.memo.analytic_cache_stats`), which the server
sums over its workers for ``/metrics``.

Each batch item carries the request id the server minted, and each
outcome returns a *compute meta* — worker pid, measured compute seconds,
and (when trace shipping is on) the serialized span trees the request
produced, with the request id stamped on every root — so the server can
stitch one cross-process trace per request without the report body
changing by a byte.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time
from typing import NamedTuple

from ..core.loopnest import LoopNest
from ..core.partitioner import LoopPartitioner, PartitionResult
from ..exceptions import ReproError
from ..lang import LoopNode, lower_nest, parse_program
from ..lattice import DEFAULT_LATTICE_CACHE, analytic_cache_stats
from ..obs import build_report, get_tracer, span
from ..sim import Machine, MachineConfig, SimulationResult, simulate_nest
from .protocol import PartitionRequest, ProtocolError

__all__ = [
    "RequestRun", "run_request", "execute_request", "run_batch", "init_worker",
]


class RequestRun(NamedTuple):
    """What :func:`run_request` produced: the run report, plus the
    objects the CLI prints its summary from (all ``None`` for flow
    programs, whose summary is the report's ``flow`` section)."""

    report: dict
    nests: int | None = None
    node: LoopNode | None = None
    nest: LoopNest | None = None
    partition: PartitionResult | None = None
    sim: SimulationResult | None = None


def run_request(
    request: PartitionRequest,
    *,
    opt_budget_s: float | None,
    observer=None,
) -> RequestRun:
    """Run the full pipeline for one request.

    The grid search memoises its lattice counts in the process's
    :data:`~repro.lattice.DEFAULT_LATTICE_CACHE`.  ``opt_budget_s`` is
    the per-member wall-time budget of the parallelepiped portfolio.  ``observer`` receives the simulator's
    per-access events (the CLI's ``--trace-out``).  Only the first nest
    of a multi-nest source is partitioned.  Pipeline failures raise
    :class:`~repro.exceptions.ReproError`.
    """
    if request.program == "flow":
        from ..flow import run_flow

        return RequestRun(run_flow(
            request.source,
            processors=request.processors,
            bindings=dict(request.bindings),
            strategy=request.strategy,
            method=request.method,
            simulate=request.simulate,
            sweeps=request.sweeps,
            cache=DEFAULT_LATTICE_CACHE,
            opt_budget_s=opt_budget_s,
            label=request.label,
            caches=analytic_cache_stats,
        ))
    bindings = dict(request.bindings)
    with span("lang.parse"):
        program = parse_program(request.source)
    node = program.nests[0]
    nest = lower_nest(node, bindings)
    result = LoopPartitioner(nest, request.processors).partition(
        method=request.method,
        cache=DEFAULT_LATTICE_CACHE,
        opt_budget_s=opt_budget_s,
    )
    sim = None
    if request.simulate:
        sim = simulate_nest(
            nest,
            result.tile,
            request.processors,
            sweeps=request.sweeps,
            machine=Machine(MachineConfig(processors=request.processors)),
            observer=observer,
            engine=request.engine,
        )
    report = build_report(
        processors=request.processors,
        partition=result,
        sim=sim,
        program={
            "source": request.label if request.label is not None else "<request>",
            "processors": request.processors,
            "bindings": bindings,
            "extents": nest.space.extents.tolist(),
            "iterations": int(nest.space.volume),
            "method": request.method,
            "sweeps": request.sweeps,
        },
        caches=analytic_cache_stats(),
    )
    return RequestRun(report, len(program.nests), node, nest, result, sim)


def execute_request(request: PartitionRequest) -> dict:
    """Run one request in a worker; returns the run report.

    Uses the worker's budget setting (:func:`init_worker`)
    and raises :class:`~repro.serve.protocol.ProtocolError` for declared
    pipeline failures (unparsable source, unbound symbols, infeasible
    optimisation) so callers can map them to a 422 without pattern-
    matching exception types.
    """
    get_tracer().reset()  # the report's spans describe only this request
    try:
        return run_request(request, opt_budget_s=_OPT_BUDGET_S).report
    except ReproError as e:
        raise ProtocolError(str(e), code="pipeline-error") from e


# ----------------------------------------------------------------------
# Worker plumbing (module-level so a worker can unpickle by reference)

#: Per-member wall-time budget for the parallelepiped portfolio (set by
#: :func:`init_worker` from the server's ``--opt-budget``); ``None``
#: keeps partition responses bit-reproducible.
_OPT_BUDGET_S: float | None = None


def init_worker(
    plan_cache: bool = False,
    opt_budget_s: float | None = None,
) -> None:
    """Worker initializer: detach from the server, set the budget.

    ``opt_budget_s`` caps each parallelepiped portfolio member's wall
    time for every request this worker runs.  ``plan_cache`` is
    accepted and ignored: the structure-keyed plan tier it enabled is
    gone, and ``perfbench/worker.py`` (``verify_serve``) still passes
    ``plan_cache=True``; it goes with the next benchmark change.

    A forked worker inherits the server's asyncio signal setup: no-op
    SIGTERM/SIGINT handlers and a wakeup fd into the server's event
    loop.  In a compute worker both are reset, so the worker dies on
    SIGTERM/SIGINT like any process, and on Linux the kernel SIGKILLs
    the worker when the server thread that forked it goes — after a
    SIGKILLed server nobody else would end it.  Called in-process (not
    in a compute worker) it only sets the module state.
    """
    global _OPT_BUDGET_S
    _detach_from_server()
    _OPT_BUDGET_S = opt_budget_s
    # Test hook: REPRO_TEST_WORKER_INIT_DELAY_S stretches worker
    # hydration so the /healthz readiness window is observable.
    delay = os.environ.get("REPRO_TEST_WORKER_INIT_DELAY_S")
    if delay:
        try:
            time.sleep(float(delay))
        except ValueError:
            pass


def _load_prctl():
    """libc's ``prctl``, resolved before any fork, or ``None`` off Linux."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        import ctypes

        return ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None


_PRCTL = _load_prctl()
_PR_SET_PDEATHSIG = 1


def _detach_from_server() -> None:
    parent = multiprocessing.parent_process()
    if parent is None:
        return
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    if _PRCTL is not None:
        _PRCTL(_PR_SET_PDEATHSIG, int(signal.SIGKILL))
    if os.getppid() != parent.pid:
        os._exit(1)  # the server died before the death signal was armed


def _compute_meta(request_id: str | None, compute_s: float, ship_traces: bool) -> dict:
    """Per-request telemetry shipped back alongside the outcome.

    The span trees are re-serialized from the tracer (independent dicts
    from the ones embedded in the report) and stamped with the request
    id, so stitching never mutates — or depends on — the report body.
    """
    meta: dict = {
        "request_id": request_id,
        "worker_pid": os.getpid(),
        "compute_s": compute_s,
    }
    if ship_traces:
        spans = get_tracer().to_dicts()
        if request_id is not None:
            for root in spans:
                root.setdefault("attrs", {})["request_id"] = request_id
        meta["spans"] = spans
    return meta


def run_batch(
    items: list[tuple[PartitionRequest, str | None]],
    ship_traces: bool = True,
) -> tuple[list[tuple[str, dict, dict]], dict]:
    """Execute a micro-batch of requests in this worker process.

    ``items`` pairs each request with the server-minted request id; the
    worker must have run :func:`init_worker`.  Returns
    ``(outcomes, caches)`` where each outcome is
    ``("ok", report, meta)`` or ``("error", payload, meta)`` with
    ``payload`` in the protocol's error shape plus a ``status`` the
    server strips before sending, ``meta`` the telemetry of
    :func:`_compute_meta`, and ``caches`` this worker's
    :func:`~repro.lattice.memo.analytic_cache_stats` after the batch.
    Exceptions never escape: one poisoned request must not take down
    its batch-mates (their futures would all fail) or the worker.
    """
    outcomes: list[tuple[str, dict, dict]] = []
    for request, request_id in items:
        t0 = time.perf_counter()
        try:
            kind, payload = "ok", execute_request(request)
        except ProtocolError as e:
            payload = e.to_payload()
            payload["status"] = e.status
            kind = "error"
        except Exception as e:  # pragma: no cover - worker safety net
            from .protocol import error_payload

            payload = error_payload("internal-error", f"{type(e).__name__}: {e}")
            payload["status"] = 500
            kind = "error"
        meta = _compute_meta(request_id, time.perf_counter() - t0, ship_traces)
        outcomes.append((kind, payload, meta))
    return outcomes, analytic_cache_stats()
