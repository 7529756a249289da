"""One-call flow pipeline: source → report document.

:func:`repro.serve.pipeline.run_request` dispatches ``"program": "flow"``
requests here for both the CLI (``repro <file> --flow``) and the service
(``POST /v1/partition``), so a served flow response is byte-identical
(timings aside) to a CLI run of the same program
(``tests/test_serve_differential.py``).

The document is an ordinary ``repro.run-report`` (combined predicted
traffic; measured section from the end-to-end replay when simulation is
requested) plus a ``flow`` section: per-statement partitions, the
dataflow graph, the versioned communication schedule, and — when
simulated — measured transfer counts with the schedule-parity verdict.
"""

from __future__ import annotations

from ..core.cost import TrafficEstimate
from ..obs.report import build_report, partition_section, predicted_section
from ..obs.tracing import span
from .copartition import partition_flow
from .execute import simulate_flow
from .lower import compile_flow
from .schedule import build_schedule

__all__ = ["run_flow", "MAX_REPORT_TRANSFER_ROWS"]

#: Transfer entries above this count are summarised (totals + digest
#: only) in the report, keeping responses bounded; the full schedule is
#: always recomputable from the deterministic pipeline.
MAX_REPORT_TRANSFER_ROWS = 512


def run_flow(
    source: str,
    *,
    processors: int,
    bindings: dict[str, int] | None = None,
    strategy: str = "co",
    method: str = "rectangular",
    simulate: bool = False,
    sweeps: int = 1,
    line_size: int = 1,
    cache=None,
    opt_budget_s: float | None = None,
    label: str | None = None,
    include_lines: bool = False,
    max_transfer_rows: int = MAX_REPORT_TRANSFER_ROWS,
    caches=None,
) -> dict:
    """Run the full dataflow pipeline and build its run report.

    ``caches`` may be the cache-statistics dict itself or a zero-argument
    callable producing it; a callable is invoked after the pipeline has
    run, so the report reflects this request's cache activity.
    """
    graph = compile_flow(source, bindings)
    partition = partition_flow(
        graph,
        processors,
        strategy=strategy,
        method=method,
        cache=cache,
        opt_budget_s=opt_budget_s,
    )
    schedule = build_schedule(
        graph,
        partition,
        processors=processors,
        line_size=line_size,
        include_lines=include_lines,
    )

    flow_sim = None
    if simulate:
        with span("flow.simulate", processors=processors):
            flow_sim = simulate_flow(
                graph,
                partition,
                processors=processors,
                line_size=line_size,
                sweeps=sweeps,
            )

    classes = tuple(
        c for sp in partition.statements for c in sp.result.estimate.classes
    )
    combined = TrafficEstimate(
        classes=classes,
        tile_iterations=sum(
            float(sp.result.estimate.tile_iterations)
            for sp in partition.statements
        ),
    )

    report = build_report(
        processors=processors,
        estimate=combined,
        sim=flow_sim.result if flow_sim is not None else None,
        program={
            "source": label if label is not None else "<request>",
            "processors": int(processors),
            "bindings": dict(bindings or {}),
            "program": "flow",
            "strategy": strategy,
            "statements": len(graph.statements),
            "iterations": sum(
                int(s.nest.space.volume) for s in graph.statements
            ),
            "method": method,
            "sweeps": sweeps,
        },
        caches=caches() if callable(caches) else caches,
    )

    sched_doc = dict(schedule)
    if len(sched_doc["transfers"]) > max_transfer_rows:
        sched_doc["transfers_truncated"] = len(sched_doc["transfers"])
        sched_doc["transfers"] = []

    flow_section: dict = {
        "strategy": partition.strategy,
        "predicted_compute": float(partition.predicted_compute),
        "predicted_transfers": float(partition.predicted_transfers),
        "candidates_scored": int(partition.candidates_scored),
        "statements": [
            {
                "name": sp.name,
                "extents": sp.statement.nest.space.extents.tolist(),
                "iterations": int(sp.statement.nest.space.volume),
                "tiles": sp.num_tiles(),
                "sweeps": sp.statement.sweeps,
                "partition": partition_section(sp.result),
                "predicted": predicted_section(sp.result.estimate),
            }
            for sp in partition.statements
        ],
        "graph": {
            "edges": [
                {
                    "producer": graph.statements[e.producer].name,
                    "consumer": graph.statements[e.consumer].name,
                    "array": e.array,
                    "kind": e.kind,
                }
                for e in graph.edges
            ]
        },
        "schedule": sched_doc,
    }
    if flow_sim is not None:
        sched_pc = schedule["totals"]["per_consumer"]
        measured_pc = flow_sim.transfers["per_consumer"]
        flow_section["measured_transfers"] = flow_sim.transfers
        flow_section["parity"] = {
            "match": sched_pc == measured_pc,
            "schedule": sched_pc,
            "measured": measured_pc,
        }
        flow_section["phases"] = [
            {
                "statement": ph.statement,
                "round": ph.round,
                "accesses": ph.accesses,
                "misses": ph.misses,
                "cold_misses": ph.cold_misses,
                "coherence_misses": ph.coherence_misses,
                "invalidations": ph.invalidations,
                "network_messages": ph.network_messages,
            }
            for ph in flow_sim.phases
        ]
    report["flow"] = flow_section
    return report
