"""Versioned, machine-readable run reports.

The report is the single artifact of one pipeline run: what program was
partitioned, what tile was chosen, what the analytic model *predicted*
(cumulative footprints, Eq. 2 / Theorems 2–4), what the MSI machine
simulator *measured*, and how far apart the two are — the predicted-vs-
measured loop that EXPERIMENTS.md documents, as data instead of prose.

The schema is intentionally duck-typed over the repository's result
objects (``PartitionResult``, ``TrafficEstimate``, ``SimulationResult``)
so this module imports nothing outside the stdlib and can never create an
import cycle with the layers it observes.

Top-level shape (version 2)::

    {
      "schema": "repro.run-report",
      "version": 2,
      "generated_by": "repro <version>",
      "program":   {...},              # source, processors, bindings, space
      "partition": {...},              # method, tile, grid, comm-free
      "predicted": {...},              # per-tile analytic traffic
      "measured":  {...},              # simulator counts (when simulated)
      "prediction_error": {...},       # ratios predicted vs measured
      "spans":     [...],              # per-phase wall time (tracing)
      "caches":    {...},              # analytic-cache counts (optional)
      "meta":      {...}               # caller's extras (optional)
    }

``measured`` holds every count the simulator keeps, each once, read
from the component that owns it.  Version 1 also carried a ``metrics``
array that repeated those counts as a registry snapshot; version 2
dropped it, and this reader rejects version-1 files.
"""

from __future__ import annotations

import json

__all__ = [
    "REPORT_SCHEMA",
    "REPORT_VERSION",
    "CHECK_REPORT_SCHEMA",
    "CHECK_REPORT_VERSION",
    "ReportError",
    "build_report",
    "build_check_report",
    "predicted_section",
    "measured_section",
    "prediction_error_section",
    "dump_report",
    "load_report",
    "validate_report",
    "validate_check_report",
]

REPORT_SCHEMA = "repro.run-report"
REPORT_VERSION = 2

# Differential self-check reports (``repro check``, :mod:`repro.check`).
CHECK_REPORT_SCHEMA = "repro.check-report"
CHECK_REPORT_VERSION = 1

_REQUIRED_KEYS = ("schema", "version", "generated_by", "program", "predicted")
_REQUIRED_MEASURED_KEYS = ("total_misses", "miss_breakdown", "per_processor", "network")

#: Per-cache counts that :class:`~repro.sim.executor.ProcessorStats` does
#: not carry; ``measured_section`` reads them from the machine's caches.
_CACHE_ONLY_COUNTS = (
    "read_hits",
    "write_hits",
    "evictions",
    "invalidations_received",
    "probe_invalidations",
)


class ReportError(ValueError):
    """A report violates the schema."""


def _ratio(measured: float, predicted: float) -> float | None:
    return (measured / predicted) if predicted else None


def predicted_section(estimate) -> dict:
    """Serialise a :class:`~repro.core.cost.TrafficEstimate`."""
    return {
        "cold_misses_per_tile": float(estimate.cold_misses),
        "coherence_traffic_per_tile": float(estimate.coherence_traffic),
        "tile_iterations": float(estimate.tile_iterations),
        "by_array": {k: float(v) for k, v in estimate.by_array().items()},
        "classes": [
            {
                "array": c.uiset.array,
                "references": c.uiset.size,
                "footprint": float(c.footprint),
                "single_footprint": float(c.single_footprint),
                "boundary": float(c.boundary),
            }
            for c in estimate.classes
        ],
    }


def partition_section(result) -> dict:
    """Serialise a :class:`~repro.core.partitioner.PartitionResult`."""
    out: dict = {
        "method": result.method,
        "communication_free": bool(result.is_communication_free),
        "l_matrix": result.tile.l_matrix.tolist(),
    }
    if getattr(result.tile, "sides", None) is not None:
        out["tile_sides"] = [int(s) for s in result.tile.sides]
    if result.grid is not None:
        out["grid"] = [int(g) for g in result.grid]
    return out


def _per_processor_breakdown(sim) -> dict[int, dict[str, int]]:
    """cold/coherence/replacement per processor, from the machine's directory."""
    out: dict[int, dict[str, int]] = {}
    directory = getattr(getattr(sim, "machine", None), "directory", None)
    if directory is None:
        return out
    for (kind, proc), n in directory.miss_classes.items():
        out.setdefault(proc, {})[kind] = n
    return out


def measured_section(sim) -> dict:
    """Serialise a :class:`~repro.sim.executor.SimulationResult`.

    With the simulated machine at hand, each processor's entry adds the
    cache counts the result does not carry and the section adds the
    directory's downgrades, writebacks and sharers-at-write bins.
    """
    machine = getattr(sim, "machine", None)
    breakdown = _per_processor_breakdown(sim)
    per_proc = []
    for p in sim.processors:
        entry = {
            "processor": p.processor,
            "iterations": p.iterations,
            "accesses": p.accesses,
            "hits": p.hits,
            "misses": p.misses,
            "read_misses": p.read_misses,
            "write_misses": p.write_misses,
            "write_upgrades": p.write_upgrades,
            "local_misses": p.local_misses,
            "remote_misses": p.remote_misses,
            "memory_cost": p.memory_cost,
            "footprint": dict(p.footprint),
            "miss_breakdown": {
                "cold": 0,
                "coherence": 0,
                "replacement": 0,
                **breakdown.get(p.processor, {}),
            },
        }
        if machine is not None:
            st = machine.caches[p.processor].stats
            for name in _CACHE_ONLY_COUNTS:
                entry[name] = getattr(st, name)
        per_proc.append(entry)
    out: dict = {
        "sweeps": sim.sweeps,
        "total_accesses": sim.total_accesses,
        "total_misses": sim.total_misses,
        "miss_rate": sim.miss_rate,
        "mean_misses_per_processor": sim.mean_misses_per_processor(),
        "max_misses_per_processor": sim.max_misses_per_processor,
        "miss_breakdown": {
            "cold": int(sim.cold_misses),
            "coherence": int(sim.coherence_misses),
            "replacement": int(sim.capacity_misses),
        },
        "invalidations": int(sim.invalidations),
        "network": {
            "messages": int(sim.network_messages),
            "hops": int(sim.network_hops),
        },
        "shared_elements": dict(sim.shared_elements),
        "per_processor": per_proc,
    }
    engine = getattr(sim, "engine", None)
    if engine is not None:
        out["engine"] = {
            "used": engine,
            "fallback_reason": getattr(sim, "engine_fallback", None),
        }
    if machine is not None:
        directory = machine.directory
        out["downgrades"] = directory.stats.downgrades
        out["writebacks"] = directory.stats.writebacks
        out["sharers_at_write"] = {
            str(k): v for k, v in sorted(directory.sharers_at_write.bins.items())
        }
        out["sharer_histogram"] = {
            str(k): v for k, v in sorted(directory.sharer_histogram().items())
        }
        recv = sum(int(c.stats.invalidations_received) for c in machine.caches)
        probe = sum(int(c.stats.probe_invalidations) for c in machine.caches)
        out["invalidation_reconciliation"] = {
            "directory_sent": int(sim.invalidations),
            "caches_received": recv,
            "probe_misses": probe,
            "reconciled": recv + probe == int(sim.invalidations),
        }
    return out


def prediction_error_section(estimate, sim, processors: int) -> dict:
    """Predicted-vs-measured ratios (the repository's yardstick numbers).

    ``ratio`` is measured / predicted (1.0 = the model is exact);
    ``rel_error`` is ``(measured - predicted) / predicted``.
    """

    def entry(predicted: float, measured: float) -> dict:
        return {
            "predicted": predicted,
            "measured": measured,
            "ratio": _ratio(measured, predicted),
            "rel_error": ((measured - predicted) / predicted) if predicted else None,
        }

    predicted_per_tile = float(estimate.cold_misses)
    out = {
        "misses_per_processor": entry(
            predicted_per_tile, sim.mean_misses_per_processor()
        ),
        "total_misses": entry(predicted_per_tile * processors, float(sim.total_misses)),
    }
    if sim.sweeps > 1:
        # Steady-state sweeps: the Figure 9 regime — boundary terms only.
        extra_sweeps = sim.sweeps - 1
        out["coherence_misses_per_sweep"] = entry(
            float(estimate.coherence_traffic) * processors,
            float(sim.coherence_misses) / extra_sweeps,
        )
    return out


def build_report(
    *,
    processors: int,
    partition=None,
    estimate=None,
    sim=None,
    program: dict | None = None,
    spans: list[dict] | None = None,
    caches: dict | None = None,
    meta: dict | None = None,
) -> dict:
    """Assemble a schema-versioned report from pipeline artifacts.

    ``partition`` is a ``PartitionResult`` (its estimate is used when
    ``estimate`` is not given); ``sim`` a ``SimulationResult``; ``spans``
    defaults to the process tracer's completed spans.  ``caches`` is an
    optional hit/miss/load snapshot of the analytic caches
    (:func:`repro.lattice.analytic_cache_stats` — passed in by the caller
    to keep this module stdlib-only).
    """
    try:
        from .. import __version__ as _version
    except Exception:  # pragma: no cover
        _version = "unknown"
    if estimate is None and partition is not None:
        estimate = partition.estimate
    if estimate is None:
        raise ReportError("build_report needs an estimate or a partition result")
    if spans is None:
        from .tracing import get_tracer

        spans = get_tracer().to_dicts()
    report: dict = {
        "schema": REPORT_SCHEMA,
        "version": REPORT_VERSION,
        "generated_by": f"repro {_version}",
        "program": dict(program or {}),
        "predicted": predicted_section(estimate),
        "spans": spans or [],
    }
    report["program"].setdefault("processors", int(processors))
    if partition is not None:
        report["partition"] = partition_section(partition)
    if sim is not None:
        report["measured"] = measured_section(sim)
        report["prediction_error"] = prediction_error_section(
            estimate, sim, processors
        )
    if caches is not None:
        report["caches"] = dict(caches)
    if meta:
        report["meta"] = dict(meta)
    return validate_report(report)


def validate_report(report: dict) -> dict:
    """Check the schema contract; returns the report for chaining."""
    if not isinstance(report, dict):
        raise ReportError(f"report must be a dict, got {type(report).__name__}")
    for key in _REQUIRED_KEYS:
        if key not in report:
            raise ReportError(f"report missing required key {key!r}")
    if report["schema"] != REPORT_SCHEMA:
        raise ReportError(f"unknown schema {report['schema']!r}")
    if report["version"] != REPORT_VERSION:
        raise ReportError(
            f"unsupported report version {report['version']!r} "
            f"(this reader handles version {REPORT_VERSION})"
        )
    if "metrics" in report:
        raise ReportError(
            "report has a 'metrics' section; the simulator counts live in "
            "'measured' since version 2"
        )
    if "measured" in report:
        measured = report["measured"]
        for key in _REQUIRED_MEASURED_KEYS:
            if key not in measured:
                raise ReportError(f"measured section missing {key!r}")
        for key in ("cold", "coherence", "replacement"):
            if key not in measured["miss_breakdown"]:
                raise ReportError(f"miss_breakdown missing {key!r}")
    return report


def build_check_report(
    *,
    cases: int,
    seed: int,
    passed: int,
    failures: list[dict],
    invariant_evaluations: dict[str, int] | None = None,
    corpus: dict | None = None,
    config: dict | None = None,
    fault: str | None = None,
    duration_s: float | None = None,
    caches: dict | None = None,
    meta: dict | None = None,
) -> dict:
    """Assemble a ``repro.check-report`` from a differential-check run.

    ``failures`` entries are produced by :mod:`repro.check.harness` and
    carry the original + shrunk case specs, the violated invariant and
    its detail string.  ``invariant_evaluations`` records how often each
    invariant was *applicable* — an all-green run with zero evaluations
    would be vacuous, so the count travels with the verdict.
    """
    try:
        from .. import __version__ as _version
    except Exception:  # pragma: no cover
        _version = "unknown"
    report: dict = {
        "schema": CHECK_REPORT_SCHEMA,
        "version": CHECK_REPORT_VERSION,
        "generated_by": f"repro {_version}",
        "cases": int(cases),
        "seed": int(seed),
        "passed": int(passed),
        "failed": len(failures),
        "failures": list(failures),
        "invariant_evaluations": dict(invariant_evaluations or {}),
    }
    if corpus is not None:
        report["corpus"] = dict(corpus)
    if config is not None:
        report["config"] = dict(config)
    if fault is not None:
        report["injected_fault"] = fault
    if duration_s is not None:
        report["duration_s"] = float(duration_s)
    if caches is not None:
        # Note: the check harness deliberately does NOT pass this — cache
        # populations differ across worker counts, and check reports must
        # be byte-stable for a fixed seed regardless of --workers.
        report["caches"] = dict(caches)
    if meta:
        report["meta"] = dict(meta)
    return validate_check_report(report)


def validate_check_report(report: dict) -> dict:
    """Check the ``repro.check-report`` contract; returns the report."""
    if not isinstance(report, dict):
        raise ReportError(f"report must be a dict, got {type(report).__name__}")
    for key in ("schema", "version", "generated_by", "cases", "seed", "passed",
                "failed", "failures", "invariant_evaluations"):
        if key not in report:
            raise ReportError(f"check report missing required key {key!r}")
    if report["schema"] != CHECK_REPORT_SCHEMA:
        raise ReportError(f"unknown schema {report['schema']!r}")
    if report["version"] != CHECK_REPORT_VERSION:
        raise ReportError(
            f"unsupported check report version {report['version']!r} "
            f"(this reader handles {CHECK_REPORT_VERSION})"
        )
    if report["failed"] != len(report["failures"]):
        raise ReportError("check report 'failed' disagrees with failure list")
    for f in report["failures"]:
        for key in ("case_id", "invariant", "detail", "spec"):
            if key not in f:
                raise ReportError(f"check failure entry missing {key!r}")
    return report


def _validate_any(report: dict) -> dict:
    if isinstance(report, dict) and report.get("schema") == CHECK_REPORT_SCHEMA:
        return validate_check_report(report)
    return validate_report(report)


def dump_report(report: dict, path) -> None:
    """Validate and write a report as pretty-printed JSON.

    Dispatches on the ``schema`` field: both ``repro.run-report`` and
    ``repro.check-report`` documents are accepted.
    """
    _validate_any(report)
    if hasattr(path, "write"):
        json.dump(report, path, indent=2)
        path.write("\n")
    else:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


def load_report(path) -> dict:
    """Read and validate a report written by :func:`dump_report`."""
    if hasattr(path, "read"):
        report = json.load(path)
    else:
        with open(path) as fh:
            report = json.load(fh)
    return _validate_any(report)
