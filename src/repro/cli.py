"""Command-line driver: partition a Doall program and report.

::

    python -m repro program.doall -p 16 -D N=64 [--method auto]
                                  [--simulate] [--sweeps 2]
                                  [--engine auto|fast|exact]
                                  [--opt-budget SECONDS]
                                  [--pseudocode 0,1] [--data]
                                  [--json-report out.json]
                                  [--trace-out trace.jsonl] [--trace-sample 10]
                                  [--profile] [--log-level debug]

Reads a Doall-language source file (or ``-`` for stdin), runs the full
pipeline — classify, detect communication-free hyperplanes, optimise the
tile, predict traffic — and optionally validates the prediction on the
machine simulator and emits per-processor pseudo-code.  The pipeline is
:func:`repro.serve.pipeline.run_request`, the one the service's workers
run: the CLI builds a :class:`~repro.serve.protocol.PartitionRequest`
from argv, calls it, and prints its summary from the returned objects,
so ``--json-report`` equals a ``POST /v1/partition`` response for the
same program.

Observability (see :mod:`repro.obs`): ``--json-report`` writes the
schema-versioned run report (per-phase timings, predicted vs measured
traffic, per-processor miss breakdown, prediction-error ratios);
``--trace-out`` writes a sampled JSONL per-access event trace (requires
``--simulate``); ``--profile`` prints a per-phase wall-time / peak-RSS
table; ``--log-level`` enables structured diagnostics on stderr.

``python -m repro check --cases N --seed S [--corpus PATH]`` runs the
differential self-check (:mod:`repro.check`) instead of the pipeline;
``python -m repro serve`` starts the long-lived partition service,
``python -m repro route`` fronts N such replicas with a shard-affine
consistent-hash router (:mod:`repro.serve.cluster`) and
``python -m repro loadgen`` drives load against either (:mod:`repro.serve`);
``python -m repro top`` is a live terminal dashboard over a running
server's ``/metrics`` + ``/debug`` endpoints and ``python -m repro trace
show <file|id>`` pretty-prints a stitched span tree
(:mod:`repro.cli_top`).
"""

from __future__ import annotations

import argparse
import sys

from .codegen import TileSchedule, emit_pseudocode
from .exceptions import ReproError
from .obs import (
    EventTraceWriter,
    configure_logging,
    dump_report,
    get_logger,
    get_tracer,
)
from .serve.pipeline import run_request
from .serve.protocol import PartitionRequest
from .sim import format_table

__all__ = ["main", "build_parser"]

logger = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Automatic loop partitioning for cache-coherent "
        "multiprocessors (Agarwal, Kranz & Natarajan, ICPP 1993).",
    )
    p.add_argument("source", help="Doall program file, or '-' for stdin")
    p.add_argument("-p", "--processors", type=int, default=4)
    p.add_argument(
        "-D",
        "--define",
        action="append",
        default=[],
        metavar="NAME=INT",
        help="bind a symbolic size (repeatable), e.g. -D N=64",
    )
    p.add_argument(
        "--method",
        choices=["rectangular", "parallelepiped", "auto"],
        default="rectangular",
    )
    p.add_argument(
        "--simulate",
        action="store_true",
        help="run the partitioned nest on the machine simulator",
    )
    p.add_argument("--sweeps", type=int, default=1, help="Doseq sweeps to simulate")
    p.add_argument(
        "--engine",
        choices=["auto", "fast", "exact"],
        default="auto",
        help="simulator execution engine: 'fast' resolves provably-private "
        "lines in bulk, 'exact' drives every access through the MSI "
        "protocol, 'auto' picks fast when its preconditions hold",
    )
    p.add_argument(
        "--opt-budget",
        type=float,
        metavar="SECONDS",
        help="wall-time budget per parallelepiped portfolio member (SLSQP, "
        "simulated annealing); members stop at deterministic checkpoints "
        "when it runs out — unbudgeted runs are bit-reproducible",
    )
    p.add_argument(
        "--flow",
        action="store_true",
        help="treat the source as a multi-statement dataflow program "
        "(repro.flow): legalize each statement into the paper's form, "
        "co-partition across flow dependences, and emit the inter-tile "
        "communication schedule",
    )
    p.add_argument(
        "--flow-strategy",
        choices=["co", "independent"],
        default="co",
        help="flow tile selection: 'co' aligns producer/consumer grids to "
        "minimize total traffic, 'independent' optimizes each statement "
        "alone (default: co)",
    )
    p.add_argument(
        "--pseudocode",
        metavar="PROCS",
        help="emit pseudo-code for a comma-separated processor list",
    )
    p.add_argument(
        "--data",
        action="store_true",
        help="also report the data-partitioning (a+) tile choice",
    )
    p.add_argument(
        "--json-report",
        metavar="PATH",
        help="write the machine-readable run report (repro.obs schema)",
    )
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a sampled JSONL per-access event trace (with --simulate)",
    )
    p.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="keep every Nth access in the event trace (default 1 = all)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase wall time and peak RSS after the run",
    )
    p.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        help="enable repro.* structured logging on stderr at this level",
    )
    return p


def _bindings(defs: list[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for d in defs:
        if "=" not in d:
            raise SystemExit(f"bad -D {d!r}: expected NAME=INT")
        name, _, value = d.partition("=")
        try:
            out[name.strip()] = int(value)
        except ValueError as e:
            raise SystemExit(f"bad -D {d!r}: {e}") from e
    return out


def _profile_table(tracer) -> str:
    rows = []

    def add(span_node, depth: int) -> None:
        name = "  " * depth + span_node.name
        row = [name, f"{span_node.duration * 1e3:.2f}"]
        row.append(
            str(span_node.peak_rss_kb) if span_node.peak_rss_kb is not None else "-"
        )
        rows.append(row)
        for c in span_node.children:
            add(c, depth + 1)

    for root in tracer.roots:
        add(root, 0)
    return format_table(["phase", "ms", "peak RSS (KiB)"], rows)


def _print_flow(flow: dict, args, emit) -> None:
    """The ``--flow`` summary, read from the report's ``flow`` section."""
    emit(f"flow program: {len(flow['statements'])} statements, "
         f"P = {args.processors}, strategy = {flow['strategy']}")
    for st in flow["statements"]:
        grid = st["partition"].get("grid")
        shape = f"grid {grid}" if grid is not None else "parallelepiped"
        emit(f"  {st['name']}: extents {st['extents']} "
             f"({st['iterations']} iterations), {st['tiles']} tiles, {shape}")
    if flow["graph"]["edges"]:
        emit("dependences:")
        for e in flow["graph"]["edges"]:
            emit(f"  {e['producer']} -> {e['consumer']} on {e['array']} ({e['kind']})")
    else:
        emit("dependences: none")
    totals = flow["schedule"]["totals"]
    emit(f"communication schedule: {totals['transfer_lines']} transfer lines "
         f"({totals['remote_lines']} distinct per consumer processor), "
         f"digest {flow['schedule']['digest'][:12]}")
    for pair, n in sorted(totals["by_pair"].items()):
        emit(f"  {pair}: {n} lines")
    emit(f"predicted: compute {flow['predicted_compute']:.0f} + "
         f"transfers {flow['predicted_transfers']:.0f} "
         f"({flow['candidates_scored']} candidate grids scored)")

    if args.simulate:
        emit()
        parity = flow["parity"]
        emit(f"replay: {len(flow['phases'])} phases, schedule-vs-measured "
             f"parity {'OK' if parity['match'] else 'MISMATCH'}")
        rows = [
            [ph["statement"], ph["round"], ph["accesses"], ph["misses"],
             ph["coherence_misses"], ph["network_messages"]]
            for ph in flow["phases"]
        ]
        emit(format_table(
            ["statement", "round", "accesses", "misses", "coherence", "messages"],
            rows,
        ))
        if not parity["match"]:
            emit(f"  schedule: {parity['schedule']}")
            emit(f"  measured: {parity['measured']}")


def _print_nest(run, args, emit, trace_writer) -> None:
    """The single-nest summary, read from :func:`run_request`'s objects."""
    nest, result, sim = run.nest, run.partition, run.sim
    if run.nests != 1:
        emit(f"note: {run.nests} nests found; partitioning the first")
    emit(f"nest: {nest}")
    emit(f"iteration space: {nest.space.extents.tolist()} "
         f"({nest.space.volume} iterations), P = {args.processors}")
    emit()

    emit("uniformly intersecting classes:")
    for s in result.uisets:
        emit(f"  {s}  spread={s.spread().tolist()}")
    from .core.symbolic import loop_polynomial

    try:
        poly = loop_polynomial(list(result.uisets), nest.index_names)
        emit(f"cumulative footprint ≈ {poly}")
        emit(f"minimise (volume fixed): {poly.partition_sensitive()}")
    except Exception:
        pass
    if result.comm_free_basis.shape[0]:
        emit(f"communication-free hyperplane normals: {result.comm_free_basis.tolist()}")
    else:
        emit("no communication-free partition exists")
    emit()

    emit(f"method: {result.method}")
    if result.grid is not None:
        emit(f"tile sides: {result.tile.sides.tolist()}  grid: {result.grid}")
    else:
        emit(f"tile L matrix: {result.tile.l_matrix.tolist()}")
    emit(f"communication-free: {result.is_communication_free}")
    est = result.estimate
    emit(f"predicted misses/tile: {est.cold_misses:.0f} "
         f"(boundary {est.coherence_traffic:.0f})")

    if args.data:
        from .core import optimize_rectangular_data

        dres = optimize_rectangular_data(
            list(result.uisets), nest.space, args.processors
        )
        emit(f"data-partitioning (a+) tile: {dres.tile.sides.tolist()} "
             f"grid {dres.grid}")

    if sim is not None:
        emit()
        if trace_writer is not None:
            emit(
                f"event trace: {trace_writer.events_written} of "
                f"{trace_writer.events_seen} accesses -> {args.trace_out}"
            )
        rows = [
            ["mean misses/processor", f"{sim.mean_misses_per_processor():.1f}"],
            ["cold misses", sim.cold_misses],
            ["coherence misses", sim.coherence_misses],
            ["invalidations", sim.invalidations],
            ["network messages", sim.network_messages],
            ["shared elements", sum(sim.shared_elements.values())],
        ]
        emit(format_table(["simulated quantity", "value"], rows))

    if args.pseudocode is not None and result.grid is not None:
        procs = [int(x) for x in args.pseudocode.split(",") if x.strip()]
        sched = TileSchedule(
            nest.space, result.tile, args.processors, grid=result.grid
        )
        emit()
        emit(emit_pseudocode(run.node, sched, processors=procs))


def main(argv: list[str] | None = None, *, out=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        from .check.harness import check_main

        return check_main(argv[1:], out=out)
    if argv and argv[0] == "serve":
        from .serve.server import serve_main

        return serve_main(argv[1:], out=out)
    if argv and argv[0] == "route":
        from .serve.cluster import route_main

        return route_main(argv[1:], out=out)
    if argv and argv[0] == "loadgen":
        from .serve.loadgen import loadgen_main

        return loadgen_main(argv[1:], out=out)
    if argv and argv[0] == "top":
        from .cli_top import top_main

        return top_main(argv[1:], out=out)
    if argv and argv[0] == "trace":
        from .cli_top import trace_main

        return trace_main(argv[1:], out=out)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trace_sample < 1:
        parser.error(f"--trace-sample must be >= 1, got {args.trace_sample}")
    if args.processors < 1:
        parser.error(f"--processors must be >= 1, got {args.processors}")
    if args.opt_budget is not None and args.opt_budget <= 0:
        parser.error(f"--opt-budget must be positive, got {args.opt_budget}")
    out = out or sys.stdout

    def emit(text: str = "") -> None:
        print(text, file=out)

    if args.log_level:
        configure_logging(args.log_level)
    tracer = get_tracer()
    tracer.reset()  # report only this run's phases
    if args.profile:
        tracer.enable_memory_profiling(True)
    if args.trace_out and not args.simulate:
        emit("note: --trace-out has no effect without --simulate")

    source = (
        sys.stdin.read() if args.source == "-" else open(args.source).read()
    )
    bindings = _bindings(args.define)
    if args.flow:
        if args.trace_out:
            emit("note: --trace-out has no effect with --flow")
        if args.pseudocode is not None:
            emit("note: --pseudocode has no effect with --flow")
    request = PartitionRequest(
        source=source,
        processors=args.processors,
        bindings=tuple(bindings.items()),
        method=args.method,
        simulate=args.simulate,
        sweeps=args.sweeps,
        engine=args.engine,
        program="flow" if args.flow else "doall",
        strategy=args.flow_strategy,
        label=args.source,
    )
    trace_writer = None
    if args.trace_out and args.simulate and not args.flow:
        try:
            trace_writer = EventTraceWriter(args.trace_out, every=args.trace_sample)
        except OSError as e:
            emit(f"error: cannot open --trace-out {args.trace_out!r}: {e}")
            return 1
    try:
        run = run_request(
            request, opt_budget_s=args.opt_budget, observer=trace_writer
        )
    except ReproError as e:
        emit(f"error: {e}")
        return 1
    finally:
        if trace_writer is not None:
            trace_writer.close()

    if args.flow:
        _print_flow(run.report["flow"], args, emit)
    else:
        _print_nest(run, args, emit, trace_writer)

    if args.json_report:
        if args.pseudocode is not None and not args.flow:
            # The CLI's report also times the pseudo-code it emitted.
            run.report["spans"] = tracer.to_dicts()
        try:
            dump_report(run.report, args.json_report)
        except OSError as e:
            emit(f"error: cannot write --json-report {args.json_report!r}: {e}")
            return 1
        emit()
        emit(f"run report -> {args.json_report}")
        logger.info("wrote run report to %s", args.json_report)

    if args.profile:
        emit()
        emit(_profile_table(tracer))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
