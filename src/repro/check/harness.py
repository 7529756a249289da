"""Differential harness: run the whole pipeline per case, check invariants.

For every case the harness runs parse → classify → optimize → codegen →
simulate (both engines), evaluates the cross-oracle invariants
(:mod:`repro.check.invariants`), shrinks failures
(:mod:`repro.check.shrink`), and emits a ``repro.check-report`` through
the :mod:`repro.obs.report` layer.

Fault injection (``--inject-fault``) deliberately mis-computes one
analytic quantity so the checker's sensitivity can be demonstrated and
tested end-to-end: a run with an injected fault must *fail* and shrink
the failure to a small nest.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..core import cost as _cost
from ..core import cumulative as _cum
from ..core import optimize as _opt
from ..core.classify import UISet, partition_references
from ..core.optimize import optimize_parallelepiped
from ..core.partitioner import LoopPartitioner
from ..exceptions import OptimizationError, ReproError, SingularMatrixError
from ..lang.lower import lower_nest
from ..lang.parser import parse_program
from ..obs.log import configure_logging, get_logger
from ..obs.report import build_check_report, dump_report
from ..obs.tracing import span
from ..sim import Machine, MachineConfig, simulate_nest
from ..sim.trace import deal_tiles, reference_streams, split_streams
from .corpus import load_corpus, spec_from_dict, spec_to_dict
from .generator import CaseSpec, generate_case
from .invariants import CaseArtifacts, Tally, run_invariants
from .shrink import shrink

__all__ = ["CheckConfig", "run_case", "run_check", "check_main", "inject_fault"]

logger = get_logger("check.harness")


@dataclass(frozen=True)
class CheckConfig:
    """Declared envelopes and budgets of one check run."""

    max_accesses: int = 6000  # per-case access cap (generator)
    round_det_tol: float = 0.5  # |det L| vs V after parallelepiped rounding
    parallelepiped_every: int = 5  # run the SLSQP path on every k-th case
    shrink_budget: int = 200  # pipeline evaluations per shrink

    def to_dict(self) -> dict:
        return {
            "max_accesses": self.max_accesses,
            "round_det_tol": self.round_det_tol,
            "parallelepiped_every": self.parallelepiped_every,
            "shrink_budget": self.shrink_budget,
        }


# ----------------------------------------------------------------------
# Fault injection


@contextmanager
def _patched(module, name, fn):
    orig = getattr(module, name)
    setattr(module, name, fn)
    try:
        yield
    finally:
        setattr(module, name, orig)


@contextmanager
def _inject_spread():
    """Scale spread coefficients down: Theorem-4 costs undercount.

    Every reader takes ``u`` from :attr:`UISet.u`, so one binding is
    patched: for the duration, ``UISet.u`` is a property returning 0.25×
    the real value.  A data descriptor outranks the value an instance
    has cached, and the faulted value is never stored, so each class
    reads its real ``u`` again after exit.  A consistent fault like this
    must be caught by the independent exact-lattice oracle.
    """
    real = UISet.__dict__["u"]

    def bad(uiset):
        u = real.__get__(uiset, UISet)
        return None if u is None else u * 0.25

    with _patched(UISet, "u", property(bad)):
        yield


@contextmanager
def _inject_exact_count():
    """Off-by-one in the exact lattice union count."""
    orig = _cum.cumulative_footprint_size_exact

    def bad(uiset, tile, **kw):
        return orig(uiset, tile, **kw) + 1

    with _patched(_cum, "cumulative_footprint_size_exact", bad):
        with _patched(_opt, "cumulative_footprint_size_exact", bad):
            with _patched(_cost, "cumulative_footprint_size_exact", bad):
                yield


@contextmanager
def _inject_anneal():
    """Annealer claims an objective 4x better than its matrix achieves.

    Exercises the portfolio oracles end to end: the lying member wins
    the deterministic merge (its claimed score beats everything), and
    ``pepiped-objective-consistent`` must flag the mismatch between the
    claimed objective and the Theorem-2 objective recomputed from the
    returned ``L``.  Both the defining module and the binding
    ``optimize`` imported by name are patched.
    """
    import dataclasses

    from ..core import anneal as _anneal

    orig = _anneal.anneal_parallelepiped

    def bad(objective, start, volume, **kw):
        result = orig(objective, start, volume, **kw)
        if result is None:
            return result
        return dataclasses.replace(result, objective=result.objective * 0.25)

    with _patched(_anneal, "anneal_parallelepiped", bad):
        with _patched(_opt, "anneal_parallelepiped", bad):
            yield


@contextmanager
def _inject_flow():
    """Drop one line from every multi-line footprint the scheduler sees.

    The communication schedule undercounts both consumer reads and
    producer writes; the replayed execution (an independent event-level
    walk in :mod:`repro.flow.execute`) is untouched, so the ``flow-
    parity`` and ``flow-conservation`` oracles must flag the mismatch on
    every transfer-bearing flow case.
    """
    from ..flow import schedule as _fsched

    orig = _fsched._line_keys

    def bad(array, coords, line_size):
        lines = orig(array, coords, line_size)
        if len(lines) > 1:
            lines = set(sorted(lines)[:-1])
        return lines

    with _patched(_fsched, "_line_keys", bad):
        yield


@contextmanager
def _inject_engine():
    """Clear one sharer bit in the fast engine's first read-only record.

    The fast engine defers its read-only analytic lines as arrays; this
    drops one processor from one such line's toucher matrix, so the
    materialised caches and directory agree with each other (invariant
    checks pass) but hold one copy fewer than the exact engine's.  The
    ``engine-parity`` oracle must flag the sharer-histogram mismatch on
    every case with a read-only shared array.
    """
    from ..sim.directory import Directory

    orig = Directory.bulk_install_shared

    def bad(self, array, line_coords, touch):
        first = not any(r.touch is not None for r in self._deferred)
        orig(self, array, line_coords, touch)
        if first and self._deferred:
            procs, lines = self._deferred[-1].touch.nonzero()
            self._deferred[-1].touch[procs[0], lines[0]] = False

    with _patched(Directory, "bulk_install_shared", bad):
        yield


@contextmanager
def _inject_residue():
    """Serve the fast engine's owner-forwarded reads as clean reads.

    The per-line residue resolver marks the first read miss after a
    write as forwarded by the M owner (two extra messages, a downgrade
    and a writeback); this clears that mark, so the fast engine books a
    plain two-message read instead while the exact engine still
    forwards.  The ``engine-parity`` oracle must flag the message and
    directory-stat mismatch on every case with a write-shared residue.
    """
    import numpy as np

    from ..sim import fast as _fast

    orig = _fast._resolve_lines

    def bad(line, proc, write, processors):
        res = orig(line, proc, write, processors)
        return res._replace(forward=np.zeros_like(res.forward))

    with _patched(_fast, "_resolve_lines", bad):
        yield


@contextmanager
def _inject_footprint():
    """Count one extra element in the origin processor's footprint.

    Both simulator engines measure footprints through the one
    :func:`~repro.sim.fast.collect_footprints`, so ``engine-parity``
    cannot see a wrong count.  This adds one element to processor 0's
    count of its first array; ``origin-tile-footprint-exact`` (the
    origin processor's full tile against the exact per-tile cumulative
    footprint) and ``footprint-upper`` must flag it.
    """
    from ..sim import executor as _executor

    orig = _executor.collect_footprints

    def bad(*args, **kwargs):
        footprints, shared = orig(*args, **kwargs)
        if footprints and footprints[0]:
            footprints[0][min(footprints[0])] += 1
        return footprints, shared

    with _patched(_executor, "collect_footprints", bad):
        yield


@contextmanager
def _inject_classify():
    """Drop the solutions of the classifier's cached-SNF solves.

    Every solve against a class's stored Smith normal form reports "no
    integer solution" for a nonzero right-hand side, so references with
    distinct offsets never join a class (and classes lose their sharing
    directions).  The ``classification-exact`` oracle decides Definition
    6 through the Hermite normal form instead and must flag the classes
    that should have merged.
    """
    from ..core import classify as _classify

    orig = _classify.solve_integer

    def bad(a, b, snf=None):
        x = orig(a, b, snf)
        if snf is not None and any(int(v) for v in b):
            return None
        return x

    with _patched(_classify, "solve_integer", bad):
        yield


@contextmanager
def _inject_sumset():
    """Drop the last row step of the sumset footprint count.

    Every rectangular-tile image of a class whose reduced ``G`` has
    dependent rows then misses one Minkowski summand and undercounts.
    The ``whole-space-footprint`` oracle compares the count with the
    distinct elements the simulator's streams touch and must flag it.
    The process-wide footprint and lattice-count caches are cleared on
    both sides so faulted counts never leak out.
    """
    from ..lattice import points as _points

    orig = _points._sumset_steps

    def bad(rows, sides):
        return orig(rows, sides)[:-1]

    def clear():
        _points.DEFAULT_FOOTPRINT_TABLE.clear()
        _points.DEFAULT_LATTICE_CACHE.clear()

    clear()
    try:
        with _patched(_points, "_sumset_steps", bad):
            yield
    finally:
        clear()


FAULTS = {
    "spread": _inject_spread,
    "exact-count": _inject_exact_count,
    "anneal": _inject_anneal,
    "flow": _inject_flow,
    "engine": _inject_engine,
    "residue": _inject_residue,
    "footprint": _inject_footprint,
    "classify": _inject_classify,
    "sumset": _inject_sumset,
}


@contextmanager
def inject_fault(name: str | None):
    """Activate a named deliberate fault for the duration of the context."""
    if name is None:
        yield
        return
    if name not in FAULTS:
        raise ValueError(f"unknown fault {name!r}; known: {sorted(FAULTS)}")
    with FAULTS[name]():
        yield


# ----------------------------------------------------------------------
# Per-case pipeline


def run_case(spec: CaseSpec, config: CheckConfig | None = None) -> CaseArtifacts:
    """parse → classify → optimize → codegen → simulate → invariants."""
    config = config or CheckConfig()
    art = CaseArtifacts(
        spec=spec,
        nest=None,
        uisets=[],
        result=None,
        estimate=None,
        pepiped=None,
        sim_fast=None,
        sim_exact=None,
        streams=None,
        schedule_counts=None,
        emitted=None,
    )
    try:
        program = parse_program(spec.source())
        art.nest = lower_nest(program.nests[0], {})
        art.uisets = partition_references(art.nest.accesses)

        partitioner = LoopPartitioner(art.nest, spec.processors)
        art.result = partitioner.partition(method="rectangular", scoring="exact")
        art.estimate = art.result.estimate

        if spec.depth >= 2 and spec.case_id % config.parallelepiped_every == 0:
            try:
                art.pepiped = optimize_parallelepiped(
                    art.uisets,
                    spec.volume / spec.processors,
                    max_extents=art.nest.space.extents,
                )
            except (OptimizationError, SingularMatrixError):
                # Declared outcomes: no integer rounding satisfies the
                # volume tolerance, or a class's reduced G is rank-
                # deficient (Theorem 2 objective undefined).  Not a
                # violation.
                art.tally.hit("parallelepiped-infeasible")
            if art.pepiped is not None:
                # Members-alone runs for the portfolio-never-loses oracle
                # (each reuses the portfolio's seeds, so it is a candidate
                # subset the merge must dominate).
                for member, attr in (
                    ("slsqp", "pepiped_slsqp"),
                    ("anneal", "pepiped_anneal"),
                ):
                    try:
                        setattr(
                            art,
                            attr,
                            optimize_parallelepiped(
                                art.uisets,
                                spec.volume / spec.processors,
                                max_extents=art.nest.space.extents,
                                members=(member,),
                            ),
                        )
                    except (OptimizationError, SingularMatrixError):
                        art.tally.hit(f"parallelepiped-{member}-infeasible")

        from ..codegen.schedule import TileSchedule
        from ..codegen.emit import emit_pseudocode

        if art.result.grid is not None:
            sched = TileSchedule(
                art.nest.space,
                art.result.tile,
                spec.processors,
                grid=tuple(int(g) for g in art.result.grid),
            )
            art.schedule_counts = sched.iteration_counts()
            art.emitted = emit_pseudocode(program.nests[0], sched, processors=[0])

        from ..core.tiles import Tiling

        deal = deal_tiles(Tiling(art.nest.space, art.result.tile), spec.processors)
        art.streams = split_streams(
            reference_streams(art.nest, deal.iterations), deal.offsets
        )

        def machine() -> Machine:
            return Machine(
                MachineConfig(
                    processors=spec.processors, line_size=spec.line_size
                )
            )

        art.sim_exact = simulate_nest(
            art.nest,
            art.result.tile,
            spec.processors,
            engine="exact",
            machine=machine(),
            check_invariants=True,
        )
        art.sim_fast = simulate_nest(
            art.nest,
            art.result.tile,
            spec.processors,
            engine="fast",
            machine=machine(),
            check_invariants=True,
        )
    except ReproError as e:
        art.fail("pipeline-error", f"{type(e).__name__}: {e}")
        return art
    except Exception as e:  # pragma: no cover - harness safety net
        art.fail("crash", f"{type(e).__name__}: {e}")
        return art

    run_invariants(art, round_det_tol=config.round_det_tol)
    return art


def _first_invariant(spec: CaseSpec, config: CheckConfig) -> str | None:
    out = run_case(spec, config)
    return out.violations[0].invariant if out.violations else None


# ----------------------------------------------------------------------
# Driver


def _failure_entry(
    spec, art: CaseArtifacts, config: CheckConfig, origin: str, *, flow: bool = False
) -> dict:
    """One failing case's report entry, with its shrunk reproducer.

    Flow cases are not shrunk (the generator already emits minimal
    two-statement programs); their ``shrunk_*`` fields echo the original
    spec so report consumers see one uniform failure shape.
    """
    if flow:
        from .flowcheck import flow_spec_to_dict as to_dict

        shrunk, steps = spec, 0
    else:
        to_dict = spec_to_dict
        shrunk, steps = shrink(
            spec,
            lambda s: _first_invariant(s, config),
            budget=config.shrink_budget,
        )
    v = art.violations[0]
    return {
        "case_id": spec.case_id,
        "origin": origin,
        "invariant": v.invariant,
        "detail": v.detail,
        "all_violations": [
            {"invariant": x.invariant, "detail": x.detail} for x in art.violations
        ],
        "spec": to_dict(spec),
        "shrunk_spec": to_dict(shrunk),
        "shrunk_depth": shrunk.depth,
        "shrunk_source": shrunk.source(),
        "shrink_steps": steps,
    }


def _run_task_batch(
    tasks: list[tuple],
    seed: int,
    config: CheckConfig,
    fault: str | None,
    mode: str = "doall",
) -> list[tuple]:
    """Run a contiguous batch of check tasks (module-level for pickling).

    Each task is ``("corpus", spec_dict)`` or ``("generated", case_id)``.
    ``mode="flow"`` swaps in the dataflow generator and oracles
    (:mod:`repro.check.flowcheck`) over the same plumbing.  The fault
    context is applied *inside* this function so fault injection behaves
    identically whether the batch runs in the driver process
    (``workers=1``) or in a pool child — the driver never activates the
    fault itself, which would double-apply it under the fork start
    method.  Shrinking of failures also happens here, so failing cases
    parallelise with the rest.
    """
    if os.environ.get("REPRO_CHECK_KILL_WORKER"):
        import multiprocessing

        # Test hook: die abruptly (as a segfault or OOM kill would), but
        # only in a pool child — the driver process must survive to
        # report the failure.
        if multiprocessing.parent_process() is not None:
            os._exit(3)

    if mode == "flow":
        from .flowcheck import flow_spec_from_dict, generate_flow_case, run_flow_case

    out = []
    with inject_fault(fault):
        for origin, payload in tasks:
            if mode == "flow":
                if origin == "corpus":
                    spec = flow_spec_from_dict(payload)
                else:
                    spec = generate_flow_case(
                        payload, seed, max_accesses=config.max_accesses
                    )
            elif origin == "corpus":
                spec = spec_from_dict(payload)
            else:
                spec = generate_case(payload, seed, max_accesses=config.max_accesses)
            # A named span per case: `repro check` pool workers share the
            # tracing machinery the serve workers use, so per-case wall
            # time is attributable in any profile of a check run.
            with span("check.case", case_id=spec.case_id, origin=origin):
                art = (
                    run_flow_case(spec, config)
                    if mode == "flow"
                    else run_case(spec, config)
                )
            entry = (
                _failure_entry(spec, art, config, origin, flow=mode == "flow")
                if art.violations
                else None
            )
            first = (
                (art.violations[0].invariant, art.violations[0].detail)
                if art.violations
                else None
            )
            out.append((dict(art.tally.counts), entry, first))
    return out


def run_check(
    *,
    cases: int = 100,
    seed: int = 0,
    corpus_path: str | None = None,
    config: CheckConfig | None = None,
    fault: str | None = None,
    workers: int = 1,
    mode: str = "doall",
) -> dict:
    """Replay the corpus, fuzz ``cases`` fresh nests, report the verdict.

    ``mode="flow"`` fuzzes two-statement dataflow programs and evaluates
    the schedule-vs-replay oracles (:mod:`repro.check.flowcheck`)
    instead of the single-nest pipeline; the corpus, when given, must be
    a ``repro.flow-corpus`` document.

    ``workers > 1`` partitions the tasks (corpus replays first, then the
    seeded generated cases) into contiguous batches across a
    ``ProcessPoolExecutor``.  Per-task results are merged back in the
    original task order — tallies, failure entries, and shrunk witnesses
    are all deterministic per case — so the report is identical for any
    worker count (``duration_s`` aside), and ``workers`` is deliberately
    not recorded in it.
    """
    config = config or CheckConfig()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tally = Tally()
    failures: list[dict] = []
    corpus_info: dict | None = None
    t0 = time.perf_counter()

    tasks: list[tuple] = []
    if corpus_path and os.path.exists(corpus_path):
        if mode == "flow":
            from .flowcheck import load_flow_corpus

            entries = load_flow_corpus(corpus_path)
        else:
            entries = load_corpus(corpus_path)
        corpus_info = {"path": str(corpus_path), "entries": len(entries)}
        tasks.extend(("corpus", entry["spec"]) for entry in entries)
    tasks.extend(("generated", case_id) for case_id in range(cases))

    if workers == 1 or len(tasks) <= 1:
        results = _run_task_batch(tasks, seed, config, fault, mode)
    else:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # Small contiguous batches load-balance the uneven per-case cost
        # (a failing case also pays for shrinking); collecting futures in
        # submission order restores the serial task order.
        nworkers = min(workers, len(tasks))
        chunk = -(-len(tasks) // (nworkers * 4))
        batches = [tasks[i : i + chunk] for i in range(0, len(tasks), chunk)]
        results = []
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            # A worker can die while batches are still being submitted,
            # so submit() raises BrokenProcessPool too.
            try:
                futures = [
                    pool.submit(_run_task_batch, batch, seed, config, fault, mode)
                    for batch in batches
                ]
                for future in futures:
                    results.extend(future.result())
            except BrokenProcessPool as exc:
                raise ReproError(
                    f"a check worker process died mid-batch (killed or "
                    f"crashed) with {len(results)} of {len(tasks)} cases "
                    f"done; re-run with --workers 1 to isolate the "
                    f"failing case"
                ) from exc

    for (origin, payload), (counts, entry, first) in zip(tasks, results):
        for name, count in counts.items():
            tally.counts[name] = tally.counts.get(name, 0) + count
        if entry is not None:
            if origin == "generated" and first is not None:
                logger.warning(
                    "case %d violated %s: %s", payload, first[0], first[1]
                )
            failures.append(entry)

    return build_check_report(
        cases=len(tasks),
        seed=seed,
        passed=len(tasks) - len(failures),
        failures=failures,
        invariant_evaluations=tally.counts,
        corpus=corpus_info,
        config=config.to_dict(),
        fault=fault,
        duration_s=time.perf_counter() - t0,
        meta={"mode": "flow"} if mode == "flow" else None,
    )


def check_main(argv: list[str] | None = None, *, out=None) -> int:
    """Entry point for ``repro check``."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Differential self-check: fuzz loop nests and cross-"
        "validate the analytic model, the lattice oracles, and both "
        "simulator engines.",
    )
    parser.add_argument("--cases", type=int, default=100, metavar="N")
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    parser.add_argument("--corpus", default=None, metavar="PATH",
                        help="replay a persisted corpus before fuzzing")
    parser.add_argument("--json-report", default=None, metavar="PATH",
                        help="write the repro.check-report JSON here")
    parser.add_argument("--flow", action="store_true",
                        help="fuzz two-statement dataflow programs and check "
                        "the communication schedule against the replayed "
                        "execution (conservation + transfer-count parity)")
    parser.add_argument("--inject-fault", default=None, choices=sorted(FAULTS),
                        help="deliberately break one oracle (self-test)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="partition the cases across N worker processes "
                        "(the report is identical for any N)")
    parser.add_argument("--max-accesses", type=int, default=6000)
    parser.add_argument("--shrink-budget", type=int, default=200)
    parser.add_argument("--log-level", default=None,
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    args = parser.parse_args(argv)
    if args.cases < 0:
        parser.error("--cases must be >= 0")
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.log_level:
        configure_logging(args.log_level)
    out = out or sys.stdout

    config = CheckConfig(
        max_accesses=args.max_accesses, shrink_budget=args.shrink_budget
    )
    try:
        report = run_check(
            cases=args.cases,
            seed=args.seed,
            corpus_path=args.corpus,
            config=config,
            fault=args.inject_fault,
            workers=args.workers,
            mode="flow" if args.flow else "doall",
        )
    except ReproError as e:
        print(f"repro check: error: {e}", file=out)
        return 1
    if args.json_report:
        dump_report(report, args.json_report)

    print(
        f"repro check: {report['cases']} cases (seed {report['seed']}) -> "
        f"{report['passed']} passed, {report['failed']} failed "
        f"in {report['duration_s']:.1f}s",
        file=out,
    )
    evals = report["invariant_evaluations"]
    print(
        "invariant evaluations: "
        + ", ".join(f"{k}={v}" for k, v in sorted(evals.items())),
        file=out,
    )
    for f in report["failures"]:
        print(
            f"FAILED case {f['case_id']} ({f['origin']}): {f['invariant']} — "
            f"{f['detail']}",
            file=out,
        )
        print(
            f"  shrunk to depth {f['shrunk_depth']} in {f['shrink_steps']} steps:",
            file=out,
        )
        for line in f["shrunk_source"].rstrip().splitlines():
            print(f"    {line}", file=out)
    if report["failed"] and args.inject_fault:
        print(
            f"(fault {args.inject_fault!r} was injected deliberately — "
            "failures above demonstrate detection)",
            file=out,
        )
    return 1 if report["failed"] else 0
