"""Seeded generation + oracles for dataflow (flow) programs.

``repro check --flow`` fuzzes two-statement producer/consumer programs —
statement one writes a handoff array ``T``, statement two reads it at
several uniformly generated offsets — and cross-validates the
communication schedule (:mod:`repro.flow.schedule`) against the replayed
execution (:mod:`repro.flow.execute`) with two oracles:

* ``flow-conservation`` — every line a consumer processor reads that an
  earlier statement's *other* processors wrote appears in the schedule's
  embedded line keys for that (consumer statement, processor).  The
  measured side walks the per-processor access streams event by event;
  the schedule side enumerates tile footprints — agreement is a genuine
  differential.
* ``flow-parity`` — the schedule's distinct-remote-line counts per
  (consumer statement, processor) equal the replay's, exactly.

Plus two cheap self-consistency oracles: the schedule digest must be
identical with and without embedded line keys
(``flow-schedule-deterministic``), and the totals block must be
internally consistent (``flow-totals-consistent``).

Validity by construction mirrors :mod:`repro.check.generator`: handoff
references share the identity reference matrix, so every cross-statement
intersecting pair is uniformly generated (Definition 5) and lowering
never rejects a generated case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ReproError
from .generator import _gen_processors
from .invariants import Tally, Violation

__all__ = [
    "FLOW_CORPUS_SCHEMA",
    "FLOW_CORPUS_VERSION",
    "FlowCaseSpec",
    "FlowCaseArtifacts",
    "generate_flow_case",
    "run_flow_case",
    "flow_spec_to_dict",
    "flow_spec_from_dict",
    "load_flow_corpus",
]

FLOW_CORPUS_SCHEMA = "repro.flow-corpus"
FLOW_CORPUS_VERSION = 1

_INDICES = ("i1", "i2", "i3")


@dataclass(frozen=True)
class FlowCaseSpec:
    """A complete generated flow test case.

    ``producer_depth`` may be smaller than ``depth`` (the consumer's):
    the producer then writes a lower-rank handoff array indexed by the
    leading indices — the imperfect-nest regime loop distribution must
    handle.  ``consumer_offsets`` are the consumer's read offsets into
    the handoff array ``T`` (identity reference matrix on both sides).
    """

    case_id: int
    depth: int
    producer_depth: int
    extents: tuple[int, ...]
    processors: int
    line_size: int
    sweeps: int
    strategy: str  # "co" | "independent"
    producer_offsets: tuple[tuple[int, ...], ...]  # reads of A in S1
    consumer_offsets: tuple[tuple[int, ...], ...]  # reads of T in S2

    @property
    def volume(self) -> int:
        v = 1
        for n in self.extents:
            v *= n
        return v

    @property
    def total_accesses(self) -> int:
        prod_vol = 1
        for n in self.extents[: self.producer_depth]:
            prod_vol *= n
        refs = (
            prod_vol * (1 + len(self.producer_offsets))
            + self.volume * (1 + len(self.consumer_offsets))
        )
        return refs * self.sweeps

    def source(self) -> str:
        return render_flow_source(self)


@dataclass
class FlowCaseArtifacts:
    """Everything the flow pipeline produced for one case."""

    spec: FlowCaseSpec
    graph: object = None
    partition: object = None
    schedule: dict | None = None
    sim: object = None
    violations: list[Violation] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)

    def fail(self, invariant: str, detail: str) -> None:
        self.violations.append(Violation(invariant, detail))


# ----------------------------------------------------------------------
# Rendering


def _sub(dim: int, offset: int) -> str:
    name = _INDICES[dim]
    if offset > 0:
        return f"{name} + {offset}"
    if offset < 0:
        return f"{name} - {-offset}"
    return name


def _identity_ref(array: str, offsets: tuple[int, ...]) -> str:
    subs = ", ".join(_sub(d, off) for d, off in enumerate(offsets))
    return f"{array}[{subs}]"


def render_flow_source(spec: FlowCaseSpec) -> str:
    """Two-nest producer/consumer ``Doall`` source for the spec."""
    lines: list[str] = []
    indent = 0
    if spec.sweeps > 1:
        lines.append(f"Doseq (t, 1, {spec.sweeps})")
        indent += 1

    def nest(depth: int, stmt: str) -> None:
        nonlocal indent
        base = indent
        for dim in range(depth):
            lines.append(
                "  " * indent
                + f"Doall ({_INDICES[dim]}, 0, {spec.extents[dim] - 1})"
            )
            indent += 1
        lines.append("  " * indent + stmt)
        while indent > base:
            indent -= 1
            lines.append("  " * indent + "EndDoall")

    zero_p = tuple(0 for _ in range(spec.producer_depth))
    rhs1 = (
        " + ".join(_identity_ref("A", off) for off in spec.producer_offsets)
        or "1"
    )
    nest(spec.producer_depth, f"{_identity_ref('T', zero_p)} = {rhs1}")

    zero_c = tuple(0 for _ in range(spec.depth))
    reads = " + ".join(
        _identity_ref("T", off) for off in spec.consumer_offsets
    )
    nest(spec.depth, f"{_identity_ref('B', zero_c)} = {reads}")

    if spec.sweeps > 1:
        lines.append("EndDoseq")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Generation


def generate_flow_case(
    case_id: int, seed: int, *, max_accesses: int = 6000
) -> FlowCaseSpec:
    """Deterministically generate one flow case (``(seed, case_id)``-keyed)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, case_id, 0xF10]))
    depth = int(rng.integers(1, 3))
    if depth == 1:
        extents = [int(rng.integers(6, 33))]
    else:
        extents = [int(rng.integers(4, 13)) for _ in range(2)]
    # Occasionally an imperfect pipeline: rank-1 producer feeding a
    # rank-2 consumer (no shared grid exists across the depth groups).
    producer_depth = depth
    if depth == 2 and rng.random() < 0.2:
        producer_depth = 1
    line_size = int(rng.choice([1, 1, 1, 2, 4]))
    sweeps = 2 if rng.random() < 0.15 else 1
    strategy = "co" if case_id % 2 == 0 else "independent"

    n_prod_reads = int(rng.integers(0, 3))
    producer_offsets = tuple(
        tuple(int(x) for x in rng.integers(-2, 3, size=producer_depth))
        for _ in range(n_prod_reads)
    )
    # The consumer reads T at 1-3 offsets, at least one nonzero so the
    # handoff crosses tile boundaries and the schedule is non-trivial.
    n_cons_reads = int(rng.integers(1, 4))
    consumer_offsets = []
    for k in range(n_cons_reads):
        off = [int(x) for x in rng.integers(-2, 3, size=producer_depth)]
        if k == 0 and not any(off):
            off[int(rng.integers(0, producer_depth))] = int(rng.choice([-1, 1]))
        consumer_offsets.append(tuple(off))

    refs = 2 + n_prod_reads + n_cons_reads
    while True:
        volume = int(np.prod(extents))
        if volume * refs * sweeps <= max_accesses or max(extents) <= 2:
            break
        k = int(np.argmax(extents))
        extents[k] = max(2, extents[k] // 2)

    processors = _gen_processors(rng, tuple(extents))
    # A rank-1 producer in an imperfect pipeline must still split its
    # extents[0] iterations over every processor.
    if producer_depth < depth:
        processors = max(2, min(processors, extents[0]))
    return FlowCaseSpec(
        case_id=case_id,
        depth=depth,
        producer_depth=producer_depth,
        extents=tuple(extents),
        processors=processors,
        line_size=line_size,
        sweeps=sweeps,
        strategy=strategy,
        producer_offsets=producer_offsets,
        consumer_offsets=tuple(consumer_offsets),
    )


# ----------------------------------------------------------------------
# Corpus persistence


def flow_spec_to_dict(spec: FlowCaseSpec) -> dict:
    return {
        "case_id": spec.case_id,
        "depth": spec.depth,
        "producer_depth": spec.producer_depth,
        "extents": list(spec.extents),
        "processors": spec.processors,
        "line_size": spec.line_size,
        "sweeps": spec.sweeps,
        "strategy": spec.strategy,
        "producer_offsets": [list(o) for o in spec.producer_offsets],
        "consumer_offsets": [list(o) for o in spec.consumer_offsets],
    }


def flow_spec_from_dict(d: dict) -> FlowCaseSpec:
    return FlowCaseSpec(
        case_id=int(d.get("case_id", -1)),
        depth=int(d["depth"]),
        producer_depth=int(d.get("producer_depth", d["depth"])),
        extents=tuple(int(x) for x in d["extents"]),
        processors=int(d["processors"]),
        line_size=int(d["line_size"]),
        sweeps=int(d.get("sweeps", 1)),
        strategy=str(d.get("strategy", "co")),
        producer_offsets=tuple(
            tuple(int(x) for x in o) for o in d.get("producer_offsets", [])
        ),
        consumer_offsets=tuple(
            tuple(int(x) for x in o) for o in d["consumer_offsets"]
        ),
    )


def load_flow_corpus(path) -> list[dict]:
    """Flow corpus entries ``{"spec": ..., "invariant": ..., "note": ...}``."""
    import json

    if hasattr(path, "read"):
        doc = json.load(path)
    else:
        with open(path) as fh:
            doc = json.load(fh)
    if doc.get("schema") != FLOW_CORPUS_SCHEMA:
        raise ValueError(f"not a flow corpus: schema={doc.get('schema')!r}")
    if doc.get("version") != FLOW_CORPUS_VERSION:
        raise ValueError(f"unsupported flow corpus version {doc.get('version')!r}")
    return list(doc.get("entries", []))


# ----------------------------------------------------------------------
# Per-case pipeline + oracles


def run_flow_case(spec: FlowCaseSpec, config=None) -> FlowCaseArtifacts:
    """compile → co-partition → schedule → replay → flow oracles."""
    from ..flow import (
        build_schedule,
        compile_flow,
        partition_flow,
        simulate_flow,
    )

    art = FlowCaseArtifacts(spec=spec)
    try:
        art.graph = compile_flow(spec.source(), {})
        art.partition = partition_flow(
            art.graph, spec.processors, strategy=spec.strategy
        )
        art.schedule = build_schedule(
            art.graph,
            art.partition,
            processors=spec.processors,
            line_size=spec.line_size,
            include_lines=True,
        )
        bare = build_schedule(
            art.graph,
            art.partition,
            processors=spec.processors,
            line_size=spec.line_size,
            include_lines=False,
        )
        art.sim = simulate_flow(
            art.graph,
            art.partition,
            processors=spec.processors,
            line_size=spec.line_size,
            collect_lines=True,
        )
    except ReproError as e:
        art.fail("pipeline-error", f"{type(e).__name__}: {e}")
        return art
    except Exception as e:  # pragma: no cover - harness safety net
        art.fail("crash", f"{type(e).__name__}: {e}")
        return art

    totals = art.schedule["totals"]
    measured = art.sim.transfers

    # -- flow-parity: distinct remote lines per (consumer, processor) --
    art.tally.hit("flow-parity")
    if totals["per_consumer"] != measured["per_consumer"]:
        art.fail(
            "flow-parity",
            f"schedule per-consumer counts {totals['per_consumer']} != "
            f"replayed {measured['per_consumer']}",
        )

    # -- flow-conservation: measured remote lines ⊆ scheduled lines ----
    art.tally.hit("flow-conservation")
    scheduled: dict[tuple[str, int], set] = {}
    for row in art.schedule["transfers"]:
        key = (row["consumer"], row["consumer_proc"])
        bucket = scheduled.setdefault(key, set())
        for array, coords in row["line_keys"]:
            bucket.add((array, tuple(coords)))
    for stmt_name, per_proc in measured.get("lines", {}).items():
        for proc_str, lines in per_proc.items():
            key = (stmt_name, int(proc_str))
            missing = {
                (a, tuple(c)) for a, c in lines
            } - scheduled.get(key, set())
            if missing:
                art.fail(
                    "flow-conservation",
                    f"{len(missing)} line(s) read remotely by processor "
                    f"{proc_str} in {stmt_name} are absent from the "
                    f"schedule, e.g. {sorted(missing)[:3]}",
                )
                break

    # -- flow-schedule-deterministic: digest invariant to line embedding
    art.tally.hit("flow-schedule-deterministic")
    if art.schedule["digest"] != bare["digest"]:
        art.fail(
            "flow-schedule-deterministic",
            f"digest changed with include_lines: {art.schedule['digest']} "
            f"vs {bare['digest']}",
        )

    # -- flow-totals-consistent: the totals block adds up ---------------
    art.tally.hit("flow-totals-consistent")
    row_sum = sum(r["lines"] for r in art.schedule["transfers"])
    pc_sum = sum(
        n for per in totals["per_consumer"].values() for n in per.values()
    )
    pair_sum = sum(totals["by_pair"].values())
    if totals["transfer_lines"] != row_sum or totals["transfer_lines"] != pair_sum:
        art.fail(
            "flow-totals-consistent",
            f"transfer_lines={totals['transfer_lines']} but rows sum to "
            f"{row_sum} and by_pair to {pair_sum}",
        )
    elif totals["remote_lines"] != pc_sum:
        art.fail(
            "flow-totals-consistent",
            f"remote_lines={totals['remote_lines']} but per_consumer sums "
            f"to {pc_sum}",
        )

    return art
