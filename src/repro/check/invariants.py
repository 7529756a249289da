"""Cross-oracle invariants for the differential checker.

Each invariant is a function over :class:`CaseArtifacts` (everything the
pipeline produced for one case) that appends :class:`Violation` records
and tallies how often it was *applicable* — several of the sharp
equalities only hold under explicit guards (injective ``G``, single
class per array, no write-shared lines), and an "all green" verdict is
only meaningful alongside the applicability counts.

The theorem chain implemented here is the provable version of the
paper's approximations:

* ``single == |det L|`` when ``rank(G) = depth`` (injectivity);
* ``single ≤ exact ≤ R·single`` (union bound, always);
* ``exact ≤ Π(sides_k + u'_k)`` — the coefficient-space envelope, with
  ``u'`` the member-offset spread *in coefficient space* (Theorem 4's
  dilation argument made exact);
* ``Theorem-4 ≥ exact`` for two-member classes whose offset difference
  has uniform sign per coordinate (Lemma 3's overlap bound; with mixed
  signs or ≥3 members the paper's first-order formula can undercount
  the true union, so the guard is part of the declared contract).

Simulator-side, misses are tied to footprints exactly where the MSI
protocol makes them equal: on a fresh infinite cache with no write-shared
lines, per-processor misses are the distinct lines touched, directory
cold fills are the distinct (array, line) pairs, and the processor that
owns the full origin tile measures exactly the analytic per-tile
cumulative footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .._util import int_rank
from ..core import cumulative as _cum
from ..core.classify import uniformly_generated
from ..core.footprint import footprint_size
from ..core.tiles import RectangularTile
from ..lattice.hnf import hermite_normal_form
from ..lattice.snf import solve_integer

__all__ = ["Violation", "Tally", "CaseArtifacts", "run_invariants"]


@dataclass(frozen=True)
class Violation:
    """One invariant failure on one case."""

    invariant: str
    detail: str


class Tally:
    """invariant name → number of times it was applicable."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def hit(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def merge(self, other: "Tally") -> None:
        for k, v in other.counts.items():
            self.hit(k, v)


@dataclass
class CaseArtifacts:
    """Everything the pipeline produced for one case."""

    spec: object
    nest: object
    uisets: list
    result: object  # PartitionResult (rectangular primary)
    estimate: object  # TrafficEstimate (exact method) for result.tile
    pepiped: object | None  # ParallelepipedOptResult or None
    sim_fast: object | None
    sim_exact: object | None
    streams: dict | None  # proc -> list[RefStream]
    schedule_counts: list[int] | None
    emitted: str | None
    pepiped_slsqp: object | None = None  # SLSQP-alone portfolio result
    pepiped_anneal: object | None = None  # anneal-alone portfolio result
    violations: list[Violation] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)

    def fail(self, invariant: str, detail: str) -> None:
        self.violations.append(Violation(invariant, detail))


# ----------------------------------------------------------------------
# Stream-derived measurements (independent of both the analytic model
# and the directory's own bookkeeping).


def _line_key(array: str, coords: tuple, line_size: int) -> tuple:
    if line_size == 1:
        return (array, coords)
    return (array, coords[:-1] + (coords[-1] // line_size,))


def stream_measurements(streams: dict, line_size: int) -> dict:
    """Distinct lines/elements, write-sharing, and predicted upgrades.

    Walks each processor's accesses in issue order (iteration-major,
    streams in list order within an iteration), so the first access kind
    per line is known: a line whose first access is a read and that the
    same processor later writes costs exactly one S→M upgrade when nobody
    else writes it.
    """
    lines_per_proc: dict[int, set] = {}
    upgrades_per_proc: dict[int, int] = {}
    elements_per_array: dict[str, set] = {}
    line_touchers: dict[tuple, set] = {}
    line_written: set = set()
    for p, st in streams.items():
        first_kind: dict[tuple, bool] = {}  # line -> first access was a write
        written: set = set()
        count = int(st[0].coords.shape[0]) if st else 0
        per_ref = [
            (s.array, getattr(s.kind, "value", s.kind) != "read", s.coords)
            for s in st
        ]
        for n in range(count):
            for array, write_like, coords_arr in per_ref:
                coords = tuple(int(x) for x in coords_arr[n])
                key = _line_key(array, coords, line_size)
                if key not in first_kind:
                    first_kind[key] = write_like
                elements_per_array.setdefault(array, set()).add((array, coords))
                line_touchers.setdefault(key, set()).add(p)
                if write_like:
                    written.add(key)
                    line_written.add(key)
        lines_per_proc[p] = set(first_kind)
        upgrades_per_proc[p] = sum(
            1 for key in written if not first_kind[key]
        )
    write_shared = {
        key
        for key, procs in line_touchers.items()
        if len(procs) > 1 and key in line_written
    }
    return {
        "lines_per_proc": {p: len(v) for p, v in lines_per_proc.items()},
        "upgrades_per_proc": upgrades_per_proc,
        "distinct_lines": len(line_touchers),
        "elements_per_array": {a: len(v) for a, v in elements_per_array.items()},
        "write_shared_lines": len(write_shared),
    }


# ----------------------------------------------------------------------
# Invariant groups


def check_parse_roundtrip(art: CaseArtifacts) -> None:
    """The lowered nest carries exactly the spec's reference multiset."""
    art.tally.hit("parse-roundtrip")
    got = sorted(
        (
            a.ref.array,
            a.kind.value,
            tuple(tuple(int(x) for x in row) for row in a.ref.g),
            tuple(int(x) for x in a.ref.offset),
        )
        for a in art.nest.accesses
    )
    want = art.spec.access_multiset()
    if got != want:
        art.fail("parse-roundtrip", f"lowered accesses {got} != spec {want}")
    extents = tuple(int(x) for x in art.nest.space.extents)
    if extents != tuple(art.spec.extents):
        art.fail(
            "parse-roundtrip", f"space extents {extents} != spec {art.spec.extents}"
        )


def check_classification(art: CaseArtifacts) -> None:
    """Classification is a partition of the accesses into exactly the
    maximal uniformly intersecting classes.

    ``classification-exact`` decides Definition 6 without the Smith
    normal form the classifier uses: ``a_s − a_r`` must lie in the row
    lattice of the shared ``G``, tested against its Hermite normal form.
    Every member pair of a class must intersect uniformly, and no two
    classes may be mergeable.
    """
    art.tally.hit("classification-partition")
    classified = sum(s.size for s in art.uisets)
    if classified != len(art.nest.accesses):
        art.fail(
            "classification-partition",
            f"{classified} classified refs != {len(art.nest.accesses)} accesses",
        )
    art.tally.hit("classification-exact")
    hnfs = [hermite_normal_form(s.g) for s in art.uisets]
    for s, hnf in zip(art.uisets, hnfs):
        for r, t in combinations(s.refs, 2):
            if not (
                uniformly_generated(r, t)
                and _in_row_lattice(hnf, t.offset - r.offset)
            ):
                art.fail(
                    "classification-exact",
                    f"{r!r} and {t!r} share a class but do not intersect uniformly",
                )
    for (i, s), (j, t) in combinations(enumerate(art.uisets), 2):
        r, q = s.refs[0], t.refs[0]
        if uniformly_generated(r, q) and _in_row_lattice(hnfs[i], q.offset - r.offset):
            art.fail(
                "classification-exact",
                f"classes {i} and {j} ({r!r}, {q!r}) intersect uniformly but were not merged",
            )


def _in_row_lattice(hnf, b) -> bool:
    """Is ``b`` an integer combination of the rows of ``hnf``'s input?

    Reduces ``b`` by the echelon rows of the Hermite normal form, pivot
    by pivot: each pivot entry must divide what is left in its column.
    """
    h = hnf.h.tolist()
    rest = [int(x) for x in b]
    for row, col in hnf.pivots:
        q, r = divmod(rest[col], h[row][col])
        if r:
            return False
        rest = [x - q * y for x, y in zip(rest, h[row])]
    return not any(rest)


def check_theorem_chain(art: CaseArtifacts, *, eps: float = 1e-6) -> None:
    """Analytic model vs exact lattice enumeration, per class."""
    tile = art.result.tile
    sides = np.asarray(tile.sides, dtype=np.int64)
    depth = art.nest.space.depth
    det_l = int(tile.iterations)
    for s in art.uisets:
        exact = _cum.cumulative_footprint_size_exact(s, tile)
        single = footprint_size(s.base_ref(), tile)
        art.tally.hit("union-bound")
        if not (single <= exact <= s.size * single):
            art.fail(
                "union-bound",
                f"{s.array}: single={single} exact={exact} R={s.size}",
            )
        injective = int_rank(s.g) == depth
        if injective:
            art.tally.hit("exact-ge-detL")
            if single != det_l:
                art.fail(
                    "exact-ge-detL",
                    f"{s.array}: injective G but single={single} != |det L|={det_l}",
                )
            if exact < det_l:
                art.fail(
                    "exact-ge-detL", f"{s.array}: exact={exact} < |det L|={det_l}"
                )
            # Coefficient-space envelope: members sit at integer lattice
            # offsets x_r (x_r·G = a_r − a_0); the union of their boxes
            # fits in the bounding box with per-axis spread u'.
            xs = []
            for r in range(s.size):
                x = solve_integer(s.g, s.offsets[r] - s.offsets[0])
                if x is None:  # pragma: no cover - contradicts classification
                    xs = None
                    break
                xs.append(x)
            if xs is not None:
                xs = np.asarray(xs, dtype=np.int64)
                u_prime = xs.max(axis=0) - xs.min(axis=0)
                envelope = int(np.prod(sides + u_prime))
                art.tally.hit("envelope-upper")
                if exact > envelope:
                    art.fail(
                        "envelope-upper",
                        f"{s.array}: exact={exact} > envelope={envelope} "
                        f"(sides={sides.tolist()}, u'={u_prime.tolist()})",
                    )
                if s.size == 2:
                    diff = s.offsets[1] - s.offsets[0]
                    uniform_sign = bool(np.all(diff >= 0) or np.all(diff <= 0))
                    if uniform_sign:
                        try:
                            th4 = _cum.cumulative_footprint_rect(s, tile)
                        except Exception:  # pragma: no cover - guard said ok
                            th4 = None
                        if th4 is not None:
                            art.tally.hit("theorem4-ge-exact")
                            if th4 + eps < exact:
                                art.fail(
                                    "theorem4-ge-exact",
                                    f"{s.array}: Theorem-4 cost {th4} < exact "
                                    f"count {exact} (sides={sides.tolist()})",
                                )


def check_integerisation(art: CaseArtifacts, *, round_det_tol: float) -> None:
    """``|det L| = V`` survives integerisation within declared envelopes."""
    spec = art.spec
    v = spec.volume / spec.processors
    tile_vol = int(art.result.tile.iterations)
    art.tally.hit("rect-integerisation")
    if not (v - 1e-9 <= tile_vol <= v * 2**spec.depth + 1e-9):
        art.fail(
            "rect-integerisation",
            f"tile volume {tile_vol} outside [V, V·2^depth] = "
            f"[{v}, {v * 2 ** spec.depth}]",
        )
    if art.pepiped is not None:
        det = abs(float(np.linalg.det(art.pepiped.tile.l_matrix.astype(float))))
        art.tally.hit("pepiped-integerisation")
        if abs(det - v) > round_det_tol * v + 1e-9:
            art.fail(
                "pepiped-integerisation",
                f"|det L|={det} drifts more than {round_det_tol:.0%} from V={v}",
            )
        art.tally.hit("pepiped-improvement")
        claimed = art.pepiped.improvement
        rect_obj = art.pepiped.rectangular_objective
        actual = (rect_obj - art.pepiped.objective) / rect_obj if rect_obj else 0.0
        if claimed > 0 and abs(claimed - actual) > 1e-6:
            art.fail(
                "pepiped-improvement",
                f"claimed improvement {claimed} != (rect-obj)/rect {actual}",
            )


def check_portfolio(art: CaseArtifacts, *, eps: float = 1e-6) -> None:
    """The optimizer portfolio never loses to its members or lies.

    * ``pepiped-improvement-nonneg`` — the reported ``improvement`` is
      never negative (the rectangular diagonal is always a portfolio
      member, so a worse member must not surface as the result);
    * ``pepiped-objective-consistent`` — every claimed objective
      (portfolio and members-alone) matches the Theorem-2 objective
      recomputed from the returned ``L`` matrix (catches a member that
      reports a better score than its matrix achieves — the ``anneal``
      fault);
    * ``portfolio-never-loses`` — the portfolio objective is no worse
      than SLSQP-alone, anneal-alone, or the rectangular baseline
      (member runs share the portfolio's seeds, so each alone-run is a
      candidate subset and the merge must dominate it).
    """
    from ..core.cumulative import Theorem2Objective

    pe = art.pepiped
    if pe is None:
        return

    art.tally.hit("pepiped-improvement-nonneg")
    if pe.improvement < 0:
        art.fail(
            "pepiped-improvement-nonneg",
            f"portfolio reported improvement {pe.improvement} < 0 "
            f"(winner {pe.winner})",
        )

    for name, res in (
        ("portfolio", pe),
        ("slsqp-alone", art.pepiped_slsqp),
        ("anneal-alone", art.pepiped_anneal),
    ):
        if res is None:
            continue
        art.tally.hit("pepiped-objective-consistent")
        l = res.l_matrix.shape[0]
        # A freshly compiled objective, never the instance the members
        # scored with, so a corrupted shared objective cannot vouch for
        # its own claims.
        recomputed = Theorem2Objective(art.uisets, l)(
            np.asarray(res.l_matrix, dtype=float).ravel()
        )
        denom = max(abs(recomputed), 1.0)
        if abs(res.objective - recomputed) > eps * denom:
            art.fail(
                "pepiped-objective-consistent",
                f"{name}: claimed objective {res.objective} != Theorem-2 "
                f"objective {recomputed} recomputed from its L matrix",
            )

    for name, res in (
        ("slsqp-alone", art.pepiped_slsqp),
        ("anneal-alone", art.pepiped_anneal),
    ):
        if res is None:
            continue
        art.tally.hit("portfolio-never-loses")
        if pe.objective > res.objective * (1.0 + eps) + eps:
            art.fail(
                "portfolio-never-loses",
                f"portfolio objective {pe.objective} (winner {pe.winner}) "
                f"costlier than {name} objective {res.objective}",
            )
    if pe.objective <= pe.rectangular_objective * (1.0 + eps) + eps:
        art.tally.hit("portfolio-never-loses")
    else:
        # Only legal when the continuous diagonal itself has no feasible
        # integer rounding (it was a candidate and lost on feasibility).
        art.tally.hit("pepiped-rect-unroundable")


def check_codegen(art: CaseArtifacts) -> None:
    """Generated schedules cover the iteration space exactly once."""
    if art.schedule_counts is None:
        return
    art.tally.hit("codegen-coverage")
    total = sum(art.schedule_counts)
    if total != art.spec.volume:
        art.fail(
            "codegen-coverage",
            f"schedule covers {total} iterations, space has {art.spec.volume}",
        )
    if art.emitted is not None and "processor 0" not in art.emitted:
        art.fail("codegen-coverage", "emitted pseudo-code lacks processor block")


def check_engine_parity(art: CaseArtifacts) -> None:
    """Fast and exact engines must agree on every counter."""
    fast, exact = art.sim_fast, art.sim_exact
    if fast is None or exact is None:
        return
    art.tally.hit("engine-parity")
    if fast != exact:
        art.fail("engine-parity", f"SimulationResult mismatch: {fast} != {exact}")
        return
    for p in range(art.spec.processors):
        if fast.machine.caches[p].stats != exact.machine.caches[p].stats:
            art.fail("engine-parity", f"cache stats differ on processor {p}")
    if fast.machine.directory.stats != exact.machine.directory.stats:
        art.fail("engine-parity", "directory stats differ")
    if (
        fast.machine.directory.sharer_histogram()
        != exact.machine.directory.sharer_histogram()
    ):
        art.fail("engine-parity", "sharer histograms differ")


def check_simulation_model(art: CaseArtifacts, *, ratio_eps: float = 1e-9) -> None:
    """Simulator counters vs stream measurements vs analytic predictions."""
    sim = art.sim_exact or art.sim_fast
    if sim is None or art.streams is None:
        return
    spec = art.spec
    meas = stream_measurements(art.streams, spec.line_size)
    no_write_sharing = meas["write_shared_lines"] == 0

    art.tally.hit("accesses-conserved")
    expected = spec.total_accesses
    if sim.total_accesses != expected:
        art.fail(
            "accesses-conserved",
            f"total accesses {sim.total_accesses} != volume·refs·sweeps {expected}",
        )

    art.tally.hit("cold-fills-distinct-lines")
    if int(sim.cold_misses) != meas["distinct_lines"]:
        art.fail(
            "cold-fills-distinct-lines",
            f"directory cold fills {sim.cold_misses} != distinct (array,line) "
            f"pairs {meas['distinct_lines']}",
        )

    # CacheStats.misses counts all memory-visible events, including S->M
    # upgrades; line *fills* (misses minus upgrades) are what map onto
    # distinct lines.
    for p in sim.processors:
        lines = meas["lines_per_proc"].get(p.processor, 0)
        fills = int(p.misses) - int(p.write_upgrades)
        art.tally.hit("fills-ge-distinct-lines")
        if fills < lines:
            art.fail(
                "fills-ge-distinct-lines",
                f"proc {p.processor}: line fills {fills} < distinct lines "
                f"{lines}",
            )
        if no_write_sharing:
            art.tally.hit("fills-eq-distinct-lines")
            if fills != lines:
                art.fail(
                    "fills-eq-distinct-lines",
                    f"proc {p.processor}: line fills {fills} (misses "
                    f"{p.misses} - upgrades {p.write_upgrades}) != distinct "
                    f"lines {lines} with no write-shared lines",
                )
            # Private written lines upgrade iff first touched by a read.
            predicted_up = meas["upgrades_per_proc"].get(p.processor, 0)
            art.tally.hit("upgrades-predicted")
            if int(p.write_upgrades) != predicted_up:
                art.fail(
                    "upgrades-predicted",
                    f"proc {p.processor}: write upgrades {p.write_upgrades} "
                    f"!= read-before-write lines {predicted_up}",
                )
    if no_write_sharing:
        art.tally.hit("no-sharing-no-coherence")
        if int(sim.coherence_misses) or int(sim.invalidations):
            art.fail(
                "no-sharing-no-coherence",
                f"coherence misses {sim.coherence_misses} / invalidations "
                f"{sim.invalidations} without write-shared lines",
            )

    # Analytic per-tile footprints vs measured per-processor footprints.
    tile = art.result.tile
    classes_by_array: dict[str, list] = {}
    for s in art.uisets:
        classes_by_array.setdefault(s.array, []).append(s)
    exact_by_array = {
        a: sum(_cum.cumulative_footprint_size_exact(s, tile) for s in cl)
        for a, cl in classes_by_array.items()
    }
    for p in sim.processors:
        for array, measured in p.footprint.items():
            art.tally.hit("footprint-upper")
            if measured > exact_by_array.get(array, 0):
                art.fail(
                    "footprint-upper",
                    f"proc {p.processor}: measured footprint of {array} "
                    f"({measured}) exceeds per-tile exact bound "
                    f"({exact_by_array.get(array, 0)})",
                )

    # The processor owning the full origin tile measures the prediction
    # exactly (single-class arrays only: classes of one array may overlap).
    origin = sim.processors[0]
    if origin.iterations == int(tile.iterations):
        for array, cl in classes_by_array.items():
            if len(cl) != 1:
                continue
            art.tally.hit("origin-tile-footprint-exact")
            measured = origin.footprint.get(array, 0)
            if measured != exact_by_array[array]:
                art.fail(
                    "origin-tile-footprint-exact",
                    f"origin processor footprint of {array} = {measured}, "
                    f"exact per-tile cumulative = {exact_by_array[array]}",
                )

    # Whole-space: lattice-union oracle == brute stream enumeration.
    whole = RectangularTile(spec.extents)
    for array, cl in classes_by_array.items():
        if len(cl) != 1:
            continue
        art.tally.hit("whole-space-footprint")
        analytic = _cum.cumulative_footprint_size_exact(cl[0], whole)
        measured = meas["elements_per_array"].get(array, 0)
        if analytic != measured:
            art.fail(
                "whole-space-footprint",
                f"{array}: lattice-union count {analytic} != enumerated "
                f"distinct elements {measured}",
            )

    # Declared predicted-vs-measured envelope (traffic ratio).
    if no_write_sharing and all(len(cl) == 1 for cl in classes_by_array.values()):
        predicted = float(art.estimate.cold_misses)
        if predicted > 0 and origin.iterations == int(tile.iterations):
            art.tally.hit("traffic-ratio-envelope")
            max_fills = max(
                float(int(p.misses) - int(p.write_upgrades))
                for p in sim.processors
            )
            lo = predicted / spec.line_size - ratio_eps
            hi = predicted * (1.0 + ratio_eps)
            if not (lo <= max_fills <= hi):
                art.fail(
                    "traffic-ratio-envelope",
                    f"max line fills/processor {max_fills} outside declared "
                    f"envelope [{lo:.1f}, {hi:.1f}] (predicted {predicted}, "
                    f"line_size {spec.line_size})",
                )


def run_invariants(art: CaseArtifacts, *, round_det_tol: float) -> None:
    """Evaluate every invariant group on a completed case."""
    check_parse_roundtrip(art)
    check_classification(art)
    check_theorem_chain(art)
    check_integerisation(art, round_det_tol=round_det_tol)
    check_portfolio(art)
    check_codegen(art)
    check_engine_parity(art)
    check_simulation_model(art)
