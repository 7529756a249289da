"""One dealing of tiles to processors, and the engines at many processors.

:func:`repro.sim.trace.deal_tiles` deals every tile in one vectorised
pass; the simulator, the dataflow schedule and the code generator's
tile schedule all read it.  These tests pin it to the reference dealing
(tiles in sorted tile-index order, tile ``k`` to processor ``k mod P``,
each tile's points in enumeration order), and run both simulator
engines where processors receive several tiles, clipped tiles or none.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.paper_programs import example3, example9, figure9, matmul_sync
from repro.codegen.schedule import TileSchedule
from repro.core.tiles import ParallelepipedTile, RectangularTile, Tiling
from repro.sim.fast import collect_footprints, injective_arrays
from repro.sim.trace import (
    assign_tiles_to_processors,
    deal_tiles,
    reference_streams,
    split_streams,
)

from .test_sim_parity import assert_parity


def _reference_dealing(tiling: Tiling, processors: int) -> dict[int, np.ndarray]:
    """Tiles in sorted tile-index order, tile ``k`` to processor ``k mod P``."""
    assignments = tiling.assignments()
    per_proc: dict[int, list] = {p: [] for p in range(processors)}
    for k, key in enumerate(sorted(assignments)):
        per_proc[k % processors].append(assignments[key])
    return {
        p: np.vstack(b) if b else np.empty((0, tiling.space.depth), dtype=np.int64)
        for p, b in per_proc.items()
    }


# A rectangle with clipped edge tiles, and the Example 3 parallelogram
# of E14; each at a processor count that does not divide its tile count.
GOLDEN = {
    "rectangle": (lambda: example9(10), RectangularTile([3, 4]), 5),
    "e14-parallelogram": (lambda: example3(36), ParallelepipedTile([[12, 36], [9, 0]]), 7),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_dealing_matches_reference(name):
    make, tile, processors = GOLDEN[name]
    tiling = Tiling(make().space, tile)
    reference = _reference_dealing(tiling, processors)
    assignments = tiling.assignments()
    assert len(assignments) % processors != 0

    deal = deal_tiles(tiling, processors)
    for p in range(processors):
        np.testing.assert_array_equal(deal.block(p), reference[p])
    assert deal.counts() == [int(reference[p].shape[0]) for p in range(processors)]
    blocks = assign_tiles_to_processors(tiling, processors)
    for p in range(processors):
        np.testing.assert_array_equal(blocks[p], reference[p])

    tiles = list(deal.tiles())
    assert [key for key, _, _ in tiles] == sorted(assignments)
    for k, (key, proc, its) in enumerate(tiles):
        assert proc == k % processors
        np.testing.assert_array_equal(its, assignments[key])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tile_schedule_reads_the_dealing(name):
    make, tile, processors = GOLDEN[name]
    space = make().space
    reference = _reference_dealing(Tiling(space, tile), processors)
    sched = TileSchedule(space, tile, processors)
    assert sched.iteration_counts() == [
        int(reference[p].shape[0]) for p in range(processors)
    ]
    for p in range(processors):
        np.testing.assert_array_equal(sched.iterations(p), reference[p])
        for it in reference[p][:: max(1, reference[p].shape[0] // 5)]:
            assert sched.owner_of(it) == p


def test_dealing_of_a_single_tile():
    space = example3(6).space
    deal = deal_tiles(Tiling(space, RectangularTile([6, 6])), 4)
    assert deal.counts() == [36, 0, 0, 0]
    assert deal.keys.tolist() == [[0, 0]]


# ----------------------------------------------------------------------
# Fast == exact where processors hold several tiles, clipped tiles or
# none: tiles that do not divide the space, at P = 3, 16 and 64.

CASES = {
    "example9-clipped": (lambda: example9(10), RectangularTile([3, 4]), 1),
    "example3-skew": (lambda: example3(11), ParallelepipedTile([[3, 1], [-2, 4]]), 1),
    "example3-strips": (lambda: example3(11), RectangularTile([2, 1]), 1),
    "matmul-sync": (lambda: matmul_sync(5), RectangularTile([2, 3, 5]), 1),
    "figure9-sweeps2": (lambda: figure9(5, 2), RectangularTile([2, 1, 1]), 2),
    "figure9-sweeps3": (lambda: figure9(5, 3), RectangularTile([2, 2, 3]), 3),
}
PROCESSORS = (3, 16, 64)


@pytest.mark.parametrize("processors", PROCESSORS)
def test_cases_cover_every_dealing_shape(processors):
    """Across the cases, each P sees clipped tiles, several tiles on one
    processor and (where tiles run out) empty processors."""
    clipped = several = empty = False
    for make, tile, _ in CASES.values():
        deal = deal_tiles(Tiling(make().space, tile), processors)
        clipped |= bool((deal.sizes < deal.sizes.max()).any())
        several |= deal.keys.shape[0] > processors
        empty |= 0 in deal.counts()
    assert clipped and several
    assert empty or processors == 3


@pytest.mark.parametrize("line_size", [1, 2])
@pytest.mark.parametrize("interleave", ["roundrobin", "sequential"])
@pytest.mark.parametrize("processors", PROCESSORS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_parity_many_tiles_per_processor(name, processors, interleave, line_size):
    make, tile, sweeps = CASES[name]
    fast, exact = assert_parity(
        make(),
        tile,
        processors,
        line_size=line_size,
        sweeps=sweeps,
        interleave=interleave,
    )
    assert [p.footprint for p in fast.processors] == [
        p.footprint for p in exact.processors
    ]
    assert fast.shared_elements == exact.shared_elements
    assert (
        fast.machine.directory.sharer_histogram()
        == exact.machine.directory.sharer_histogram()
    )


@pytest.mark.parametrize("processors", PROCESSORS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_footprints_match_sets(name, processors):
    """Footprints and sharing against per-processor Python sets (both
    engines share :func:`collect_footprints`, so parity cannot see a
    wrong count)."""
    make, tile, _ = CASES[name]
    nest = make()
    deal = deal_tiles(Tiling(nest.space, tile), processors)
    streams = reference_streams(nest, deal.iterations)
    footprints, shared = collect_footprints(
        [(streams, deal.offsets)], processors, injective=injective_arrays(nest)
    )
    touched: dict[str, list[set]] = {}
    for p, per_proc in split_streams(streams, deal.offsets).items():
        for s in per_proc:
            sets = touched.setdefault(s.array, [set() for _ in range(processors)])
            sets[p].update(map(tuple, s.coords.tolist()))
    for array, sets in touched.items():
        for p in range(processors):
            assert footprints[p].get(array, 0) == len(sets[p])
        owners: dict = {}
        for p, elements in enumerate(sets):
            for e in elements:
                owners[e] = owners.get(e, 0) + 1
        assert shared[array] == sum(1 for n in owners.values() if n > 1)
