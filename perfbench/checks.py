"""Output checks, run untimed after the timed phase.

Each check recomputes a served answer by a route that does not go
through the code under test: tile footprints by walking the origin tile,
simulated counts with the exact MSI engine, served responses with an
in-process run.  A check returns ``None`` when the answer holds and a
one-line reason when it does not.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core.tiles import ParallelepipedTile, RectangularTile
from repro.lang import lower_nest, parse_program
from repro.sim import simulate_nest

#: ``_round_tile``'s volume tolerance: a rounded parallelepiped keeps
#: ``|det L|`` within this share of the load-balance volume ``V``.
DET_TOL = 0.5


def nest_of(payload: dict):
    program = parse_program(payload["source"])
    return lower_nest(program.nests[0], dict(payload.get("bindings", {})))


def tile_of(partition: dict) -> ParallelepipedTile:
    if partition.get("grid") is not None:
        return RectangularTile(partition["tile_sides"])
    return ParallelepipedTile(np.asarray(partition["l_matrix"], dtype=np.int64))


def brute_footprint(nest, sides) -> int:
    """Distinct elements the origin tile touches, summed per reference class.

    References to one array with one ``G`` form the classes the model
    sums (offsets outside ``G``'s row lattice never meet, so their union
    is their sum); each class's footprint is counted by applying
    ``i·G + a`` to every iteration of the box ``[0, sides)``.
    """
    points = np.array(list(itertools.product(*(range(int(s)) for s in sides))), dtype=np.int64)
    groups: dict[tuple, set] = {}
    for acc in nest.accesses:
        ref = acc.ref
        key = (ref.array, ref.g.shape, ref.g.tobytes())
        elements = points @ ref.g + ref.offset
        groups.setdefault(key, set()).update(map(tuple, elements.tolist()))
    return sum(len(s) for s in groups.values())


def check_partition(payload: dict, report: dict) -> str | None:
    """Footprint (rectangular) or volume (parallelepiped) check of one op."""
    part = report["partition"]
    predicted = report["predicted"]["cold_misses_per_tile"]
    processors = payload["processors"]
    if part.get("grid") is not None:
        if math.prod(part["grid"]) != processors:
            return f"grid {part['grid']} does not multiply to P={processors}"
        counted = brute_footprint(nest_of(payload), part["tile_sides"])
        if counted != predicted:
            return f"predicted {predicted} misses/tile, walking the tile counts {counted}"
        return None
    volume = report["program"]["iterations"] / processors
    det = abs(round(np.linalg.det(np.asarray(part["l_matrix"], dtype=float))))
    if abs(det - volume) > DET_TOL * volume:
        return f"|det L| = {det} is not within {DET_TOL}·V of V = {volume}"
    return None


def simulate_chosen(payload: dict, report: dict, engine: str):
    return simulate_nest(
        nest_of(payload),
        tile_of(report["partition"]),
        payload["processors"],
        sweeps=payload.get("sweeps", 1),
        engine=engine,
    )


def total_misses(sim) -> int:
    return int(sum(p.misses for p in sim.processors))


def check_simulation(payload: dict, report: dict) -> str | None:
    """The exact engine must reproduce the measured counts."""
    sim = simulate_chosen(payload, report, "exact")
    measured = report["measured"]
    got = (total_misses(sim), sim.coherence_misses, sim.invalidations)
    want = (
        measured["total_misses"],
        measured["miss_breakdown"]["coherence"],
        measured["invalidations"],
    )
    if got != want:
        return f"exact engine gives (misses, coherence, invalidations) {got}, report says {want}"
    return None


def check_served(served: dict, local: dict) -> str | None:
    """A served response must equal an in-process run of the same request."""
    for section in ("partition", "predicted"):
        if served.get(section) != local.get(section):
            return f"served {section!r} differs from the in-process run"
    return None
