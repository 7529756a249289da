"""Cache-coherent multiprocessor simulator (substrate S10).

A software stand-in for the Alewife machine of Section 4, matching the
analytical model of Section 2.2 / Figure 2:

* ``P`` processors, each with a coherent cache (infinite by default —
  "caches are large enough to hold all the data required by a loop
  partition" — or finite LRU);
* unit cache lines ("We assume that cache lines are of unit length");
* a full-map directory invalidation protocol (MSI);
* distributed memory modules, one per node, with a configurable
  array-to-home mapping (data partitioning);
* a 2-D mesh interconnect ("The nodes are configured in a 2-dimensional
  mesh communication network") with hop-weighted traffic accounting.

The executor runs a partitioned loop nest on the machine and reports the
event counts the paper's framework predicts: cold misses per tile
(= cumulative footprints), sharing between tiles (= the dilation terms),
and — for ``Doseq``-wrapped nests — steady-state coherence misses and
invalidations.
"""

from .cache import Cache, CacheStats
from .directory import Directory, CoherenceStats
from .memory import AddressMap, block_address_map, flat_address_map
from .network import MeshNetwork
from .machine import Machine, MachineConfig
from .trace import RefStream, reference_streams
from .executor import simulate_nest, SimulationResult, ProcessorStats
from .fast import fast_path_blockers, supports_fast_path
from .stats import format_table

__all__ = [
    "Cache",
    "CacheStats",
    "Directory",
    "CoherenceStats",
    "AddressMap",
    "block_address_map",
    "flat_address_map",
    "MeshNetwork",
    "Machine",
    "MachineConfig",
    "RefStream",
    "reference_streams",
    "simulate_nest",
    "fast_path_blockers",
    "supports_fast_path",
    "SimulationResult",
    "ProcessorStats",
    "format_table",
]
