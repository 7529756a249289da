"""The fast engine's write-shared residue, resolved per line.

Lines that several processors touch and at least one writes are the
fast engine's *residue*: their MSI history depends on interleaving, so
the engine resolves each line's ordered events with sorts and group-bys
(:func:`repro.sim.fast._resolve_lines`) instead of calling the scalar
protocol.  These tests pin three things the differential-parity suite
does not check on its own:

* the fast engine never calls the per-access protocol;
* the residue's materialised end state — invalidation history, fill
  history and every simulator count (the report's ``measured``
  section) — equals the exact engine's;
* arrays of different rank can share one residue (no paper program
  produces that).
"""

from __future__ import annotations

import pytest

from repro.check import CheckConfig, run_check
from repro.lang import compile_nest
from repro.obs.report import measured_section
from repro.sim import Machine, MachineConfig, simulate_nest
from repro.sim.directory import Directory

from .test_sim_parity import PROGRAMS, _half_tile

# Two written, processor-shared arrays of rank 2 and rank 1 in one nest.
MIXED_RANK = """
Doseq (t, 1, 2)
  Doall (i, 1, N)
    Doall (j, 1, N)
      A(i,j) = A(i-1,j) + A(i,j+1) + V(i+1)
      V(i) = V(i-1) + A(i,j)
    EndDoall
  EndDoall
EndDoseq
"""


def _run(nest, engine, *, line_size=1, **kwargs):
    machine = Machine(MachineConfig(processors=4, line_size=line_size))
    return simulate_nest(
        nest, _half_tile(nest), 4, engine=engine, machine=machine, **kwargs
    )


def _end_state(result):
    """Materialised invalidation/fill history plus every count."""
    d = result.machine.directory
    d.materialize()
    invalidated = {a: s for a, s in d._invalidated_at.items() if s}
    counts = measured_section(result)
    del counts["engine"]  # which engine ran, not what it counted
    return invalidated, set(d._ever_filled), counts


def assert_end_state_parity(nest, **kwargs):
    exact = _run(nest, "exact", **kwargs)
    fast = _run(nest, "fast", **kwargs)
    assert fast == exact
    assert _end_state(fast) == _end_state(exact)
    fast.machine.check()
    return fast


@pytest.mark.parametrize("name", ["figure9", "matmul_sync"])
def test_fast_engine_makes_no_protocol_call(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-access protocol call on the fast engine")

    monkeypatch.setattr(Machine, "access", refuse)
    monkeypatch.setattr(Directory, "read", refuse)
    monkeypatch.setattr(Directory, "write", refuse)
    nest = PROGRAMS[name]()
    r = _run(nest, "fast", sweeps=2)
    assert r.engine == "fast"
    assert r.invalidations > 0  # the nest really has a write-shared residue


@pytest.mark.parametrize("name", ["figure9", "matmul_sync"])
def test_end_state_parity_smoke(name):
    assert_end_state_parity(PROGRAMS[name](), line_size=2, sweeps=3)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("interleave", ["roundrobin", "sequential"])
@pytest.mark.parametrize("line_size", [1, 2])
@pytest.mark.parametrize("sweeps", [1, 2, 3])
def test_end_state_parity_sweep(name, interleave, line_size, sweeps):
    assert_end_state_parity(
        PROGRAMS[name](), line_size=line_size, sweeps=sweeps, interleave=interleave
    )


@pytest.mark.parametrize("interleave", ["roundrobin", "sequential"])
@pytest.mark.parametrize("line_size", [1, 2])
def test_mixed_rank_residue(interleave, line_size):
    nest = compile_nest(MIXED_RANK, {"N": 6})
    fast = assert_end_state_parity(nest, line_size=line_size, interleave=interleave)
    residue_arrays = {a for a, _ in fast.machine.directory._invalidated_at}
    assert residue_arrays == {"A", "V"}


def test_residue_fault_caught():
    """Owner-forwarded reads booked as clean reads by the resolver are
    caught by ``engine-parity``."""
    report = run_check(
        cases=2, seed=0, fault="residue", config=CheckConfig(shrink_budget=40)
    )
    assert report["failed"] >= 1
    assert {f["invariant"] for f in report["failures"]} == {"engine-parity"}
