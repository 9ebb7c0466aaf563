"""Differential tests for the fast-dispatch subsystem.

The subsystem (TD prefetch caches + kick-off fast path + locality-aware
stealing, PR 4) threads through the finish engines, the scheduler and the
shared Send TDs block, so the guarantees are layered like PRs 1-3:

* With every feature off (``td_cache_entries=0``,
  ``kickoff_fast_path=False`` — the defaults) the machine must be
  **cycle-for-cycle identical** to the pre-dispatch machine at every
  shard count, on top of the full PR 3 stack (4 masters, batch 8, retire
  depth 4).  The pre-dispatch machine no longer exists in-tree, so its
  makespans and full per-task schedules (as a digest) were recorded from
  the PR 3 revision and pinned here as golden constants.  None of the
  subsystem's structures may even exist: no prefetch processes, no cache,
  no ticket deferral (``locality_stealing=None`` derives *off*).
* With any feature on, every configuration must retire the complete task
  set with a schedule that respects the golden dependence graph — the
  cache-hit Send TDs path, the fast-path dispatch and the ownership
  notice are exactly what replace the forward-and-schedule hop, so a
  legality violation here would point straight at them.  (The coherence
  property tests live in ``test_dispatch_properties.py``.)
"""

import hashlib

import pytest

from repro.config import BUS_MODEL_FITTED, SystemConfig, fast_dispatch
from repro.machine import run_trace
from repro.runtime.task_graph import build_task_graph
from repro.traces import gaussian_trace, random_trace


def _random():
    return random_trace(
        400,
        n_addresses=96,
        max_params=6,
        seed=7,
        mean_exec=4000,
        mean_memory=0,
        name="random-hazard-dense",
    )


def _gaussian():
    return gaussian_trace(28)


TRACES = {"random": _random, "gaussian": _gaussian}

#: (makespan_ps, schedule digest) recorded from the PR 3 machine (commit
#: 9fdd683, before the fast-dispatch subsystem existed) at workers=8,
#: masters=4, batch=8, retire depth 4, contention-free, fitted bus.
#: "shardsN" = N shards.
GOLDEN = {
    ("random", "shards2"): (8_803_690, "55ed4116661c7458"),
    ("random", "shards4"): (7_668_629, "d1be90966d8fd1f5"),
    ("gaussian", "shards2"): (13_269_000, "9c27d357e785f467"),
    ("gaussian", "shards4"): (11_763_000, "e3c732b1a35fb3d3"),
}

ENGINES = {
    "shards2": dict(maestro_shards=2),
    "shards3": dict(maestro_shards=3),
    "shards4": dict(maestro_shards=4),
}
#: The engines the goldens pin (no golden pins an odd shard count).
GOLDEN_ENGINES = sorted({engine for _, engine in GOLDEN})


def _config(**overrides) -> SystemConfig:
    return SystemConfig(
        workers=8,
        master_cores=4,
        submission_batch=8,
        retire_pipeline_depth=4,
        memory_contention=False,
        bus_model=BUS_MODEL_FITTED,
        **overrides,
    )


def _schedule_digest(result) -> str:
    """Digest of every task's full lifecycle: any single-event drift in
    ready/dispatch/exec/retire timing or core assignment changes it."""
    rows = [
        (r.tid, r.core, r.ready, r.dispatched, r.exec_start, r.completed)
        for r in result.records
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("engine", GOLDEN_ENGINES)
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_subsystem_off_is_cycle_identical_to_pre_dispatch(trace_name, engine):
    trace = TRACES[trace_name]()
    result = run_trace(trace, _config(**ENGINES[engine]))
    makespan, digest = GOLDEN[(trace_name, engine)]
    assert result.makespan == makespan
    assert _schedule_digest(result) == digest


def test_default_knobs_are_the_pre_dispatch_machine():
    """Explicitly passing the off knobs changes nothing, and the derived
    steal policy stays the old ticket policy when the subsystem is off."""
    assert SystemConfig(td_cache_entries=0, kickoff_fast_path=False) == SystemConfig()
    assert SystemConfig().steal_locality is False
    assert SystemConfig().use_fast_dispatch is False
    on = SystemConfig(maestro_shards=4, td_cache_entries=8)
    assert on.use_fast_dispatch and on.steal_locality
    # An explicit steal policy overrides the derivation both ways.
    assert SystemConfig(maestro_shards=4, locality_stealing=True).steal_locality
    assert not SystemConfig(
        maestro_shards=4, kickoff_fast_path=True, locality_stealing=False
    ).steal_locality


def test_fast_dispatch_needs_the_sharded_engine():
    """The single-Maestro machine has no dispatch subsystem: asking for
    one is an error, not a silent no-op."""
    with pytest.raises(ValueError, match="sharded"):
        SystemConfig(td_cache_entries=64)
    with pytest.raises(ValueError, match="sharded"):
        SystemConfig(kickoff_fast_path=True)
    # The steal scheduler only exists in the sharded engine too.
    with pytest.raises(ValueError, match="sharded"):
        SystemConfig(locality_stealing=True)
    SystemConfig(td_cache_entries=64, kickoff_fast_path=True, maestro_shards=2)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize(
    "features",
    [
        dict(td_cache_entries=16),
        dict(kickoff_fast_path=True),
        dict(td_cache_entries=16, kickoff_fast_path=True),
        dict(td_cache_entries=16, kickoff_fast_path=True, td_prefetch_depth=2),
    ],
    ids=["cache", "fastpath", "both", "both-deep"],
)
def test_fast_dispatch_schedule_is_legal(engine, features):
    trace = _random()
    graph = build_task_graph(trace)
    result = run_trace(trace, _config(**ENGINES[engine], **features))
    assert all(r.is_complete() for r in result.records)
    assert result.verify_against(graph) == []
    assert result.stats["dep_table"]["occupied"] == 0
    sub = result.stats["dispatch"]["fast_dispatch"]
    if features.get("td_cache_entries"):
        cache = sub["td_cache"]
        assert cache["hits"] + cache["misses"] == len(result.records)
    if features.get("kickoff_fast_path"):
        assert sub["fast_dispatches"] > 0


def test_subsystem_actually_shortens_the_chain_hops():
    """On the latency-bound flood the full subsystem must beat the
    both-off machine and overlap the TD transfer (the bench pins the
    full-size 1.25x bar; this is the fast in-suite version)."""
    trace = _random()
    off = run_trace(trace, _config(maestro_shards=4))
    on = run_trace(
        trace,
        _config(
            maestro_shards=4,
            td_cache_entries=64,
            td_prefetch_depth=2,
            kickoff_fast_path=True,
        ),
    )
    assert on.makespan < off.makespan
    off_hop = off.stats["dispatch"]["chain_hop_ns"]
    on_hop = on.stats["dispatch"]["chain_hop_ns"]
    assert on_hop["td_transfer"] < off_hop["td_transfer"]
    assert on_hop["forward"] < off_hop["forward"]


def test_fast_dispatch_preset_runs_the_bench_machine():
    cfg = fast_dispatch()
    assert cfg.td_cache_entries == 64
    assert cfg.kickoff_fast_path
    assert cfg.td_prefetch_depth == 2
    assert cfg.steal_locality
    assert cfg.retire_pipeline_depth == 4
    assert cfg.maestro_shards == 4
    trace = _gaussian()
    graph = build_task_graph(trace)
    result = run_trace(trace, cfg)
    assert all(r.is_complete() for r in result.records)
    assert result.verify_against(graph) == []
