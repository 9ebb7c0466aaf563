"""Differential tests for the staged resolve pipeline.

The refactor (PR 5) moved the finish/resolve path of *both* engines onto
the shared staged blocks of ``repro.hw.resolve`` (notify intake →
dependence-table update → waiter kick) and built two optimizations on the
skeleton, so the guarantees are layered like PRs 1-4:

* With both resolve knobs off (``finish_coalesce_limit=1``,
  ``speculative_kickoff=False`` — the defaults) the machines must be
  **cycle-for-cycle identical** to the PR 4 machines: the sharded engine
  at every shard count on the full 4-master/batch-8/depth-4/fast-dispatch
  stack, and the single-Maestro engine on the plain multi-master stack.
  The pre-refactor machine no longer exists in-tree, so its makespans and
  full per-task schedules (as a digest) were recorded from the PR 4
  revision and pinned here as golden constants.  None of the pipeline's
  structures may even exist: no kick queues, no kick-unit processes.
* With any knob on, every configuration must retire exactly the baseline
  task set with a schedule that respects the golden dependence graph —
  coalesced batches, merged row accesses and decoupled kicks are exactly
  what replace the serial loop, so a legality violation here points
  straight at them.
"""

import hashlib

import pytest

from repro.config import BUS_MODEL_FITTED, SystemConfig, coalesced_resolve
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

#: (makespan_ps, schedule digest) recorded from the PR 4 machine (commit
#: a58a737, before the staged resolve pipeline existed).  The sharded
#: engines ("shardsN" = N shards) ran the full stack: workers=8,
#: masters=4, batch=8, retire depth 4, TD cache 16 @ prefetch depth 2,
#: kick-off fast path, contention-free, fitted bus.  "single" is the
#: single-Maestro engine on the same stack minus the sharded-only
#: features.
GOLDEN = {
    ("random", "single"): (16_740_805, "53c6421f4eb09bab"),
    ("random", "shards2"): (7_991_580, "263d9c5c2afc27b6"),
    ("random", "shards4"): (4_804_541, "7d50b0b1ddc856f1"),
    ("gaussian", "single"): (20_898_500, "8e30c068472b5c88"),
    ("gaussian", "shards2"): (13_005_000, "6b74180e9e3c6243"),
    ("gaussian", "shards4"): (11_056_500, "b6dfa9d2f2d1cff4"),
}

ENGINES = {
    "single": dict(),
    "shards2": dict(maestro_shards=2),
    "shards3": dict(maestro_shards=3),
    "shards4": dict(maestro_shards=4),
}
#: The engines the goldens pin (no golden pins an odd shard count).
GOLDEN_ENGINES = sorted({engine for _, engine in GOLDEN})


def _config(engine: str, **overrides) -> SystemConfig:
    base = dict(
        workers=8,
        master_cores=4,
        submission_batch=8,
        memory_contention=False,
        bus_model=BUS_MODEL_FITTED,
    )
    if engine != "single":
        # The sharded-only stack (retire pipeline + fast dispatch) rides
        # on top, exactly as the PR 4 goldens were recorded.
        base.update(
            retire_pipeline_depth=4,
            td_cache_entries=16,
            td_prefetch_depth=2,
            kickoff_fast_path=True,
        )
    base.update(ENGINES[engine])
    base.update(overrides)
    return SystemConfig(**base)


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
def test_knobs_off_is_cycle_identical_to_pre_resolve_pipeline(trace_name, engine):
    trace = TRACES[trace_name]()
    result = run_trace(trace, _config(engine))
    makespan, digest = GOLDEN[(trace_name, engine)]
    assert result.makespan == makespan
    assert _schedule_digest(result) == digest


def test_default_knobs_are_the_pre_resolve_machine():
    """Explicitly passing the off knobs changes nothing, and the pipeline
    property derives off."""
    assert (
        SystemConfig(finish_coalesce_limit=1, speculative_kickoff=False)
        == SystemConfig()
    )
    assert SystemConfig().use_resolve_pipeline is False
    assert SystemConfig(finish_coalesce_limit=4).use_resolve_pipeline
    assert SystemConfig(speculative_kickoff=True).use_resolve_pipeline


def test_knobs_off_machine_builds_no_resolve_structures():
    """No kick queues, no kick-unit processes, no extra busy trackers on
    the knobs-off machine — the gating that keeps it cycle-identical."""
    from repro.hw.fabric import Fabric
    from repro.hw.sharded_maestro import ShardedMaestro
    from repro.scoreboard import Scoreboard
    from repro.sim import Simulator

    trace = _random()
    fab = Fabric(Simulator(), _config("shards2"), trace)
    assert fab.resolve.kick_queues == []
    maestro = ShardedMaestro(fab, Scoreboard(len(trace)))
    assert not any(".kick" in name for name in maestro.busy)

    on = Fabric(Simulator(), _config("shards2", speculative_kickoff=True), trace)
    assert len(on.resolve.kick_queues) == 2
    maestro_on = ShardedMaestro(on, Scoreboard(len(trace)))
    assert {f"s{s}.kick" for s in range(2)} <= set(maestro_on.busy)


def test_finish_coalesce_limit_validates():
    with pytest.raises(ValueError, match="finish_coalesce_limit"):
        SystemConfig(finish_coalesce_limit=0)


#: The resolve knob grid every engine must retire the baseline task set
#: under (the property the coalescing/speculation must preserve).
KNOB_GRID = [
    dict(finish_coalesce_limit=4),
    dict(speculative_kickoff=True),
    dict(finish_coalesce_limit=8, speculative_kickoff=True),
]
GRID_IDS = ["coalesce", "speculative", "both"]


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("knobs", KNOB_GRID, ids=GRID_IDS)
def test_resolve_pipeline_schedule_is_legal(engine, knobs):
    """Across the knob grid, on both engines: the complete task set
    retires, the schedule respects the golden dependence graph, and the
    tables drain — the coalesced/speculative machine computes exactly
    what the serial one did."""
    trace = _random()
    graph = build_task_graph(trace)
    result = run_trace(trace, _config(engine, **knobs))
    assert all(r.is_complete() for r in result.records)
    assert result.verify_against(graph) == []
    assert result.stats["dep_table"]["occupied"] == 0
    resolve = result.stats["resolve"]
    assert resolve["updates"] == resolve["batches"] or (
        resolve["coalesce_limit"] > 1 or engine == "single"
    )
    if knobs.get("speculative_kickoff"):
        assert resolve["speculative_kicks"] > 0
    if knobs.get("finish_coalesce_limit", 1) > 1 and engine != "single":
        # Coalescing must actually drain batches on the loaded machine.
        assert resolve["mean_batch"] > 1.0


@pytest.mark.parametrize("knobs", KNOB_GRID, ids=GRID_IDS)
def test_resolve_pipeline_retires_exactly_the_baseline_task_set(knobs):
    """Retire-set equality on the full sharded stack: the optimized
    machine completes precisely the tasks the knobs-off machine does,
    with identical per-task release predecessors forming a legal forest."""
    trace = _random()
    baseline = run_trace(trace, _config("shards4"))
    optimized = run_trace(trace, _config("shards4", **knobs))
    base_set = {r.tid for r in baseline.records if r.is_complete()}
    opt_set = {r.tid for r in optimized.records if r.is_complete()}
    assert base_set == opt_set == set(range(len(trace)))


def test_same_address_finish_order_survives_coalescing():
    """The invariant-5 regression: a chain of writers on one address —
    every finish hits the same Dependence Table row, so coalesced batches
    constantly merge updates into latched rows — must still release in
    exact program order."""
    from repro.traces import AccessMode, Param, TaskTrace, TraceTask

    tasks = [
        TraceTask(tid, 1, (Param(0x1000, 64, AccessMode.INOUT),), exec_time=2000)
        for tid in range(64)
    ]
    trace = TaskTrace("waw-chain", tasks)
    graph = build_task_graph(trace)
    cfg = _config(
        "shards4", finish_coalesce_limit=8, speculative_kickoff=True
    )
    result = run_trace(trace, cfg)
    assert result.verify_against(graph) == []
    order = sorted(result.records, key=lambda r: r.exec_start)
    assert [r.tid for r in order] == list(range(64))


def test_coalesced_resolve_preset_runs_the_bench_machine():
    cfg = coalesced_resolve()
    assert cfg.finish_coalesce_limit == 8
    assert cfg.speculative_kickoff
    assert cfg.use_resolve_pipeline
    assert cfg.master_cores == 8
    assert cfg.td_cache_entries == 64 and cfg.kickoff_fast_path
    trace = _gaussian()
    graph = build_task_graph(trace)
    result = run_trace(trace, cfg)
    assert all(r.is_complete() for r in result.records)
    assert result.verify_against(graph) == []


def test_speculation_actually_cuts_the_resolve_hop():
    """On the hazard-dense flood the speculative machine must shorten the
    resolve hop component (the bench pins the full-size 1.5x bar; this is
    the fast in-suite version)."""
    trace = _random()
    off = run_trace(trace, _config("shards4"))
    on = run_trace(
        trace,
        _config(
            "shards4", finish_coalesce_limit=8, speculative_kickoff=True
        ),
    )
    off_hop = off.stats["dispatch"]["chain_hop_ns"]
    on_hop = on.stats["dispatch"]["chain_hop_ns"]
    assert on_hop["resolve"] < off_hop["resolve"]
