"""Differential tests for the decentralized check scatter (PR 6).

The refactor replaced the single Check Scatter sequencer with per-master
scatter slices re-sequenced per destination shard, and added check-side
Dependence Table coalescing in the check engines, so the guarantees are
layered like PRs 1-5:

* With both check knobs off (``decentralized_check_scatter=False``,
  ``check_coalesce_limit=1`` — the defaults) the machines must be
  **cycle-for-cycle identical** to the PR 5 machines: the sharded engine
  at every shard count on the full 4-master/batch-8/depth-4/fast-dispatch
  stack, and the single-Maestro engine on the plain multi-master stack.
  The pre-refactor machine no longer exists in-tree, so its makespans and
  full per-task schedules (as a digest) were recorded from the PR 5
  revision and pinned here as golden constants.  None of the scatter's
  structures may even exist: no slice FIFOs, no re-sequencers, no
  per-master scatter busy trackers.
* With any knob on, every sharded configuration must retire exactly the
  baseline task set with a schedule that respects the golden dependence
  graph — decentralized injection, re-sequenced delivery and coalesced
  row probes are exactly what replace the serial sequencer, so a
  legality violation here points straight at them.  In particular the
  program-ordered Check Scatter invariant (ARCHITECTURE.md invariant 6)
  must survive: same-address probes reach their owner shard in program
  order no matter which master's slice injected them.
"""

import hashlib

import pytest

from repro.config import BUS_MODEL_FITTED, SystemConfig, decentral_check
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

#: (makespan_ps, schedule digest) recorded from the PR 5 machine (commit
#: 2126e9e, before the decentralized check scatter existed).  The sharded
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

#: The check knobs require the sharded engine (validated at config time),
#: so the knob-grid legality tests cover the sharded engines only.
SHARDED_ENGINES = [e for e in ENGINES if e != "single"]


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
        # on top, exactly as the PR 5 goldens were recorded.
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
def test_knobs_off_is_cycle_identical_to_pre_check_scatter(trace_name, engine):
    trace = TRACES[trace_name]()
    result = run_trace(trace, _config(engine))
    makespan, digest = GOLDEN[(trace_name, engine)]
    assert result.makespan == makespan
    assert _schedule_digest(result) == digest


def test_default_knobs_are_the_pre_check_machine():
    """Explicitly passing the off knobs changes nothing, and the pipeline
    property derives off."""
    assert (
        SystemConfig(
            maestro_shards=2,
            decentralized_check_scatter=False,
            check_coalesce_limit=1,
        )
        == SystemConfig(maestro_shards=2)
    )
    assert SystemConfig().use_check_pipeline is False
    assert SystemConfig(
        maestro_shards=2, decentralized_check_scatter=True
    ).use_check_pipeline
    assert SystemConfig(maestro_shards=2, check_coalesce_limit=4).use_check_pipeline


def test_knobs_off_machine_builds_no_scatter_structures():
    """No slice FIFOs, no re-sequencers, no per-master scatter busy
    trackers on the knobs-off machine — the gating that keeps it
    cycle-identical."""
    from repro.hw.fabric import Fabric
    from repro.hw.sharded_maestro import ShardedMaestro
    from repro.scoreboard import Scoreboard
    from repro.sim import Simulator

    trace = _random()
    fab = Fabric(Simulator(), _config("shards2"), trace)
    assert not hasattr(fab, "scatter_slices")
    assert not hasattr(fab, "check_reseq")
    maestro = ShardedMaestro(fab, Scoreboard(len(trace)))
    assert not any(".scatter" in name for name in maestro.busy)

    on = Fabric(
        Simulator(),
        _config("shards2", decentralized_check_scatter=True),
        trace,
    )
    assert len(on.scatter_slices) == 4  # one slice per master
    assert len(on.scatter_out) == 2 and len(on.check_reseq) == 2
    maestro_on = ShardedMaestro(on, Scoreboard(len(trace)))
    assert {f"m{m}.scatter" for m in range(4)} <= set(maestro_on.busy)


def test_check_coalesce_limit_validates():
    with pytest.raises(ValueError, match="check_coalesce_limit"):
        SystemConfig(maestro_shards=2, check_coalesce_limit=0)


def test_check_knobs_require_the_sharded_engine():
    """The decentralized scatter and check coalescing live in the sharded
    machine's check path; on the single-Maestro engine they would be
    silently dead knobs, so the config refuses them."""
    with pytest.raises(ValueError, match="sharded"):
        SystemConfig(decentralized_check_scatter=True)
    with pytest.raises(ValueError, match="sharded"):
        SystemConfig(check_coalesce_limit=4)
    SystemConfig(maestro_shards=2, check_coalesce_limit=4)


#: The check knob grid every sharded engine must retire the baseline task
#: set under (the property decentralization/coalescing must preserve).
KNOB_GRID = [
    dict(decentralized_check_scatter=True),
    dict(check_coalesce_limit=8),
    dict(decentralized_check_scatter=True, check_coalesce_limit=8),
]
GRID_IDS = ["decentral", "coalesce", "both"]


@pytest.mark.parametrize("engine", SHARDED_ENGINES)
@pytest.mark.parametrize("knobs", KNOB_GRID, ids=GRID_IDS)
def test_check_pipeline_schedule_is_legal(engine, knobs):
    """Across the knob grid, on every sharded engine: the complete task
    set retires, the schedule respects the golden dependence graph, and
    the tables drain — the decentralized/coalesced machine computes
    exactly what the sequenced one did."""
    trace = _random()
    graph = build_task_graph(trace)
    result = run_trace(trace, _config(engine, **knobs))
    assert all(r.is_complete() for r in result.records)
    assert result.verify_against(graph) == []
    assert result.stats["dep_table"]["occupied"] == 0
    check = result.stats["check"]
    assert check["probes"] == sum(t.n_params for t in trace)
    if knobs.get("decentralized_check_scatter"):
        # Every probe flowed through a re-sequencer, none held forever.
        assert sum(check["reseq_forwarded"]) == check["probes"]
    if knobs.get("check_coalesce_limit", 1) > 1:
        # Coalescing must actually drain batches on the loaded machine.
        assert check["mean_batch"] > 1.0


@pytest.mark.parametrize("knobs", KNOB_GRID, ids=GRID_IDS)
def test_check_pipeline_retires_exactly_the_baseline_task_set(knobs):
    """Retire-set equality on the full sharded stack: the optimized
    machine completes precisely the tasks the knobs-off machine does."""
    trace = _random()
    baseline = run_trace(trace, _config("shards4"))
    optimized = run_trace(trace, _config("shards4", **knobs))
    base_set = {r.tid for r in baseline.records if r.is_complete()}
    opt_set = {r.tid for r in optimized.records if r.is_complete()}
    assert base_set == opt_set == set(range(len(trace)))


def test_same_address_check_order_survives_decentralization():
    """The invariant-6 regression: a chain of writers on one address —
    every check probe targets the same Dependence Table row on the same
    owner shard, submitted round-robin across four masters so successive
    probes leave *different* scatter slices — must still check, and
    therefore release, in exact program order."""
    from repro.traces import AccessMode, Param, TaskTrace, TraceTask

    tasks = [
        TraceTask(tid, 1, (Param(0x1000, 64, AccessMode.INOUT),), exec_time=2000)
        for tid in range(64)
    ]
    trace = TaskTrace("waw-chain", tasks)
    graph = build_task_graph(trace)
    cfg = _config(
        "shards4", decentralized_check_scatter=True, check_coalesce_limit=8
    )
    result = run_trace(trace, cfg)
    assert result.verify_against(graph) == []
    order = sorted(result.records, key=lambda r: r.exec_start)
    assert [r.tid for r in order] == list(range(64))


def test_coalesced_check_group_never_waits_for_the_whole_group():
    """Regression: a same-row probe group used to wait for one free slot
    per probe before taking the port.  On a tight shard slice that wait
    could need a slot that only a task checked *behind* the group frees,
    and the run ended in a 36-process deadlock at batch limit 2 (the
    one-probe engine retired it).  A group larger than the free slots now
    commits what fits and queues the rest."""
    trace = random_trace(
        60, n_addresses=4, max_params=4, seed=61, mean_exec=2000, mean_memory=0
    )
    cfg = SystemConfig(
        workers=4,
        maestro_shards=3,
        dependence_table_entries=8,
        check_coalesce_limit=2,
        memory_contention=False,
    )
    result = run_trace(trace, cfg)
    assert all(r.is_complete() for r in result.records)
    assert result.verify_against(build_task_graph(trace)) == []
    assert result.stats["dep_table"]["occupied"] == 0


def test_decentral_check_preset_runs_the_bench_machine():
    cfg = decentral_check()
    assert cfg.decentralized_check_scatter
    assert cfg.check_coalesce_limit == 8
    assert cfg.use_check_pipeline
    assert cfg.finish_coalesce_limit == 8 and cfg.speculative_kickoff
    assert cfg.master_cores == 8
    assert cfg.td_cache_entries == 64 and cfg.kickoff_fast_path
    trace = _gaussian()
    graph = build_task_graph(trace)
    result = run_trace(trace, cfg)
    assert all(r.is_complete() for r in result.records)
    assert result.verify_against(graph) == []


def test_decentralization_actually_unloads_the_sequencer():
    """On a param-dense flood the decentralized machine must drop the
    busiest scatter engine's occupancy (the bench pins the full-size
    <50% bar; this is the fast in-suite version)."""
    trace = random_trace(
        300,
        n_addresses=512,
        max_params=6,
        seed=7,
        mean_exec=500,
        mean_memory=0,
        name="random-param-dense",
    )
    off = run_trace(trace, _config("shards4"))
    on = run_trace(trace, _config("shards4", decentralized_check_scatter=True))

    def max_scatter(result):
        util = result.stats["maestro_utilization"]
        return max(
            v for k, v in util.items()
            if k == "scatter" or k.endswith(".scatter")
        )

    assert max_scatter(on) < max_scatter(off)
