"""Property-based schedule validation across every execution engine.

For seeded random traces (dense RAW/WAR/WAW interaction over a small
shared address pool, :mod:`repro.traces.random_traces`), every engine that
claims to execute a trace — the software RTS baseline, the paper's single
Task Maestro, and the sharded multi-Maestro — must produce a schedule that
respects the golden dependence graph of :mod:`repro.runtime.task_graph`:

* every task runs exactly once and its lifecycle timestamps are monotone;
* no task's input fetch starts before the write-back of any RAW/WAR/WAW
  predecessor finishes.

The traces deliberately cross the hardware's spill thresholds (more
parameters than one Task Descriptor holds, kick-off fan-out beyond one
entry) so dummy-task and dummy-entry paths are validated too.

The sharded engine is additionally validated at every retire pipeline
depth: any ``retire_pipeline_depth`` must retire exactly the task set the
serialized depth-1 machine retires, with a legal schedule, and in-flight
finishes that touch the same Dependence Table entry must apply in finish
order (the same-address regression below).
"""

import pytest

from repro.config import SystemConfig
from repro.machine import run_trace
from repro.runtime.software_rts import run_software_rts
from repro.runtime.task_graph import build_task_graph
from repro.traces import random_trace
from repro.traces.trace import AccessMode, Param, TaskTrace, TraceTask

SEEDS = [0, 1, 2, 3, 4]

#: Hazard-dense pools: few addresses, parameter lists past the TD limit.
TRACE_KW = dict(n_tasks=80, n_addresses=10, max_params=6, mean_exec=1500)


def _trace(seed):
    return random_trace(seed=seed, name=f"random-{seed}", **TRACE_KW)


def _assert_legal(result, graph):
    problems = result.verify_against(graph)
    assert problems == [], "\n".join(problems[:5])


@pytest.mark.parametrize("seed", SEEDS)
def test_software_rts_schedule_respects_golden_graph(seed):
    trace = _trace(seed)
    graph = build_task_graph(trace)
    result = run_software_rts(trace, SystemConfig(workers=4))
    _assert_legal(result, graph)


@pytest.mark.parametrize("seed", SEEDS)
def test_single_maestro_schedule_respects_golden_graph(seed):
    trace = _trace(seed)
    graph = build_task_graph(trace)
    result = run_trace(
        trace, SystemConfig(workers=4, memory_batch_chunks=8)
    )
    _assert_legal(result, graph)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_maestro_schedule_respects_golden_graph(seed, shards):
    trace = _trace(seed)
    graph = build_task_graph(trace)
    result = run_trace(
        trace,
        SystemConfig(workers=4, maestro_shards=shards, memory_batch_chunks=8),
    )
    _assert_legal(result, graph)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_sharded_maestro_with_tiny_shard_tables(seed):
    """Per-shard capacity pressure: checks stall on a full shard slice and
    must resume when that shard's finish engine frees entries."""
    trace = _trace(seed)
    graph = build_task_graph(trace)
    cfg = SystemConfig(
        workers=2,
        maestro_shards=2,
        dependence_table_entries=16,
        kickoff_list_size=2,
        memory_contention=False,
    )
    result = run_trace(trace, cfg)
    _assert_legal(result, graph)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("depth", [2, 4, 7])
def test_any_retire_depth_matches_depth_one_task_set(seed, depth):
    """Property: for any ``retire_pipeline_depth``, the pipelined machine
    produces a *legal* schedule that retires exactly the task set the
    serialized (depth 1) machine retires — pipelining may reorder
    retirement, never drop, duplicate or illegally reorder execution."""
    trace = _trace(seed)
    graph = build_task_graph(trace)
    base_cfg = SystemConfig(workers=4, maestro_shards=2, memory_batch_chunks=8)
    serial = run_trace(trace, base_cfg)
    piped = run_trace(trace, base_cfg.with_(retire_pipeline_depth=depth))
    _assert_legal(piped, graph)
    serial_set = sorted(r.tid for r in serial.records if r.is_complete())
    piped_set = sorted(r.tid for r in piped.records if r.is_complete())
    assert piped_set == serial_set == list(range(len(trace)))


def _same_address_trace(n_tasks: int = 60) -> TaskTrace:
    """Every task touches one shared address: every finish message lands on
    the same Dependence Table entry.  Alternating groups of independent
    readers (which finish nearly simultaneously — several same-address
    finishes in flight at once) and a single writer each reader group must
    strictly precede/follow."""
    addr = 0x1000
    tasks = []
    for tid in range(n_tasks):
        mode = AccessMode.INOUT if tid % 5 == 4 else AccessMode.IN
        tasks.append(
            TraceTask(
                tid=tid,
                func=0,
                params=(Param(addr, 64, mode),),
                exec_time=500 + 37 * (tid % 7),
            )
        )
    return TaskTrace("same-address", tasks)


@pytest.mark.parametrize("depth", [2, 4, 8])
@pytest.mark.parametrize("shards", [2, 4])
def test_same_address_inflight_finishes_apply_in_order(depth, shards):
    """Regression for the finish-path per-address rule: with several
    finishes for one Dependence Table entry in flight concurrently, the
    writer after each reader group must not be kicked off until *every*
    reader's finish has been applied (a gather miscount or reordered
    same-address update would release it early)."""
    trace = _same_address_trace()
    graph = build_task_graph(trace)
    cfg = SystemConfig(
        workers=4,
        maestro_shards=shards,
        retire_pipeline_depth=depth,
        memory_contention=False,
    )
    result = run_trace(trace, cfg)
    _assert_legal(result, graph)
    assert all(r.is_complete() for r in result.records)
    assert result.stats["dep_table"]["occupied"] == 0


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_engines_agree_on_the_task_set(seed):
    """All three engines retire the same tasks (sanity cross-check)."""
    trace = _trace(seed)
    cfg = SystemConfig(workers=4, memory_batch_chunks=8)
    results = [
        run_software_rts(trace, cfg),
        run_trace(trace, cfg),
        run_trace(trace, cfg.with_(maestro_shards=2)),
    ]
    task_sets = [
        sorted(r.tid for r in res.records if r.is_complete()) for res in results
    ]
    assert task_sets[0] == task_sets[1] == task_sets[2] == list(range(len(trace)))


# ---- granularity-probe workloads (wait-chain / spatial decomposition) ----
#
# The efficiency benchmark family must be legal on every engine: the
# wait-chain's cross-linked columns exercise dense RAW release chains,
# and the 3D spatial decomposition's 28-parameter tasks cross both the
# TD parameter spill and the kick-off list overflow thresholds.


def _probe_traces():
    from repro.traces import spatial_decomposition_trace, wait_chain_trace

    return [
        wait_chain_trace(8, 10, k_deps=3, spin_ns=800, cv=0.3, seed=5),
        spatial_decomposition_trace(4, 3, dims=2),
        spatial_decomposition_trace(3, 2, dims=3),
    ]


@pytest.mark.parametrize("index", [0, 1, 2])
def test_probe_workloads_legal_on_software_rts(index):
    trace = _probe_traces()[index]
    graph = build_task_graph(trace)
    result = run_software_rts(trace, SystemConfig(workers=4))
    _assert_legal(result, graph)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_probe_workloads_legal_on_single_maestro(index):
    trace = _probe_traces()[index]
    graph = build_task_graph(trace)
    result = run_trace(trace, SystemConfig(workers=4, memory_batch_chunks=8))
    _assert_legal(result, graph)


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("shards", [2, 3])
def test_probe_workloads_legal_on_sharded_maestro(index, shards):
    trace = _probe_traces()[index]
    graph = build_task_graph(trace)
    result = run_trace(
        trace,
        SystemConfig(workers=4, maestro_shards=shards, memory_batch_chunks=8),
    )
    _assert_legal(result, graph)
