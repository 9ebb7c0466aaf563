"""Differential tests for the sharded Maestro subsystem.

Two layers of guarantees, strongest first:

* ``maestro_shards=1`` (the production path) must be **cycle-for-cycle
  identical** to the legacy single-Maestro machine: the fabric now builds
  shard-aware structures, and this pins that the refactor did not perturb
  the paper-exact engine by even one event.
* Every multi-shard machine (2 and 4 shards) must retire every task with
  no deadlock and a schedule that respects the golden dependence graph.
"""

import pytest

from repro.config import SystemConfig
from repro.machine import run_trace
from repro.runtime.task_graph import build_task_graph
from repro.traces import gaussian_trace, h264_wavefront_trace


def _gaussian():
    return gaussian_trace(28)


def _h264():
    return h264_wavefront_trace(rows=14, cols=10)


TRACES = {"gaussian": _gaussian, "h264": _h264}


def _schedule_of(result):
    """The retired-task schedule: per-task lifecycle timestamps + core."""
    return [
        (r.tid, r.core, r.ready, r.dispatched, r.exec_start, r.completed)
        for r in result.records
    ]


@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_one_shard_machine_identical_to_legacy(trace_name):
    trace = TRACES[trace_name]()
    legacy = run_trace(trace, SystemConfig(workers=8))
    one_shard = run_trace(trace, SystemConfig(workers=8, maestro_shards=1))
    assert one_shard.makespan == legacy.makespan
    assert _schedule_of(one_shard) == _schedule_of(legacy)
    # Retirement order (not just per-task times) must match too.
    legacy_order = sorted(range(len(trace)), key=lambda t: legacy.records[t].completed)
    shard_order = sorted(
        range(len(trace)), key=lambda t: one_shard.records[t].completed
    )
    assert shard_order == legacy_order


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("shards", [2, 4])
def test_multi_shard_machine_retires_every_task(trace_name, shards):
    trace = TRACES[trace_name]()
    graph = build_task_graph(trace)
    # run_trace raises DeadlockError if the machine wedges before draining.
    result = run_trace(trace, SystemConfig(workers=8, maestro_shards=shards))
    assert all(r.is_complete() for r in result.records)
    assert result.verify_against(graph) == []
    # The partitioned tables drained (checked again here from the outside:
    # every check was matched by a finish on the same shard).
    assert result.stats["dep_table"]["occupied"] == 0
    assert result.stats["shards"]["count"] == shards


def test_shard_partitioning_actually_distributes_load():
    """Multi-shard runs must spread table traffic across the shards."""
    trace = _gaussian()
    result = run_trace(trace, SystemConfig(workers=8, maestro_shards=4))
    per_shard = result.stats["shards"]["per_shard_dep_table"]
    assert len(per_shard) == 4
    touched = [s for s in per_shard if s["high_water"] > 0]
    assert len(touched) >= 2, "hash partitioning left all traffic on one shard"
    assert result.stats["shards"]["interconnect"]["cross_shard_messages"] > 0
