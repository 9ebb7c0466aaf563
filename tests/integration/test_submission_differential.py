"""Differential tests for the batched multi-master submission front-end.

The front-end refactor (``MasterCore`` -> ``MasterCluster`` + per-master
TDs buffers + merge unit + batched Write TP drain) rewires the submission
path end-to-end, so the guarantees are layered like PR 1's shard tests:

* At the default knobs (``master_cores=1, submission_batch=1``) the
  machine must be **cycle-for-cycle identical** to the pre-refactor
  machine, for both the single-Maestro and sharded-Maestro engines.  The
  pre-refactor machine no longer exists in-tree, so its makespans and full
  per-task schedules (as a digest) were recorded from the seed revision
  and pinned here as golden constants.
* Any multi-master / batched configuration must retire every task with a
  schedule that respects the golden dependence graph, on both engines —
  the merge unit's program-order reassembly is exactly what makes the
  Check Scatter invariant (per-address checks in program order) hold, so
  a legality violation here would point straight at it.
"""

import hashlib

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

#: (makespan_ps, schedule digest) recorded from the seed machine (commit
#: 0954f23, before the submission front-end existed) at workers=8.
#: "legacy" = the single-Maestro engine, "shards2" = two shards.
GOLDEN = {
    ("gaussian", "legacy"): (22_654_500, "91bbaa9ca0798fe8"),
    ("gaussian", "shards2"): (22_679_500, "02367daedbb157f1"),
    ("h264", "legacy"): (771_669_469, "4e1b014658ad764f"),
    ("h264", "shards2"): (776_723_031, "f8ad19e5879c9256"),
}

ENGINES = {
    "legacy": dict(),
    "shards2": dict(maestro_shards=2),
}


def _schedule_digest(result) -> str:
    """Digest of every task's full lifecycle: any single-event drift in
    ready/dispatch/exec/retire timing or core assignment changes it."""
    rows = [
        (r.tid, r.core, r.ready, r.dispatched, r.exec_start, r.completed)
        for r in result.records
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_default_frontend_is_cycle_identical_to_seed(trace_name, engine):
    trace = TRACES[trace_name]()
    cfg = SystemConfig(workers=8, master_cores=1, submission_batch=1,
                       **ENGINES[engine])
    result = run_trace(trace, cfg)
    makespan, digest = GOLDEN[(trace_name, engine)]
    assert result.makespan == makespan
    assert _schedule_digest(result) == digest


def test_default_knobs_are_the_paper_machine():
    """Explicitly passing the paper's front-end knobs changes nothing."""
    assert SystemConfig(master_cores=1, submission_batch=1) == SystemConfig()
    assert not SystemConfig().use_parallel_frontend


@pytest.mark.parametrize("engine_overrides", [
    dict(),                                             # single Maestro
    dict(maestro_shards=2),                             # sharded engine
    dict(maestro_shards=3),
], ids=["single", "shards2", "shards3"])
@pytest.mark.parametrize("masters,batch", [(2, 1), (2, 4), (4, 8), (3, 2)])
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_parallel_frontend_schedule_is_legal(trace_name, masters, batch,
                                             engine_overrides):
    trace = TRACES[trace_name]()
    graph = build_task_graph(trace)
    result = run_trace(
        trace,
        SystemConfig(workers=8, master_cores=masters, submission_batch=batch,
                     **engine_overrides),
    )
    assert all(r.is_complete() for r in result.records)
    assert result.verify_against(graph) == []
    frontend = result.stats["frontend"]
    assert frontend["master_cores"] == masters
    assert frontend["merged"] == len(trace)
    assert result.stats["tasks_submitted"] == len(trace)


@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_merge_unit_restores_program_order(trace_name):
    """Tasks must reach Write TP (be stored) in trace order even though
    four masters submit their slices concurrently."""
    trace = TRACES[trace_name]()
    result = run_trace(
        trace, SystemConfig(workers=8, master_cores=4, submission_batch=2)
    )
    stored = [r.stored for r in result.records]  # records are trace-ordered
    assert stored == sorted(stored)


def test_batching_alone_amortizes_the_handshake():
    """One master with batching submits strictly faster than without."""
    trace = _gaussian()
    r1 = run_trace(trace, SystemConfig(workers=8, submission_batch=1))
    r8 = run_trace(trace, SystemConfig(workers=8, submission_batch=8))
    assert r8.master_done < r1.master_done
    graph = build_task_graph(trace)
    assert r8.verify_against(graph) == []
