"""Differential tests for the pipelined retire front-end.

The retire refactor (serialized loop -> issue stage + ticket-tagged finish
scatter + per-ticket gather tables + reorder/free completion stage) rewires
the retirement path end-to-end, so the guarantees are layered like PRs 1-2:

* At the default knob (``retire_pipeline_depth=1``) the sharded engine must
  be **cycle-for-cycle identical** to the pre-pipelining machine at every
  shard count.  The pre-pipelining machine no longer exists in-tree, so its
  makespans and full per-task schedules (as a digest) were recorded from
  the PR 2 revision and pinned here as golden constants.  (The single
  Maestro never had the knob; its own goldens live in
  ``test_submission_differential.py``.)
* Any deeper pipeline must retire every task with a schedule that respects
  the golden dependence graph — the ticketed gather plus the finish-order
  per-address rule are exactly what replace the old "every reply in this
  inbox belongs to the task being retired" invariant, so a legality
  violation here would point straight at them.
"""

import hashlib

import pytest

from repro.config import SystemConfig, pipelined_retire
from repro.machine import run_trace
from repro.runtime.task_graph import build_task_graph
from repro.traces import gaussian_trace, h264_wavefront_trace


def _gaussian():
    return gaussian_trace(28)


def _h264():
    return h264_wavefront_trace(rows=14, cols=10)


TRACES = {"gaussian": _gaussian, "h264": _h264}

#: (makespan_ps, schedule digest) recorded from the PR 2 machine (commit
#: 062bba7, before retire pipelining existed) at workers=8.  "shardsN" =
#: N shards.
GOLDEN = {
    ("gaussian", "shards2"): (22_679_500, "02367daedbb157f1"),
    ("gaussian", "shards4"): (22_750_000, "4404ad73628b0141"),
    ("h264", "shards2"): (776_723_031, "f8ad19e5879c9256"),
    ("h264", "shards4"): (761_220_130, "da99d58d33370e59"),
}

ENGINES = {
    "shards2": dict(maestro_shards=2),
    "shards3": dict(maestro_shards=3),
    "shards4": dict(maestro_shards=4),
}
#: The engines the goldens pin (no golden pins an odd shard count).
GOLDEN_ENGINES = sorted({engine for _, engine in GOLDEN})


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
def test_depth_one_is_cycle_identical_to_pre_pipelining(trace_name, engine):
    trace = TRACES[trace_name]()
    cfg = SystemConfig(workers=8, retire_pipeline_depth=1, **ENGINES[engine])
    result = run_trace(trace, cfg)
    makespan, digest = GOLDEN[(trace_name, engine)]
    assert result.makespan == makespan
    assert _schedule_digest(result) == digest


def test_default_knobs_are_the_pre_pipelining_machine():
    """Explicitly passing the serialized retire knobs changes nothing: the
    Task Pool gets one port per retire ticket slot, a single port at
    depth 1."""
    assert SystemConfig(retire_pipeline_depth=1) == SystemConfig()
    assert SystemConfig().tp_ports == 1
    assert SystemConfig(maestro_shards=4, retire_pipeline_depth=4).tp_ports == 4


def test_pipelining_needs_the_sharded_engine():
    """The single-Maestro machine has no retire pipeline: asking for one is
    an error, not a silent no-op."""
    with pytest.raises(ValueError, match="sharded"):
        SystemConfig(retire_pipeline_depth=4)
    SystemConfig(retire_pipeline_depth=4, maestro_shards=2)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("depth", [2, 4, 8])
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_pipelined_retire_schedule_is_legal(trace_name, depth, engine):
    trace = TRACES[trace_name]()
    graph = build_task_graph(trace)
    result = run_trace(
        trace,
        SystemConfig(workers=8, retire_pipeline_depth=depth, **ENGINES[engine]),
    )
    assert all(r.is_complete() for r in result.records)
    assert result.verify_against(graph) == []
    # The partitioned tables and the gather tables drained.
    assert result.stats["dep_table"]["occupied"] == 0
    retire = result.stats["shards"]["retire"]
    assert retire["pipeline_depth"] == depth
    assert all(m <= depth for m in retire["inflight_max"])


def test_pipeline_actually_overlaps_finishes():
    """On a hazard-dense flood (tiny tasks, parallel submission) a depth-4
    machine must reach >1 finish in flight on some shard — otherwise the
    tickets are decorative."""
    from repro.config import BUS_MODEL_FITTED
    from repro.traces import random_trace

    trace = random_trace(
        300, n_addresses=96, max_params=6, seed=7, mean_exec=4000, mean_memory=0
    )
    result = run_trace(
        trace,
        SystemConfig(
            workers=8,
            maestro_shards=4,
            retire_pipeline_depth=4,
            master_cores=4,
            submission_batch=8,
            memory_contention=False,
            bus_model=BUS_MODEL_FITTED,
        ),
    )
    assert max(result.stats["shards"]["retire"]["inflight_max"]) > 1


def test_pipelined_retire_preset_runs_the_bench_machine():
    cfg = pipelined_retire()
    assert cfg.retire_pipeline_depth == 4
    assert cfg.maestro_shards == 4
    assert cfg.master_cores == 4
    assert cfg.tp_ports == 4
    trace = _gaussian()
    graph = build_task_graph(trace)
    result = run_trace(trace, cfg)
    assert all(r.is_complete() for r in result.records)
    assert result.verify_against(graph) == []
