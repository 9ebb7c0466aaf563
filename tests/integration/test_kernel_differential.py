"""Differential tests for the timing-wheel simulation kernel (PR 7).

The kernel rebuild replaced the global-heap event scheduler with the
calendar-queue/timing-wheel scheduler and made the waitable hot paths
allocation-light.  None of that may change a single modelled cycle: the
wheel kernel must replay the heap kernel's schedule **cycle-for-cycle**
on the full PR 6 feature stack — every engine (single-Maestro, forced
sharded at 1 shard, 2 and 4 shards), with the complete knob pile on
(multi-master batched submission, retire pipelining, fast dispatch,
staged resolve with coalescing + speculative kick-off, decentralized
check scatter with check coalescing).

Unlike the PR 1-6 differentials there are no pinned schedule goldens
here: both kernels are live in-tree, so each case runs the same machine
twice and compares complete schedules directly.  The only constants are
the per-case event counts in :data:`EVENTS_PROCESSED`.  (The pinned goldens in
the sibling differential tests all run on the default wheel kernel, so
the heap-era constants recorded before this PR independently pin the
wheel kernel's absolute schedules.)
"""

import hashlib

import pytest

from repro.config import BUS_MODEL_FITTED, SystemConfig
from repro.machine import run_trace
from repro.sim import NS
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

#: Golden ``stats["sim"]["events_processed"]`` per ``(trace, engine)``,
#: identical on both kernels.  A deterministic host-cost gate: a change
#: that makes the simulator fire more (or fewer) events moves these even
#: when the modelled schedule stays put.
EVENTS_PROCESSED = {
    ("gaussian", "forced1"): 47531,
    ("gaussian", "shards2"): 49170,
    ("gaussian", "shards4"): 51032,
    ("gaussian", "single"): 28062,
    ("random", "forced1"): 46019,
    ("random", "shards2"): 50753,
    ("random", "shards4"): 51202,
    ("random", "single"): 27876,
}

ENGINES = {
    "single": dict(),
    "forced1": dict(maestro_shards=1, force_sharded_maestro=True),
    "shards2": dict(maestro_shards=2),
    "shards4": dict(maestro_shards=4),
}


def _config(engine: str, kernel: str, telemetry_window: int = 0) -> SystemConfig:
    base = dict(
        workers=8,
        master_cores=4,
        submission_batch=8,
        memory_contention=False,
        bus_model=BUS_MODEL_FITTED,
        sim_kernel=kernel,
        telemetry_window=telemetry_window,
    )
    if engine != "single":
        # The full PR 6 stack: retire pipeline + fast dispatch + staged
        # resolve + decentralized, coalescing check path.
        base.update(
            retire_pipeline_depth=4,
            td_cache_entries=16,
            td_prefetch_depth=2,
            kickoff_fast_path=True,
            finish_coalesce_limit=8,
            speculative_kickoff=True,
            decentralized_check_scatter=True,
            check_coalesce_limit=8,
        )
    base.update(ENGINES[engine])
    return SystemConfig(**base)


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
def test_wheel_kernel_is_cycle_identical_to_heap(trace_name, engine):
    trace = TRACES[trace_name]()
    heap = run_trace(trace, _config(engine, "heap"))
    wheel = run_trace(trace, _config(engine, "wheel"))
    assert wheel.makespan == heap.makespan
    assert _schedule_digest(wheel) == _schedule_digest(heap)
    # The kernels fire the same events, not merely equivalent schedules.
    assert (
        wheel.stats["sim"]["events_processed"]
        == heap.stats["sim"]["events_processed"]
        == EVENTS_PROCESSED[trace_name, engine]
    )
    assert wheel.stats["sim"]["kernel"] == "wheel"
    assert heap.stats["sim"]["kernel"] == "heap"


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_kernels_agree_under_windowed_telemetry(engine):
    """With the sampler on, the machine runs as a host loop of
    ``sim.run(until=window boundary)`` steps; both kernels must still replay
    the same schedule, and sampling must fire no events of its own."""
    trace = _random()
    heap = run_trace(trace, _config(engine, "heap", 100 * NS))
    wheel = run_trace(trace, _config(engine, "wheel", 100 * NS))
    assert wheel.makespan == heap.makespan
    assert _schedule_digest(wheel) == _schedule_digest(heap)
    assert (
        wheel.stats["sim"]["events_processed"]
        == heap.stats["sim"]["events_processed"]
        == EVENTS_PROCESSED["random", engine]
    )
    assert len(wheel.telemetry["times_ps"]) > 1


def test_kernel_knob_leaves_telemetry_series_unchanged():
    """Every sampled series except the host-derived wall-clock rates is
    identical across kernels."""
    trace = _random()
    heap = run_trace(trace, _config("shards4", "heap", 100 * NS))
    wheel = run_trace(trace, _config("shards4", "wheel", 100 * NS))

    def modelled(result):
        telemetry = dict(result.stats["telemetry"])
        host = set(telemetry["host_signals"])
        assert host
        telemetry["signals"] = {
            k: v for k, v in telemetry["signals"].items() if k not in host
        }
        return repr(telemetry)

    assert modelled(heap) == modelled(wheel)


def test_kernel_knob_is_host_side_only():
    """The knob flows config -> machine -> report, and flipping it leaves
    every modelled statistic identical (only the host-side sim block and
    the config note differ)."""
    trace = _random()
    heap = run_trace(trace, _config("shards2", "heap"))
    wheel = run_trace(trace, _config("shards2", "wheel"))
    assert heap.config_notes["sim_kernel"] == "heap"
    assert wheel.config_notes["sim_kernel"] == "wheel"

    def modelled(result):
        stats = dict(result.stats)
        stats.pop("sim")
        return repr(stats)

    assert modelled(heap) == modelled(wheel)


def test_sim_kernel_validates():
    with pytest.raises(ValueError, match="sim_kernel"):
        SystemConfig(sim_kernel="calendar")
    assert SystemConfig().sim_kernel == "wheel"
    assert SystemConfig(sim_kernel="heap").sim_kernel == "heap"
