"""Large-trace end-to-end runs: the wheel kernel's reason to exist.

The timing-wheel kernel and the streaming trace generator together put
100k+-task traces in reach; this file pins two waypoints — a CI-sized
50k-task trace and a million-task run — each simulated end-to-end on the
full sharded machine inside a wall-clock budget.  Marked ``slow``:
deselect with ``-m 'not slow'`` for a quick iteration loop (the tier-1 CI
run keeps them).
"""

import time

import pytest

from repro.config import SystemConfig
from repro.machine import run_trace
from repro.traces import random_trace

#: Generous CI budget (seconds) for trace build + 50k-task simulation;
#: measured at 11.7 s end to end alone (0.3 s of it building the trace)
#: and 15 s inside the full tier-1 run, on a shared 2-core x86-64 host
#: under CPython 3.11, so tripping this means a kernel or generator
#: performance regression, not a slow runner.
WALL_BUDGET = 120.0


@pytest.mark.slow
def test_50k_task_trace_completes_within_budget():
    t0 = time.perf_counter()
    trace = random_trace(
        50_000,
        n_addresses=2048,
        max_params=4,
        seed=11,
        mean_exec=3000,
        mean_memory=0,
        name="random-50k",
    )
    cfg = SystemConfig(
        workers=16,
        maestro_shards=4,
        master_cores=4,
        submission_batch=8,
        memory_contention=False,
    )
    result = run_trace(trace, cfg)
    wall = time.perf_counter() - t0

    assert len(result.records) == 50_000
    assert all(r.is_complete() for r in result.records)
    sim = result.stats["sim"]
    assert sim["kernel"] == "wheel"
    # ~4.3M events for this trace; a wildly different count means the
    # machine (not the kernel) changed.
    assert sim["events_processed"] > 3_000_000
    assert wall < WALL_BUDGET, (
        f"50k-task run took {wall:.1f}s (budget {WALL_BUDGET:.0f}s) — "
        "kernel or generator performance regression"
    )


#: Budget for the million-task waypoint.  The whole thing (chunked trace
#: generation + ~68M-event simulation) measured 166 s end to end alone,
#: 6.9 s of it building the trace, and 211 s inside the full tier-1 run,
#: on a shared 2-core x86-64 host under CPython 3.11; 600s absorbs a slow
#: CI runner with margin, so tripping it means a real scaling regression,
#: not noise.
MILLION_WALL_BUDGET = 600.0


@pytest.mark.slow
def test_million_task_trace_completes_within_budget():
    """The scale waypoint: one million tasks end-to-end.

    One parameter per task keeps the run dependence-light — this
    waypoint is about the host kernel and the generator blocks
    sustaining ~0.4M events/sec over a 10ms modelled second, not about
    hazard pressure (the 50k waypoint above and the hazard-dense
    differential suites cover that).  The streaming generator's cost
    does not depend on the address pool's size.
    """
    t0 = time.perf_counter()
    trace = random_trace(
        1_000_000,
        n_addresses=1024,
        max_params=1,
        seed=13,
        mean_exec=2000,
        mean_memory=0,
        name="random-1m",
    )
    cfg = SystemConfig(
        workers=32,
        maestro_shards=4,
        master_cores=8,
        submission_batch=8,
        finish_coalesce_limit=8,
        decentralized_check_scatter=True,
        check_coalesce_limit=8,
        memory_contention=False,
    )
    result = run_trace(trace, cfg)
    wall = time.perf_counter() - t0

    # Retire count: every submitted task came back out of the machine.
    assert len(result.records) == 1_000_000
    assert all(r.is_complete() for r in result.records)
    # Legality: the per-task lifecycle stamps are causally ordered.  (The
    # full golden-graph dependence check is quadratic in trace size and
    # lives in the differential suites at smaller scales.)
    assert all(
        r.submitted <= r.stored <= r.ready <= r.dispatched <= r.completed
        for r in result.records
    )
    sim = result.stats["sim"]
    assert sim["kernel"] == "wheel"
    # ~68M events for this trace; a wildly different count means the
    # machine (not the kernel) changed.
    assert sim["events_processed"] > 50_000_000
    assert wall < MILLION_WALL_BUDGET, (
        f"1M-task run took {wall:.1f}s (budget {MILLION_WALL_BUDGET:.0f}s) "
        "— kernel or generator performance regression"
    )
