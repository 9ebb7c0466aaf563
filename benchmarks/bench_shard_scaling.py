"""Maestro shard scaling: how far does hardware dependency resolution go?

The paper's single Task Maestro serializes every Dependence Table probe and
kick-off; on a workload of tiny hazard-dense tasks the Handle Finished
block saturates long before the worker cores do.  This experiment opens
the design space the paper could not explore: the same workload on 1, 2
and 4 Maestro shards (hash-partitioned Dependence Table, ring
interconnect, per-shard ready lists with idle-shard stealing).

Workload: ``random_trace`` over a 96-address shared pool with ~4 ns tasks
and no memory phases — every machine parameter except dependence
resolution is deliberately generous (no memory contention, zero master
prep, fitted bus model), so the curve isolates the Maestro itself.

Reproduce from the CLI::

    python -m repro sweep random --tasks 1200 --workers 16 \
        --grid maestro_shards=1,2,4 --no-contention --no-prep \
        --json report.json

The CLI runs the same grid and columns on its own ``random`` workload
(memory phases on, Table IV bus formula), so its numbers differ from
the pinned file; this bench is the source of the pinned rows.

The machine-readable curve lands in ``BENCH_shard_scaling.json`` at the
repository root.
"""

import json
from pathlib import Path

from conftest import FULL, report

from repro.config import BUS_MODEL_FITTED, SystemConfig
from repro.machine import grid_sweep, preset_grid
from repro.traces import random_trace

SHARDS = [1, 2, 4, 8] if FULL else [1, 2, 4]
N_TASKS = 3000 if FULL else 1200
WORKERS = 16

JSON_PATH = Path(__file__).parent.parent / "BENCH_shard_scaling.json"


def _experiment():
    trace = random_trace(
        N_TASKS,
        n_addresses=96,
        max_params=6,
        seed=7,
        mean_exec=4000,
        mean_memory=0,
        name="random-hazard-dense",
    )
    cfg = SystemConfig(
        workers=WORKERS,
        memory_contention=False,
        task_prep_time=0,
        bus_model=BUS_MODEL_FITTED,
    )
    return grid_sweep(trace, cfg, **preset_grid("shards", shards=SHARDS))


def test_shard_scaling(benchmark):
    rep = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    rows = rep.rows()

    JSON_PATH.write_text(json.dumps(rep.to_json_dict(), indent=2) + "\n")

    table = rep.render(f"Maestro shard scaling ({rep.trace_name}, {WORKERS} workers)")
    table += f"\nmachine-readable curve: {JSON_PATH.name}"
    report("shard_scaling", table)

    by_shards = {r["shards"]: r for r in rows}
    # The 1-shard machine must be dependency-resolution bound — otherwise
    # this curve would measure something else entirely.
    assert by_shards[1]["busiest_maestro_block"] in (
        "check_deps",
        "handle_finished",
        "send_tds",
    )
    assert by_shards[1]["busiest_block_utilization"] > 0.90
    # Sharding the Maestro must pay: >= 1.15x at 2 shards, monotone
    # non-decreasing through the default sweep (2% tolerance for the
    # interconnect latency noise).
    assert by_shards[2]["speedup_vs_baseline"] >= 1.15
    for prev, cur in zip(SHARDS[:3], SHARDS[1:3]):
        assert (
            by_shards[cur]["speedup_vs_baseline"]
            >= 0.98 * by_shards[prev]["speedup_vs_baseline"]
        )
