"""Submission front-end scaling: past the serial master's ceiling.

PR 1's shard sweep (``bench_shard_scaling.py``) ends with the master core
as the binding constraint: at 4 Maestro shards the machine spends the
whole run waiting on one core preparing descriptors (30 ns each, §III-A)
and streaming them one bus transaction at a time.  This experiment sweeps
the batched multi-master front-end on exactly that machine — the
hazard-dense random workload at 4 shards, Table IV timing (prep *on*,
because descriptor preparation is precisely the cost parallel masters
remove) — over 1/2/4 masters x 1/4/8 descriptors per bus transaction.

Expected shape: the (1 master, batch 1) run is >95% master-bound; two
masters roughly halve the makespan (~2x) and batching stacks another
~20%; at four masters submission stops being the ceiling (master-bound
fraction drops below 50%) and the curve flattens at the resolution-side
floor — the per-shard retire front-end, the natural next scaling target.

Reproduce from the CLI::

    python -m repro sweep random --tasks 1200 --workers 16 --shards 4 \
        --grid master_cores=1,2,4 submission_batch=1,4,8 \
        --no-contention --json report.json

The CLI runs the same grid and columns on its own ``random`` workload
(memory phases on, Table IV bus formula), so its numbers differ from
the pinned file; this bench is the source of the pinned rows.

The machine-readable grid lands in ``BENCH_submission_scaling.json`` at
the repository root.
"""

import json
from pathlib import Path

from conftest import FULL, report

from repro.config import BUS_MODEL_FITTED, SystemConfig
from repro.machine import grid_sweep, preset_grid
from repro.traces import random_trace

MASTERS = [1, 2, 4, 8] if FULL else [1, 2, 4]
BATCHES = [1, 4, 8]
N_TASKS = 3000 if FULL else 1200
WORKERS = 16
SHARDS = 4

JSON_PATH = Path(__file__).parent.parent / "BENCH_submission_scaling.json"


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
        maestro_shards=SHARDS,
        memory_contention=False,
        bus_model=BUS_MODEL_FITTED,
    )
    return grid_sweep(
        trace, cfg, **preset_grid("masters", masters=MASTERS, batch=BATCHES)
    )


def test_submission_scaling(benchmark):
    rep = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    rows = rep.rows()

    JSON_PATH.write_text(json.dumps(rep.to_json_dict(), indent=2) + "\n")

    table = rep.render(
        f"Submission front-end scaling ({rep.trace_name}, "
        f"{WORKERS} workers, {SHARDS} shards)"
    )
    table += f"\nmachine-readable grid: {JSON_PATH.name}"
    report("submission_scaling", table)

    by_point = {(r["masters"], r["batch"]): r for r in rows}
    # The baseline must be what PR 1 left behind: a master-bound machine.
    assert by_point[(1, 1)]["master_bound_fraction"] > 0.95
    # Two masters must lift the master-bound ceiling substantially.
    assert by_point[(2, 1)]["speedup_vs_baseline"] >= 1.5
    # Batching stacks on top of parallel masters.
    assert (
        by_point[(2, 8)]["speedup_vs_baseline"]
        > by_point[(2, 1)]["speedup_vs_baseline"]
    )
    # At 4 masters submission is no longer the ceiling: the front-end has
    # done its job and the resolution side is the next bottleneck.
    assert by_point[(4, 8)]["master_bound_fraction"] < 0.5
    assert by_point[(4, 8)]["speedup_vs_baseline"] >= 1.5
