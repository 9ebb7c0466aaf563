"""Decentralized check scatter: past the scatter-sequencer ceiling.

PR 5's resolve sweep (``bench_resolve.py``) cut the resolve hop on the
hazard-dense machine — and once the resolve path is pipelined, the next
serialization point on a *check-heavy* workload is the central **Check
Scatter sequencer**: every parameter of every submitted task still
funnels through one engine at one probe per cycle before it even reaches
a shard's check engine.  On a param-dense, low-hazard random workload
(1024 addresses, short tasks, up to 6 params each) the sequencer runs
>90% busy and the machine is submission-side check-bound.  This
experiment sweeps the decentralized-check feature grid on exactly that
machine — 4 shards x 8 masters x batch 8 x retire depth 4 with the full
fast-dispatch stack and the staged resolve pipeline on, Table IV timing
with prep on and the fitted bus model:

* **decentralized check scatter** (``decentralized_check_scatter``)
  replaces the single sequencer with per-master scatter slices, each
  master's descriptors scattered from its own slice engine and
  re-sequenced per destination shard by a sequence-numbered unit — the
  check-side mirror of PR 2's MergeUnit, preserving the program-ordered
  per-address check invariant;
* **check coalescing** (``check_coalesce_limit=8``) drains
  already-arrived check probes in one batch per check-engine activation,
  merges same-row probes into a single Dependence Table row access and
  pipelines the probe/insert stages across the batch — the check-side
  mirror of PR 5's finish-notification coalescing.

Expected shape: the both-off baseline's scatter sequencer is saturated
(>50% busy, near the cycle-per-probe ceiling); decentralization alone
spreads it far below 50% across the slices; the combined grid point
delivers >= 1.15x end-to-end.

Reproduce from the CLI::

    python -m repro sweep random --tasks 1200 --addresses 1024 \
        --workers 16 --shards 4 --masters 8 --batch 8 --retire-depth 4 \
        --td-cache 64 --prefetch-depth 2 --fast-path --coalesce 8 \
        --spec-kickoff \
        --grid check_coalesce_limit=1,8 decentralized_check_scatter=off,on \
        --no-contention --json report.json

The CLI runs the same grid and columns on its own ``random`` workload
(memory phases on, Table IV bus formula), so its numbers differ from
the pinned file; this bench is the source of the pinned rows.

The machine-readable grid lands in ``BENCH_check_scaling.json`` at the
repository root.
"""

import json
from pathlib import Path

from conftest import FULL, report

from repro.config import BUS_MODEL_FITTED, SystemConfig
from repro.machine import analyze_bottleneck, grid_sweep, preset_grid
from repro.traces import random_trace

N_TASKS = 3000 if FULL else 1200
N_ADDRESSES = 1024
WORKERS = 16
SHARDS = 4
MASTERS = 8
BATCH = 8
RETIRE_DEPTH = 4
TD_CACHE = 64
PREFETCH_DEPTH = 2
RESOLVE_COALESCE = 8
CHECK_COALESCE = 8

JSON_PATH = Path(__file__).parent.parent / "BENCH_check_scaling.json"


def _experiment():
    # Param-dense, low-hazard: many distinct addresses and short tasks
    # keep the dependence chains shallow, so throughput — every param
    # probed through the Check Scatter — is the limit, not resolve
    # latency (the shape bench_resolve.py targets).
    trace = random_trace(
        N_TASKS,
        n_addresses=N_ADDRESSES,
        max_params=6,
        seed=7,
        mean_exec=500,
        mean_memory=0,
        name="random-param-dense",
    )
    cfg = SystemConfig(
        workers=WORKERS,
        maestro_shards=SHARDS,
        master_cores=MASTERS,
        submission_batch=BATCH,
        retire_pipeline_depth=RETIRE_DEPTH,
        td_cache_entries=TD_CACHE,
        td_prefetch_depth=PREFETCH_DEPTH,
        kickoff_fast_path=True,
        finish_coalesce_limit=RESOLVE_COALESCE,
        speculative_kickoff=True,
        memory_contention=False,
        bus_model=BUS_MODEL_FITTED,
    )
    return (
        grid_sweep(trace, cfg, **preset_grid("check", check_coalesce=CHECK_COALESCE)),
        cfg,
    )


def test_check_scaling(benchmark):
    rep, cfg = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    rows = rep.rows()

    JSON_PATH.write_text(json.dumps(rep.to_json_dict(), indent=2) + "\n")

    table = rep.render(
        f"Decentralized-check grid ({rep.trace_name}, {WORKERS} workers, "
        f"{SHARDS} shards, {MASTERS} masters x batch {BATCH}, retire depth "
        f"{RETIRE_DEPTH}, fast dispatch + staged resolve on)"
    )
    table += f"\nmachine-readable grid: {JSON_PATH.name}"
    report("check_scaling", table)

    by_point = {(r["decentralized"], r["coalesce"]): r for r in rows}
    off = by_point[(False, 1)]
    both = by_point[(True, CHECK_COALESCE)]

    # The baseline must be what PR 5 left behind on a check-heavy shape:
    # the central scatter sequencer saturated near its cycle-per-probe
    # ceiling.  When the scatter itself wins the verdict (it can tie
    # with send_tds at this saturation level), the saturation detail
    # names the check knobs as the lever.
    assert off["scatter_busy"] > 0.50, off
    verdict = analyze_bottleneck(
        rep.at(decentralized_check_scatter=False, check_coalesce_limit=1), cfg
    )
    assert verdict.occupancy.get("maestro.scatter", 0.0) >= 0.90, verdict.describe()
    name = verdict.verdict.removeprefix("maestro.")
    if name == "scatter" or name.endswith(".check"):
        assert "check" in (verdict.detail or ""), verdict.describe()

    # Decentralization must spread the scatter work: every slice engine
    # (and the now-idle central sequencer) far below the 50% bar...
    assert both["scatter_busy"] < 0.50, both
    decentral_only = by_point[(True, 1)]
    assert decentral_only["scatter_busy"] < off["scatter_busy"]
    # ... and the combined machine delivers the end-to-end win.
    assert both["speedup_vs_baseline"] >= 1.15, both
    # Coalescing actually batches: the check engines drain
    # multi-probe batches and merge same-row probes.
    coal_only = by_point[(False, CHECK_COALESCE)]
    assert coal_only["mean_batch"] > 1.0
    assert both["mean_batch"] > 1.0
    assert both["row_merges"] > 0
