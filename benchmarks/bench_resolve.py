"""Staged-resolve latency: past the resolve-hop dependence-chain ceiling.

PR 4's dispatch sweep (``bench_dispatch.py``) ends with the hazard-dense
machine master-bound again at 4 masters — and once the front-end is
widened (8 masters, the "more masters" lever the ROADMAP names), the
machine is **latency-bound on the resolve hop**: ~47-52 ns per
dependence-chain hop of finish notify, finish-engine queueing and waiter
kick, dwarfing the overlapped TD transfer (~6 ns) and fast-pathed
forward (~4 ns).  This experiment sweeps the staged-resolve feature grid
on exactly that machine — the hazard-dense random workload at 4 shards x
8 masters x batch 8 x retire depth 4 with the full fast-dispatch
subsystem on, Table IV timing with prep on and the fitted bus model:

* **finish-notification coalescing** (``finish_coalesce_limit=8``)
  drains already-arrived finish notifications in one batch per resolve
  activation, merges updates hitting the same Dependence Table row into
  a single row access and pipelines the probe/modify stages across the
  batch, cutting the finish engine's service time per edge;
* **speculative kick-off** (``speculative_kickoff``) hands became-ready
  waiter kicks to per-shard kick units the moment the grant decision is
  computed, overlapping each kick with the row's commit latency and the
  next notification's table update.

Expected shape: the both-off baseline is latency-bound with *resolve*
the dominant hop component (~43 ns+ as the ROADMAP recorded); the
combined pipeline cuts the resolve hop component >= 1.5x on the critical
chain and the end-to-end makespan >= 1.1x.

Reproduce from the CLI::

    python -m repro sweep random --tasks 1200 --workers 16 --shards 4 \
        --masters 8 --batch 8 --retire-depth 4 --td-cache 64 \
        --prefetch-depth 2 --fast-path \
        --grid speculative_kickoff=off,on finish_coalesce_limit=1,8 \
        --no-contention --json report.json

The CLI runs the same grid and columns on its own ``random`` workload
(memory phases on, Table IV bus formula), so its numbers differ from
the pinned file; this bench is the source of the pinned rows.

The machine-readable grid lands in ``BENCH_resolve_latency.json`` at the
repository root.
"""

import json
from pathlib import Path

from conftest import FULL, report

from repro.config import BUS_MODEL_FITTED, SystemConfig
from repro.machine import analyze_bottleneck, grid_sweep, preset_grid
from repro.traces import random_trace

N_TASKS = 3000 if FULL else 1200
WORKERS = 16
SHARDS = 4
MASTERS = 8
BATCH = 8
RETIRE_DEPTH = 4
TD_CACHE = 64
PREFETCH_DEPTH = 2
COALESCE = 8

JSON_PATH = Path(__file__).parent.parent / "BENCH_resolve_latency.json"


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
        master_cores=MASTERS,
        submission_batch=BATCH,
        retire_pipeline_depth=RETIRE_DEPTH,
        td_cache_entries=TD_CACHE,
        td_prefetch_depth=PREFETCH_DEPTH,
        kickoff_fast_path=True,
        memory_contention=False,
        bus_model=BUS_MODEL_FITTED,
    )
    return grid_sweep(trace, cfg, **preset_grid("resolve", coalesce=COALESCE)), cfg


def test_resolve_latency(benchmark):
    rep, cfg = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    rows = rep.rows()

    JSON_PATH.write_text(json.dumps(rep.to_json_dict(), indent=2) + "\n")

    table = rep.render(
        f"Staged-resolve latency grid ({rep.trace_name}, {WORKERS} workers, "
        f"{SHARDS} shards, {MASTERS} masters x batch {BATCH}, retire depth "
        f"{RETIRE_DEPTH}, fast dispatch on)"
    )
    table += f"\nmachine-readable grid: {JSON_PATH.name}"
    report("resolve_latency", table)

    by_point = {(r["coalesce"], r["speculative"]): r for r in rows}
    off = by_point[(1, False)]
    both = by_point[(COALESCE, True)]

    # The baseline must be what PR 4 left behind once the front-end is
    # widened: a latency-bound machine whose dominant hop component is
    # the resolve path (~43 ns+, as the ROADMAP recorded), with the
    # verdict naming the resolve knobs as the lever.
    verdict = analyze_bottleneck(
        rep.at(finish_coalesce_limit=1, speculative_kickoff=False), cfg
    )
    assert verdict.verdict == "latency", verdict.describe()
    assert "resolve" in (verdict.detail or "")
    assert off["dominant_chain_component"] == "resolve"
    assert off["chain_fraction"] > 0.5
    assert off["chain_hop_ns"]["resolve"] > 43.0

    # The pipeline must cut the resolve hop component >= 1.5x on the
    # critical chain...
    resolve_cut = off["chain_hop_ns"]["resolve"] / both["chain_hop_ns"]["resolve"]
    assert resolve_cut >= 1.5, f"resolve hop cut only {resolve_cut:.2f}x"
    # ... and the end-to-end makespan >= 1.1x on the hazard-dense bench.
    assert both["speedup_vs_baseline"] >= 1.1
    # Each knob pulls its weight: speculation alone shortens the resolve
    # hop, and coalescing actually drains multi-notification batches.
    spec_only = by_point[(1, True)]
    coal_only = by_point[(COALESCE, False)]
    assert spec_only["chain_hop_ns"]["resolve"] < off["chain_hop_ns"]["resolve"]
    assert spec_only["speculative_kicks"] > 0
    assert coal_only["mean_batch"] > 1.0
    assert coal_only["makespan_ps"] < off["makespan_ps"]
    # The combined machine beats either knob alone on the hop total.
    assert both["chain_hop_ns"]["total"] < off["chain_hop_ns"]["total"]
