"""Fast-dispatch latency: past the per-hop dependence-chain ceiling.

PR 3's retire sweep (``bench_retire.py``) ends with the hazard-dense
machine *latency-bound*: nothing saturates, but the critical dependence
chain — hundreds of hops deep — pays ~85-90 ns per hop, dominated by the
TD transfer (~35 ns: Task Pool read + bus stream after the final
resolution) and the finish->kick resolution itself (~30 ns), with the
forward hop + scheduler round trip (~16 ns) behind them.  This experiment
sweeps the fast-dispatch feature grid on exactly that machine — the
hazard-dense random workload at 4 shards x 4 masters x batch 8 x retire
depth 4, Table IV timing with prep on and the fitted bus model:

* **TD prefetch cache** (``td_cache_entries=64``, ``td_prefetch_depth=2``)
  stages a near-ready waiter's TD chain next to the TD link while its
  last dependences resolve, collapsing the TD-transfer hop component to a
  staged-descriptor handoff;
* **kick-off fast path** (``kickoff_fast_path``) lets the resolving shard
  hand a became-ready waiter to an idle local worker, collapsing the
  forward component to the dispatch cycles.

Expected shape: the both-off baseline is latency-bound (the critical
chain's hop latency covers most of the makespan; TD transfer is a >25 ns
hop component); each feature alone removes its component; both together
clear the >= 1.25x bar with the TD-transfer component overlapped to
< 10 ns mean along the critical chain.

Reproduce from the CLI::

    python -m repro sweep random --tasks 1200 --workers 16 --shards 4 \
        --masters 4 --batch 8 --retire-depth 4 --prefetch-depth 2 \
        --grid kickoff_fast_path=off,on td_cache_entries=0,64 \
        --no-contention --json report.json

The CLI runs the same grid and columns on its own ``random`` workload
(memory phases on, Table IV bus formula), so its numbers differ from
the pinned file; this bench is the source of the pinned rows.

The machine-readable grid lands in ``BENCH_dispatch_latency.json`` at the
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
MASTERS = 4
BATCH = 8
RETIRE_DEPTH = 4
TD_CACHE = 64
PREFETCH_DEPTH = 2

JSON_PATH = Path(__file__).parent.parent / "BENCH_dispatch_latency.json"


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
        td_prefetch_depth=PREFETCH_DEPTH,
        memory_contention=False,
        bus_model=BUS_MODEL_FITTED,
    )
    return grid_sweep(trace, cfg, **preset_grid("dispatch", td_cache=TD_CACHE)), cfg


def test_dispatch_latency(benchmark):
    rep, cfg = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    rows = rep.rows()

    JSON_PATH.write_text(json.dumps(rep.to_json_dict(), indent=2) + "\n")

    table = rep.render(
        f"Fast-dispatch latency grid ({rep.trace_name}, {WORKERS} workers, "
        f"{SHARDS} shards, {MASTERS} masters x batch {BATCH}, retire depth "
        f"{RETIRE_DEPTH})"
    )
    table += f"\nmachine-readable grid: {JSON_PATH.name}"
    report("dispatch_latency", table)

    by_point = {(r["td_cache"], r["fast_path"]): r for r in rows}
    off = by_point[(0, False)]
    both = by_point[(TD_CACHE, True)]

    # The baseline must be what PR 3 left behind: a latency-bound machine
    # — nothing saturated, the critical chain's per-hop machinery latency
    # covering most of the run, with the TD transfer the dominant hop.
    verdict = analyze_bottleneck(
        rep.at(td_cache_entries=0, kickoff_fast_path=False), cfg
    )
    assert verdict.verdict == "latency", verdict.describe()
    assert off["chain_fraction"] > 0.5
    assert off["chain_hop_ns"]["td_transfer"] > 25.0

    # The subsystem must cut the per-hop chain latency >= 1.25x.
    assert both["speedup_vs_baseline"] >= 1.25
    # ... with the TD transfer genuinely overlapped: the staged-descriptor
    # handoff leaves < 10 ns mean along the critical chain.
    assert both["chain_hop_ns"]["td_transfer"] < 10.0
    # Each feature removes its own component: the cache the TD transfer,
    # the fast path the forward hop.
    cache_only = by_point[(TD_CACHE, False)]
    fast_only = by_point[(0, True)]
    assert cache_only["chain_hop_ns"]["td_transfer"] < 10.0
    assert fast_only["chain_hop_ns"]["forward"] < off["chain_hop_ns"]["forward"]
    assert both["chain_hop_ns"]["forward"] < 10.0
    # The fast path actually fires, and the hop total shrinks.
    assert both["fast_dispatches"] > 0
    assert both["chain_hop_ns"]["total"] < off["chain_hop_ns"]["total"]
