"""Metrics read from outside the simulator: its public results and a profile.

Everything here works on what public calls return -- ``RunResult.records``
and ``RunResult.stats`` of the Nexus++ run and of the software-RTS
baseline, the golden ``TaskGraph``, and a ``cProfile`` taken around
``NexusMachine.run``.  Modelled values are simulated time and are exactly
repeatable for one trace; no wall-clock reading enters them.
"""

from __future__ import annotations

import hashlib
import math
import os
import pstats
import statistics
from typing import Dict, List, Tuple

import repro

#: Source modules whose share of profiled self-time is reported, named by
#: their path under the ``repro`` package.  ``builtin`` is C functions and
#: methods; ``other`` is every remaining module, stdlib included.
PROFILED_MODULES = (
    "sim.core",
    "sim.channels",
    "sim.sync",
    "sim.stats",
    "hw.fast_blocks",
    "hw.maestro",
    "hw.sharded_maestro",
    "hw.fabric",
    "hw.dependence_table",
    "hw.task_pool",
    "hw.resolve",
    "hw.dispatch",
    "hw.task_controller",
    "hw.master",
    "hw.memory",
    "analysis.telemetry",
    "builtin",
    "other",
)

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def schedule_digest(records) -> str:
    """sha256 over every task's ``(tid, core, ready, dispatched, completed)``.

    Equal digests mean no task moved by a single cycle or core.
    """
    rows = [(r.tid, r.core, r.ready, r.dispatched, r.completed) for r in records]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def failed_tasks(problems: List[str], n_tasks: int) -> int:
    """Distinct tasks named by ``verify_against`` problems.

    A problem that names no single task (a record-count mismatch) fails
    the whole run.
    """
    tids = set()
    for problem in problems:
        words = problem.split()
        if "task" not in words:
            return n_tasks
        tids.add(words[words.index("task") + 1].rstrip(":"))
    return len(tids)


def hop_samples(records, graph) -> Tuple[List[int], str]:
    """Producer write-back to consumer ``exec_start`` spans (ps).

    Taken over the release edges (``released_by``) when the run has any.
    A run with none -- every dependence was satisfied before its consumer
    was checked, as on a submission-bound chain -- measures the span from
    each consumer's last-finishing producer instead.
    """
    hops = [
        r.exec_start - records[r.released_by].writeback_end
        for r in records
        if r.released_by >= 0
    ]
    if hops:
        return hops, "release"
    hops = [
        r.exec_start - max(records[p].writeback_end for p in graph.predecessors[r.tid])
        for r in records
        if graph.predecessors[r.tid]
    ]
    return hops, "last-producer"


def percentile(values: List[int], p: float) -> int:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def _block_max(busy: Dict[str, float], names) -> float:
    return max(v for k, v in busy.items() if k.rsplit(".", 1)[-1] in names)


def layer_counts(run, sw) -> Tuple[Dict[str, float], str, List[str]]:
    """Per-layer modelled counts of one Nexus++ run and its SW baseline.

    Returns ``(values, max_busy_block, bypassed)``.  A count whose
    machinery the machine does not wire reads 0 and is named in
    ``bypassed``, so "not wired" stays distinguishable from "idle".
    """
    st = run.stats
    notes = run.config_notes
    n = run.n_tasks
    busy = st["maestro_utilization"]
    dep = st["dep_table"]
    dispatch = st["dispatch"]
    resolve = st["resolve"]
    check = st["check"]
    memory = st["memory"]
    max_block = max(busy, key=busy.get)
    values = {
        "sim.events_per_task": st["sim"]["events_processed"] / n,
        "sim.peak_pending_events": st["sim"]["peak_pending_events"],
        "hw.maestro.max_busy": busy[max_block],
        "hw.maestro.check_busy": _block_max(busy, ("check", "check_deps")),
        "hw.maestro.finish_busy": _block_max(busy, ("finish", "handle_finished")),
        "hw.maestro.send_tds_busy": _block_max(busy, ("send_tds",)),
        "hw.master.stall_frac": st["master_stall_ps"]
        / (run.makespan * notes["master_cores"]),
        "hw.dependence_table.high_water": dep["high_water"],
        "hw.dependence_table.max_kickoff_waiters": dep["max_kickoff_waiters"],
        "hw.dependence_table.kickoff_waiters_mean": dep["kickoff_waiters"]["mean_total"],
        "hw.task_pool.high_water": st["task_pool"]["high_water"],
        "hw.task_pool.dummy_tasks": st["task_pool"]["dummy_tasks_created"],
        "hw.resolve.mean_batch": resolve["mean_batch"],
        "hw.resolve.coalesce_rate": resolve["coalesce_rate"],
        "hw.check.mean_batch": check["mean_batch"],
        "hw.check.row_merges": check["row_merges"],
        "hw.dispatch.release_edges": dispatch["released_tasks"],
        "hw.task_controller.worker_busy_mean": statistics.fmean(
            st["worker_busy_fraction"]
        ),
        "runtime.software_rts.makespan_us": sw.makespan / 1e6,
    }
    for part, ns in dispatch["chain_hop_ns"].items():
        if part != "total":
            values[f"hw.dispatch.chain_hop_ns.{part}"] = ns
    values["hw.memory.mean_wait_ns"] = memory["mean_wait_ps"] / 1000
    values["hw.memory.mean_busy_banks"] = memory["mean_busy_banks"]

    shards = st.get("shards")
    cache = dispatch.get("fast_dispatch", {}).get("td_cache")
    telemetry = st.get("telemetry")
    values["hw.fabric.icn_messages_per_task"] = (
        shards["interconnect"]["messages"] / n if shards else 0
    )
    values["hw.dispatch.td_cache_hit_rate"] = cache["hit_rate"] if cache else 0
    values["analysis.telemetry.windows"] = (
        len(telemetry["times_ps"]) if telemetry else 0
    )

    bypassed = []
    if not shards:
        bypassed.append("hw.fabric.icn_messages_per_task")
    if not cache:
        bypassed.append("hw.dispatch.td_cache_hit_rate")
    if not telemetry:
        bypassed.append("analysis.telemetry.windows")
    if resolve["coalesce_limit"] <= 1:
        bypassed.append("hw.resolve.coalesce_rate")
    if check["batches"] == 0:
        bypassed += ["hw.check.mean_batch", "hw.check.row_merges"]
    if dispatch["released_tasks"] == 0:
        bypassed += [k for k in values if k.startswith("hw.dispatch.chain_hop_ns.")]
    if not notes["memory_contention"]:
        bypassed += ["hw.memory.mean_wait_ns", "hw.memory.mean_busy_banks"]
    return values, max_block, sorted(bypassed)


def self_time_shares(profile) -> Dict[str, float]:
    """Each :data:`PROFILED_MODULES` entry's share of total self-time."""
    totals = dict.fromkeys(PROFILED_MODULES, 0.0)
    for (filename, _line, _func), (_cc, _nc, self_time, _ct, _callers) in (
        pstats.Stats(profile).stats.items()
    ):
        if filename == "~":
            module = "builtin"
        elif filename.startswith(_PACKAGE_DIR):
            module = filename[len(_PACKAGE_DIR) : -len(".py")].replace(os.sep, ".")
            if module not in totals:
                module = "other"
        else:
            module = "other"
        totals[module] += self_time
    whole = sum(totals.values())
    return {m: t / whole for m, t in totals.items()}
