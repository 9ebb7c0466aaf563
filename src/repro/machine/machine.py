"""The Task Machine: the full-system simulator (paper §IV-B).

Wires one master core, the Task Maestro, N worker cores with their Task
Controllers and the banked off-chip memory, then replays a task trace to
completion.

Typical use::

    from repro.config import paper_default
    from repro.traces import h264_wavefront_trace
    from repro.machine import NexusMachine

    result = NexusMachine(paper_default(workers=16)).run(h264_wavefront_trace())
    print(result.summary())
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Optional

from ..analysis.telemetry import TelemetrySampler
from ..config import SystemConfig
from ..hw.dispatch import hop_latency_stats
from ..hw.errors import CapacityError
from ..hw.fabric import Fabric
from ..hw.master import MasterCluster
from ..hw.maestro import TaskMaestro
from ..hw.sharded_maestro import ShardedMaestro
from ..hw.task_controller import TaskController
from ..sim import DeadlockError, ProcessError, Simulator
from ..traces.trace import TaskTrace
from .results import RunResult, Scoreboard

__all__ = ["NexusMachine", "run_trace"]


class NexusMachine:
    """One simulated multicore system with Nexus++ task management."""

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()

    def run(self, trace: TaskTrace, max_time: Optional[int] = None) -> RunResult:
        """Simulate the trace to completion and return the results.

        Raises :class:`CapacityError` before simulating when a task has
        more distinct addresses than its Dependence Table (or, sharded,
        one shard's slice) holds, and in restricted (original-Nexus) mode
        when the workload exceeds a fixed structure; and
        :class:`repro.sim.DeadlockError` if the machine genuinely wedges
        (which would be a configuration or model bug — the paper's sizing
        rules make the default machine deadlock-free).
        """
        cfg = self.config
        sim = Simulator(kernel=cfg.sim_kernel)
        fabric = Fabric(sim, cfg, trace)
        _check_table_capacity(trace, cfg, fabric)
        scoreboard = Scoreboard(len(trace))

        master = MasterCluster(fabric, scoreboard)
        # One shard keeps the paper-exact single-Maestro engine; more shards
        # (or the differential-testing force switch) wire the sharded one.
        if fabric.sharded:
            maestro = ShardedMaestro(fabric, scoreboard)
        else:
            maestro = TaskMaestro(fabric, scoreboard)
        controllers = [
            TaskController(core, fabric, scoreboard) for core in range(cfg.workers)
        ]
        master.start()
        maestro.start()
        for tc in controllers:
            tc.start()

        sampler = None
        if cfg.telemetry_window > 0:
            sampler = TelemetrySampler(sim, cfg.telemetry_window)
            _register_telemetry(sampler, cfg, fabric, maestro, master, controllers)

        wall_start = time.perf_counter()
        try:
            _drive(sim, sampler, cfg.telemetry_window, max_time)
        except DeadlockError:
            # Component processes are endless loops; once the last task has
            # retired every block parks on an empty FIFO and the event heap
            # drains — that is the normal end of a run.
            if not scoreboard.all_done:
                raise
        except ProcessError as exc:
            if isinstance(exc.original, CapacityError):
                raise exc.original from exc
            raise
        wall_seconds = time.perf_counter() - wall_start

        if not scoreboard.all_done and max_time is None:
            raise RuntimeError(
                f"run ended with {scoreboard.completed_count}/{len(trace)} tasks done"
            )

        # Post-conditions: the machine drained completely.
        if scoreboard.all_done:
            assert fabric.task_pool.is_empty, "Task Pool not empty after run"
            if fabric.sharded:
                for s, table in enumerate(fabric.dep_shards):
                    assert table.is_empty, f"DT shard {s} not empty after run"
            else:
                assert fabric.dep_table.is_empty, "Dependence Table not empty after run"
            assert not fabric.inflight, "in-flight map not empty after run"

        span = max(1, scoreboard.last_completion)
        if fabric.sharded:
            dep_stats = maestro.dep_table_stats()
            ready_stat = sum(
                (f.stat.mean() if f.stat else 0.0) for f in fabric.shard_ready
            )
        else:
            dep_stats = fabric.dep_table.stats()
            ready_stat = (
                fabric.global_ready.stat.mean() if fabric.global_ready.stat else 0.0
            )
        # Kick-off waiter-list occupancy: time-weighted queued-hazard count
        # per Dependence Table (slice), feeding the admission-throttle
        # study alongside the existing max_kickoff_waiters high-water mark.
        # ``mean_total`` sums the per-slice means (levels add, so it is
        # the machine-wide mean queued-waiter count and can exceed any
        # single slice's high water); ``max_per_shard`` is the largest
        # level one slice ever held.
        dep_stats["kickoff_waiters"] = {
            "mean_total": round(
                sum(st.mean(span) for st in fabric.kickoff_waiters), 4
            ),
            "max_per_shard": max(
                st.max_level for st in fabric.kickoff_waiters
            ),
            "per_shard_mean": [
                round(st.mean(span), 4) for st in fabric.kickoff_waiters
            ],
        }
        # Staged-resolve pipeline: coalescing counters plus the resolve-
        # stage queue depths (time-weighted LevelStats of the intake
        # queues and, under speculative kick-off, the kick queues).
        resolve_stats = fabric.resolve.stats()
        if fabric.sharded:
            resolve_stats["finish_inbox_mean"] = [
                round(f.stat.mean(span), 4) for f in fabric.finish_inbox
            ]
            resolve_stats["finish_inbox_max"] = [
                f.stat.max_level for f in fabric.finish_inbox
            ]
        else:
            resolve_stats["notify_queue_mean"] = round(
                fabric.finished_notify.stat.mean(span), 4
            )
            resolve_stats["notify_queue_max"] = fabric.finished_notify.stat.max_level
        if fabric.resolve.kick_queues:
            resolve_stats["kick_queue_mean"] = [
                round(q.stat.mean(span), 4) for q in fabric.resolve.kick_queues
            ]
            resolve_stats["kick_queue_max"] = [
                q.stat.max_level for q in fabric.resolve.kick_queues
            ]
        # Check-path pipeline: scatter mode + coalescing counters; under
        # the decentralized scatter also the per-slice occupancy and the
        # re-sequencer reorder-buffer shape (forwarded counts must match,
        # max_held is the out-of-order high-water mark).
        check_stats = fabric.check_pipe.stats()
        if cfg.decentralized_check_scatter:
            check_stats["slice_mean_occupancy"] = [
                round(f.stat.mean(span), 4) for f in fabric.scatter_slices
            ]
            check_stats["reseq_forwarded"] = [
                r.forwarded for r in fabric.check_reseq
            ]
            check_stats["reseq_max_held"] = [
                r.max_held for r in fabric.check_reseq
            ]
        stats = {
            "maestro_utilization": maestro.utilization(span),
            "worker_busy_fraction": [
                tc.busy.utilization(span) for tc in controllers
            ],
            "dep_table": dep_stats,
            "task_pool": {
                "high_water": fabric.task_pool.high_water,
                "dummy_tasks_created": fabric.task_pool.dummy_tasks_created,
            },
            "memory": fabric.memory.stats(),
            "master_stall_ps": master.stall_time,
            "per_master_stall_ps": master.per_master_stall(),
            "tasks_submitted": master.submitted,
            "tds_buffer_mean_occupancy": (
                fabric.tds_buffer.stat.mean() if fabric.tds_buffer.stat else 0.0
            ),
            "global_ready_mean_occupancy": ready_stat,
            "tasks_per_core": [tc.tasks_run for tc in controllers],
            # Per-hop dependence-chain latency attribution (resolve /
            # forward / TD-transfer / start), computed from the scoreboard
            # after the run — it never perturbs the simulation.
            "dispatch": hop_latency_stats(scoreboard.records, span),
            # Staged-resolve pipeline: coalescing rate, batch shape and
            # resolve-stage queue depths.
            "resolve": resolve_stats,
            # Check-path pipeline: scatter mode, check-side coalescing
            # counters and (decentralized only) the scatter slice /
            # re-sequencer shape.
            "check": check_stats,
            # Host-side kernel profile (never affects modelled results):
            # feeds ``python -m repro run --profile`` and the sim-kernel
            # bench.
            "sim": {
                "kernel": sim.kernel,
                "wall_seconds": round(wall_seconds, 6),
                "events_processed": sim.events_processed,
                "events_per_sec": (
                    round(sim.events_processed / wall_seconds)
                    if wall_seconds > 0
                    else 0
                ),
                "tasks_per_sec": (
                    round(len(trace) / wall_seconds) if wall_seconds > 0 else 0
                ),
                "peak_pending_events": sim.peak_pending,
            },
        }
        if fabric.dispatch is not None:
            stats["dispatch"]["fast_dispatch"] = fabric.dispatch.stats()
        if fabric.sharded:
            depth = cfg.retire_pipeline_depth
            stats["shards"] = {
                "count": fabric.n_shards,
                "interconnect": fabric.icn.stats(),
                "steals": maestro.steals,
                "steals_after_forward": maestro.steals_after_forward,
                "per_shard_dep_table": maestro.shard_stats(),
                # Retire front-end occupancy: time-weighted in-flight finish
                # counts per shard.  ``full_fraction`` is the share of the
                # run a shard spent with every retire ticket charged — the
                # retire-backpressure signal bottleneck attribution reads.
                "retire": {
                    "pipeline_depth": depth,
                    "inflight_mean": [
                        round(st.mean(span), 4) for st in fabric.retire_inflight
                    ],
                    "inflight_max": [
                        st.max_level for st in fabric.retire_inflight
                    ],
                    "inflight_histogram": [
                        {
                            lvl: round(frac, 4)
                            for lvl, frac in st.histogram(span).items()
                        }
                        for st in fabric.retire_inflight
                    ],
                    "full_fraction": [
                        round(st.fraction_at_or_above(depth, span), 4)
                        for st in fabric.retire_inflight
                    ],
                },
            }
        if sampler is not None:
            # The sampled time series, as a plain JSON-shaped block; the
            # Chrome-trace counter lanes and the metrics document both
            # read it from here.
            stats["telemetry"] = sampler.to_dict()
        if fabric.parallel_frontend:
            stats["frontend"] = {
                "master_cores": fabric.n_masters,
                "submission_batch": cfg.submission_batch,
                "merged": fabric.merge.merged,
                "per_master_buffer_mean_occupancy": [
                    (b.stat.mean() if b.stat else 0.0)
                    for b in fabric.master_buffers
                ],
            }
        return RunResult(
            trace_name=trace.name,
            workers=cfg.workers,
            makespan=scoreboard.last_completion,
            # None (not sim.now) when a max_time-truncated run ended before
            # every master finished — a truncated run must stay
            # distinguishable from a complete one.
            master_done=master.done_at,
            records=scoreboard.records,
            stats=stats,
            config_notes={
                "memory_contention": cfg.memory_contention,
                "buffering_depth": cfg.buffering_depth,
                "task_prep_time": cfg.task_prep_time,
                "task_pool_entries": cfg.task_pool_entries,
                "dependence_table_entries": cfg.dependence_table_entries,
                "restricted": cfg.restricted,
                "maestro_shards": cfg.maestro_shards,
                "master_cores": cfg.master_cores,
                "submission_batch": cfg.submission_batch,
                "retire_pipeline_depth": cfg.retire_pipeline_depth,
                "task_pool_ports": cfg.tp_ports,
                "td_cache_entries": cfg.td_cache_entries,
                "kickoff_fast_path": cfg.kickoff_fast_path,
                "finish_coalesce_limit": cfg.finish_coalesce_limit,
                "speculative_kickoff": cfg.speculative_kickoff,
                "decentralized_check_scatter": cfg.decentralized_check_scatter,
                "check_coalesce_limit": cfg.check_coalesce_limit,
                "sim_kernel": cfg.sim_kernel,
            },
        )


def _drive(
    sim: Simulator,
    sampler: Optional[TelemetrySampler],
    window: int,
    max_time: Optional[int],
) -> None:
    """Run the simulation, stepping at telemetry window boundaries.

    Without a sampler this is exactly ``sim.run(until=max_time)``.  With
    one, the *host* loop repeatedly runs to the next ``window`` boundary
    and samples there — both kernels resume from ``run(until=...)``
    without reordering anything and the sampler injects zero events, so a
    sampled run is cycle-identical to an unsampled one (the observe-only
    differential test pins this).  The event queue draining mid-window
    raises :class:`DeadlockError` (the normal end of a run); the final
    partial window is sampled before re-raising so the tail of the run is
    not lost.
    """
    if sampler is None:
        sim.run(until=max_time)
        return
    boundary = window
    try:
        while True:
            target = boundary if max_time is None else min(boundary, max_time)
            sim.run(until=target)
            sampler.sample()
            if max_time is not None and target >= max_time:
                return
            boundary += window
    except DeadlockError:
        sampler.sample()
        raise


def _register_telemetry(
    sampler: TelemetrySampler,
    cfg: SystemConfig,
    fabric: Fabric,
    maestro,
    master: MasterCluster,
    controllers: list,
) -> None:
    """Register every machine signal on the sampler under its stable
    dotted name.

    The signal set mirrors the end-of-run stats blocks: per-block busy
    fractions (``write_tp.busy``, ``s0.check.busy``...), queue depths
    (finish inbox, kick queues, TDs buffer, ready lists), retire tickets
    in flight, kick-off waiter occupancy, TD-cache hit rate, and the
    host profile's events counters.  Every read is a window *delta* of a
    cumulative statistic, so sampling is observe-only by construction.
    Conditional signals (kick queues, re-sequencers, TD cache, retire)
    exist exactly when their machinery is wired, the same rule the stats
    dict follows.
    """
    sim = fabric.sim
    for name, tracker in maestro.busy.items():
        sampler.add_busy(f"{name}.busy", tracker)
    sampler.add_busy_group("workers.busy", [tc.busy for tc in controllers])

    # Master producing fraction: core-time spent generating TDs (total
    # master-core time minus recorded stall minus post-done idle), the
    # same normalization the bottleneck report uses run-wide.
    masters = master.masters
    stall_state = [0]

    def master_busy(t0: int, t1: int) -> float:
        active = 0
        for m in masters:
            end = t1 if m.done_at is None else min(m.done_at, t1)
            active += max(0, end - t0)
        stall = sum(m.stall_time for m in masters)
        d_stall, stall_state[0] = stall - stall_state[0], stall
        return max(0, active - d_stall) / ((t1 - t0) * len(masters))

    sampler.add_signal("master.busy", master_busy)

    sampler.add_mean_level("tds_buffer.depth", [fabric.tds_buffer.stat])
    if fabric.sharded:
        sampler.add_mean_level(
            "ready.depth", [f.stat for f in fabric.shard_ready]
        )
        sampler.add_mean_level(
            "resolve.inbox.depth", [f.stat for f in fabric.finish_inbox]
        )
        sampler.add_mean_level(
            "retire.inflight", fabric.retire_inflight
        )
        sampler.add_full_fraction(
            "retire.full_fraction",
            fabric.retire_inflight,
            cfg.retire_pipeline_depth,
        )
    else:
        sampler.add_mean_level("ready.depth", [fabric.global_ready.stat])
        sampler.add_mean_level(
            "resolve.inbox.depth", [fabric.finished_notify.stat]
        )
    sampler.add_mean_level("dep_table.kickoff_waiters", fabric.kickoff_waiters)
    if fabric.resolve.kick_queues:
        sampler.add_mean_level(
            "resolve.kick_queues.depth",
            [q.stat for q in fabric.resolve.kick_queues],
        )
    if cfg.decentralized_check_scatter:
        sampler.add_mean_level(
            "check.scatter_slices.depth",
            [f.stat for f in fabric.scatter_slices],
        )
        sampler.add_gauge(
            "check.reseq_held",
            lambda: sum(len(r._held) for r in fabric.check_reseq),
        )
    if fabric.dispatch is not None and fabric.dispatch.cache is not None:
        cache = fabric.dispatch.cache
        sampler.add_rate(
            "td_cache.hit_rate",
            lambda: cache.hits,
            lambda: cache.hits + cache.misses,
        )
    if cfg.memory_contention and fabric.memory.banks is not None:
        sampler.add_mean_level("memory.banks", [fabric.memory.banks.stat])
    # Kernel events per window: the modelled-event count delta is
    # deterministic (it counts simulation events, not wall time) and so
    # exportable; events/sec is wall-clock derived and flagged host-only.
    sampler.add_counter("sim.events", lambda: sim.events_processed)
    sampler.add_events_per_sec(sim)


def _check_table_capacity(trace: TaskTrace, cfg: SystemConfig, fabric: Fabric) -> None:
    """Reject a task whose distinct addresses can never sit in its
    Dependence Table (or one shard's slice of it) at once.

    Such a task's check holds every entry it got and waits for one only
    its own retirement would free, so the run could only end in a
    deadlock.  Feasible traces pay one length compare per task.
    """
    cap = cfg.dt_entries_per_shard if fabric.sharded else cfg.dependence_table_entries
    for task in trace:
        if task.n_params <= cap:
            continue
        addrs = {p.addr for p in task.params}
        if fabric.sharded:
            shard, need = Counter(fabric.shard_of(a) for a in addrs).most_common(1)[0]
            where = f"Maestro shard {shard}'s Dependence Table slice"
        else:
            need, where = len(addrs), "the Dependence Table"
        if need > cap:
            raise CapacityError(
                f"task {task.tid} needs {need} Dependence Table entries (one "
                f"per distinct address) but {where} holds {cap}"
            )


def run_trace(trace: TaskTrace, config: Optional[SystemConfig] = None) -> RunResult:
    """Convenience wrapper: simulate ``trace`` on a fresh machine."""
    return NexusMachine(config).run(trace)
