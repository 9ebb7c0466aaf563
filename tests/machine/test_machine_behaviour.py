"""Behavioural machine tests: windows, stalls, buffering, sweeps.

These pin down the *mechanisms* behind the paper's figures rather than
end-to-end numbers: the Task-Pool window capping pattern (b), double
buffering overlapping fetch with execution, master backpressure, and the
Dependence-Table stall path.
"""

import pytest

from repro.config import SystemConfig
from repro.machine import NexusMachine, run_trace, speedup_curve, sweep_parameter
from repro.runtime.task_graph import build_task_graph
from repro.traces import (
    TimeModel,
    h264_wavefront_trace,
    horizontal_chains_trace,
    independent_trace,
    random_trace,
)

FAST_TIMES = TimeModel(mean_exec=2_000_000, mean_memory=500_000, cv=0.0)


class TestTaskPoolWindow:
    """Fig. 4(b): parallelism = Task-Pool-resident rows."""

    def test_small_pool_caps_horizontal_chains(self):
        # 20 chains of 40 tasks; a 40-entry pool holds one chain: ~1x.
        trace = horizontal_chains_trace(rows=20, cols=40, time_model=FAST_TIMES)
        small = SystemConfig(
            workers=16,
            task_pool_entries=40,
            tp_free_list_entries=40,
            memory_contention=False,
        )
        large = small.with_(task_pool_entries=1024, tp_free_list_entries=1024)
        r_small = run_trace(trace, small)
        r_large = run_trace(trace, large)
        # The large pool exposes many chains at once; the small one cannot.
        assert r_large.makespan < r_small.makespan / 3

    def test_window_does_not_affect_independent_tasks_much(self):
        trace = independent_trace(n_tasks=400, n_params=2, time_model=FAST_TIMES)
        small = SystemConfig(
            workers=8,
            task_pool_entries=64,
            tp_free_list_entries=64,
            memory_contention=False,
        )
        large = small.with_(task_pool_entries=1024, tp_free_list_entries=1024)
        r_small = run_trace(trace, small)
        r_large = run_trace(trace, large)
        # 64 >> 2x8 in-flight need: window is not the bottleneck.
        assert r_small.makespan < r_large.makespan * 1.1


class TestDoubleBuffering:
    def test_depth2_hides_memory_time_single_core(self):
        # exec 2us, memory 2us: depth 1 -> ~4us/task; depth 2 -> ~2us/task.
        times = TimeModel(mean_exec=2_000_000, mean_memory=2_000_000, cv=0.0)
        trace = independent_trace(n_tasks=100, n_params=2, time_model=times)
        r1 = run_trace(
            trace, SystemConfig(workers=1, buffering_depth=1, memory_contention=False)
        )
        r2 = run_trace(
            trace, SystemConfig(workers=1, buffering_depth=2, memory_contention=False)
        )
        ratio = r1.makespan / r2.makespan
        assert 1.4 < ratio < 2.1

    def test_depth1_serializes_fetch_and_exec(self):
        times = TimeModel(mean_exec=2_000_000, mean_memory=2_000_000, cv=0.0)
        trace = independent_trace(n_tasks=50, n_params=2, time_model=times)
        r1 = run_trace(
            trace, SystemConfig(workers=1, buffering_depth=1, memory_contention=False)
        )
        # Lower bound: 50 x (1.5us read + 2us exec + 0.5us write).
        assert r1.makespan >= 50 * 4_000_000

    def test_deeper_buffers_never_hurt(self):
        trace = independent_trace(n_tasks=200, n_params=2, time_model=FAST_TIMES)
        makespans = []
        for depth in (1, 2, 4):
            cfg = SystemConfig(workers=4, buffering_depth=depth, memory_contention=False)
            makespans.append(run_trace(trace, cfg).makespan)
        assert makespans[1] <= makespans[0]
        assert makespans[2] <= makespans[1] * 1.02


class TestMasterBackpressure:
    def test_master_stalls_when_tds_buffer_full(self):
        # Tiny TDs buffer + slow single worker: the master must stall.
        trace = independent_trace(n_tasks=60, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(
            workers=1,
            tds_sizes_list_entries=2,
            task_pool_entries=4,
            tp_free_list_entries=4,
            memory_contention=False,
        )
        result = run_trace(trace, cfg)
        assert result.stats["master_stall_ps"] > 0
        # Despite backpressure, everything completes correctly.
        graph = build_task_graph(trace)
        assert result.verify_against(graph) == []

    def test_unconstrained_master_never_stalls(self):
        trace = independent_trace(n_tasks=60, n_params=2, time_model=FAST_TIMES)
        result = run_trace(trace, SystemConfig(workers=32, memory_contention=False))
        assert result.stats["master_stall_ps"] == 0


class TestDependenceTableStall:
    def test_tiny_dt_stalls_but_completes(self):
        trace = independent_trace(n_tasks=120, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(
            workers=4,
            dependence_table_entries=8,  # in-flight demand far exceeds this
            memory_contention=False,
        )
        result = run_trace(trace, cfg)
        graph = build_task_graph(trace)
        assert result.verify_against(graph) == []
        assert result.stats["dep_table"]["high_water"] <= 8

    def test_tiny_dt_costs_throughput(self):
        trace = independent_trace(n_tasks=200, n_params=2, time_model=FAST_TIMES)
        tiny = SystemConfig(workers=8, dependence_table_entries=8, memory_contention=False)
        normal = tiny.with_(dependence_table_entries=4096)
        assert (
            run_trace(trace, normal).makespan < run_trace(trace, tiny).makespan
        )


class TestPreflightTableCapacity:
    """A task with more distinct addresses than its Dependence Table (or
    shard slice) holds is rejected with a named error before simulating,
    not after a wedge that dumps every parked process."""

    PROBE = dict(n_addresses=64, max_params=8, seed=3, mean_exec=2000, mean_memory=0)

    def test_single_maestro_table_too_small(self):
        from repro.hw.errors import CapacityError

        trace = random_trace(300, **self.PROBE)
        cfg = SystemConfig(dependence_table_entries=4, max_params_per_td=8)
        with pytest.raises(
            CapacityError,
            match=r"task 0 needs 7 Dependence Table entries .* the Dependence "
            r"Table holds 4",
        ):
            NexusMachine(cfg).run(trace)

    def test_sharded_slice_too_small(self):
        from repro.hw.errors import CapacityError

        trace = random_trace(300, **self.PROBE)
        cfg = SystemConfig(
            maestro_shards=2, dependence_table_entries=4, max_params_per_td=8
        )
        with pytest.raises(
            CapacityError, match=r"task 0 needs 5 .* Maestro shard 0's .* holds 2"
        ):
            NexusMachine(cfg).run(trace)

    def test_tight_but_feasible_tables_still_run(self):
        # Every task fits once its addresses spread over the shards, even
        # though its parameter count exceeds one slice.
        trace = random_trace(60, n_addresses=16, max_params=6, seed=5,
                             mean_exec=2000, mean_memory=0)
        cfg = SystemConfig(
            workers=4, maestro_shards=4, dependence_table_entries=20,
            memory_contention=False,
        )
        assert max(t.n_params for t in trace) > 5
        result = run_trace(trace, cfg)
        assert result.verify_against(build_task_graph(trace)) == []


class TestSweepHelpers:
    def test_speedup_curve_monotone_for_independent(self):
        trace = independent_trace(n_tasks=300, n_params=2, time_model=FAST_TIMES)
        curve = speedup_curve(
            trace, [1, 2, 4], SystemConfig(memory_contention=False)
        )
        assert curve.speedups[0] == pytest.approx(1.0, abs=0.01)
        assert curve.speedups == sorted(curve.speedups)
        assert curve.at(4) > 3.0
        assert curve.peak() == curve.speedups[-1]

    def test_saturation_point(self):
        trace = horizontal_chains_trace(rows=4, cols=30, time_model=FAST_TIMES)
        curve = speedup_curve(trace, [1, 2, 4, 8, 16], SystemConfig(memory_contention=False))
        # Only 4 chains exist: saturation at or before 8 cores.
        assert curve.saturation_point() <= 8

    def test_empty_core_counts_rejected(self):
        trace = independent_trace(n_tasks=10, n_params=2)
        with pytest.raises(ValueError):
            speedup_curve(trace, [])

    def test_saturation_point_ignores_pre_peak_touch(self):
        """Regression: a non-monotone curve whose 1-core point already
        touches the tolerance band of the peak must not report saturation
        at 1 core — the curve dips below the band afterwards."""
        from repro.machine.sweep import SpeedupCurve

        curve = SpeedupCurve(
            trace_name="synthetic",
            core_counts=[1, 2, 4, 8, 16],
            speedups=[3.9, 2.0, 3.0, 3.8, 4.0],
            baseline=None,
        )
        # Peak 4.0, 5% band is >= 3.8: cores 1 touches it but the curve
        # then dips to 2.0; the first count whose whole tail stays in the
        # band is 8.
        assert curve.saturation_point() == 8

    def test_saturation_point_monotone_curve_unchanged(self):
        from repro.machine.sweep import SpeedupCurve

        curve = SpeedupCurve(
            trace_name="synthetic",
            core_counts=[1, 2, 4, 8],
            speedups=[1.0, 1.9, 3.85, 4.0],
            baseline=None,
        )
        assert curve.saturation_point() == 4

    def test_sweep_dt_entries_allowed_when_derived_per_shard(self):
        """The swept total drives the per-shard capacity, so sweeping it on
        a sharded machine is meaningful."""
        trace = independent_trace(n_tasks=30, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(workers=2, maestro_shards=2, memory_contention=False)
        results = sweep_parameter(
            trace,
            cfg,
            "dependence_table_entries",
            [64],
            extract=lambda r: r.makespan,
        )
        assert results[64] > 0

    def test_sweep_parameter_adjusts_free_list(self):
        trace = independent_trace(n_tasks=50, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(workers=2, memory_contention=False)
        results = sweep_parameter(
            trace,
            cfg,
            "task_pool_entries",
            [2048],
            extract=lambda r: r.makespan,
        )
        assert 2048 in results and results[2048] > 0


class TestRecordsAndStats:
    def test_core_assignment_recorded(self):
        trace = independent_trace(n_tasks=30, n_params=2, time_model=FAST_TIMES)
        result = run_trace(trace, SystemConfig(workers=3, memory_contention=False))
        cores = {r.core for r in result.records}
        assert cores == {0, 1, 2}

    def test_utilization_bounded(self):
        trace = h264_wavefront_trace(rows=4, cols=8)
        result = run_trace(trace, SystemConfig(workers=4))
        assert 0.0 < result.worker_utilization() <= 1.0

    def test_throughput_reported(self):
        trace = independent_trace(n_tasks=20, n_params=2, time_model=FAST_TIMES)
        result = run_trace(trace, SystemConfig(workers=2))
        assert result.throughput_tasks_per_s() > 0

    def test_summary_string(self):
        trace = independent_trace(n_tasks=10, n_params=2, time_model=FAST_TIMES)
        result = run_trace(trace, SystemConfig(workers=2))
        s = result.summary()
        assert "10 tasks" in s and "2 workers" in s
