"""Tests for SystemConfig: Table IV values, derived quantities, validation."""

import pytest

from repro.config import (
    BUS_MODEL_FITTED,
    BUS_MODEL_FORMULA,
    SystemConfig,
    contention_free,
    nexus_restricted,
    no_prep_delay,
    paper_default,
)
from repro.sim import NS


class TestTableIVDefaults:
    def test_clock_frequencies(self):
        cfg = SystemConfig()
        assert cfg.core_clock_hz == 2_000_000_000
        assert cfg.nexus_clock_hz == 500_000_000
        assert cfg.nexus_cycle == 2 * NS
        assert cfg.core_cycle == 500  # 0.5 ns in ps

    def test_access_times(self):
        cfg = SystemConfig()
        assert cfg.on_chip_access_time == 2 * NS
        assert cfg.off_chip_access_time == 12 * NS

    def test_table_geometries(self):
        cfg = SystemConfig()
        assert cfg.task_pool_entries == 1024
        assert cfg.task_pool_bytes == 78 * 1024  # 78 KB
        assert cfg.dependence_table_entries == 4096
        assert cfg.dependence_table_bytes == 112 * 1024  # 112 KB
        assert cfg.max_params_per_td == 8
        assert cfg.kickoff_list_size == 8

    def test_memory_bandwidth_matches_table(self):
        cfg = SystemConfig()
        # 128 B / 12 ns = 10.67 GB/s (paper's Table IV row).
        assert cfg.memory_bandwidth_bytes_per_s == pytest.approx(10.67e9, rel=0.01)

    def test_fifo_entry_counts(self):
        cfg = SystemConfig()
        assert cfg.tds_sizes_list_entries == 1024
        assert cfg.new_tasks_list_entries == 1024
        assert cfg.tp_free_list_entries == 1024
        assert cfg.global_ready_list_entries == 1024
        assert cfg.worker_ids_list_entries == 1024

    def test_buffering_depth_is_double(self):
        assert SystemConfig().buffering_depth == 2

    def test_task_prep_time(self):
        assert SystemConfig().task_prep_time == 30 * NS

    def test_table_iv_rendering(self):
        rows = dict(SystemConfig().table_iv())
        assert rows["Nexus++ clock freq."] == "500 MHz"
        assert rows["Task Pool size"] == "78 KB (1024 TDs)"
        assert rows["Dependence Table size"] == "112 KB (4096 entries)"
        assert rows["Kick-Off list size"] == "8 task IDs"


class TestSubmissionTiming:
    def test_formula_model_matches_prose(self):
        cfg = SystemConfig(bus_model=BUS_MODEL_FORMULA)
        # handshake 5 cycles + 2 cycles per word, words = 1 + nP, cycle = 2ns.
        assert cfg.submission_time(4) == (5 + 2 * 5) * 2 * NS
        assert cfg.submission_time(8) == (5 + 2 * 9) * 2 * NS

    def test_fitted_model_matches_paper_examples(self):
        cfg = SystemConfig(bus_model=BUS_MODEL_FITTED)
        # Paper: "a task with 4 parameters takes 10 cycles (20ns), whereas an
        # 8-parameters task takes 14 cycles (28ns)".
        assert cfg.submission_time(4) == 20 * NS
        assert cfg.submission_time(8) == 28 * NS

    def test_td_transfer_time(self):
        cfg = SystemConfig()
        assert cfg.td_transfer_time(3) == (5 + 2 * 4) * 2 * NS

    def test_unknown_bus_model_rejected(self):
        with pytest.raises(ValueError, match="bus_model"):
            SystemConfig(bus_model="warp-drive")


class TestDerivedHelpers:
    def test_exec_time_for_flops(self):
        cfg = SystemConfig()  # 2 GFLOPS
        # 3523 FLOPs at 2 GFLOPS = 1.7615 us (paper: "1.77us" for n=5000).
        assert cfg.exec_time_for_flops(3523) == pytest.approx(1.76 * 1e6, rel=0.01)
        # 167 FLOPs = 83.5 ns (paper quotes 83.5ns for n=250).
        assert cfg.exec_time_for_flops(167) == 83_500

    def test_exec_time_minimum_one_ps(self):
        assert SystemConfig().exec_time_for_flops(0.0001) == 1

    def test_memory_time_rounds_to_chunks(self):
        cfg = SystemConfig()
        assert cfg.memory_time_for_bytes(0) == 0
        assert cfg.memory_time_for_bytes(1) == 12 * NS
        assert cfg.memory_time_for_bytes(128) == 12 * NS
        assert cfg.memory_time_for_bytes(129) == 24 * NS
        assert cfg.memory_time_for_bytes(1280) == 120 * NS

    def test_with_replaces_fields(self):
        cfg = SystemConfig().with_(workers=64, memory_contention=False)
        assert cfg.workers == 64
        assert not cfg.memory_contention
        # Original untouched (frozen).
        assert SystemConfig().workers == 16


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("workers", 0),
            ("buffering_depth", 0),
            ("task_pool_entries", -1),
            ("memory_banks", 0),
            ("kickoff_list_size", 1),
            ("max_params_per_td", 1),
            ("core_gflops", 0),
            ("memory_batch_chunks", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            SystemConfig(**{field: value})

    def test_free_list_must_cover_task_pool(self):
        with pytest.raises(ValueError, match="TP Free Indices"):
            SystemConfig(task_pool_entries=2048, tp_free_list_entries=1024)

    def test_negative_prep_time_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(task_prep_time=-1)


class TestPresets:
    def test_paper_default(self):
        cfg = paper_default(workers=64)
        assert cfg.workers == 64
        assert cfg.memory_contention
        assert cfg.buffering_depth == 2

    def test_contention_free(self):
        cfg = contention_free()
        assert cfg.workers == 256
        assert not cfg.memory_contention
        assert cfg.task_prep_time == 30 * NS

    def test_no_prep_delay(self):
        cfg = no_prep_delay()
        assert cfg.task_prep_time == 0
        assert not cfg.memory_contention

    def test_nexus_restricted(self):
        cfg = nexus_restricted()
        assert cfg.restricted
        assert cfg.buffering_depth == 1


class TestShardedMaestroConfig:
    def test_defaults_are_single_maestro(self):
        cfg = SystemConfig()
        assert cfg.maestro_shards == 1
        assert not cfg.use_sharded_maestro
        assert cfg.shard_hop_time == 4 * NS

    def test_sharded_engine_only_above_one_shard(self):
        assert not SystemConfig(maestro_shards=1).use_sharded_maestro
        assert SystemConfig(maestro_shards=2).use_sharded_maestro

    def test_per_shard_table_split_is_ceiling(self):
        cfg = SystemConfig(maestro_shards=3)
        assert cfg.dt_entries_per_shard == -(-4096 // 3)
        assert cfg.dt_entries_per_shard * 3 >= cfg.dependence_table_entries

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(maestro_shards=0)
        with pytest.raises(ValueError):
            SystemConfig(shard_hop_time=-1)

    def test_table_iv_gains_shard_rows_only_when_sharded(self):
        assert "Maestro shards" not in dict(SystemConfig().table_iv())
        rows = dict(SystemConfig(maestro_shards=4).table_iv())
        assert rows["Maestro shards"] == "4"
        assert rows["Shard hop latency"] == "4ns"
        assert rows["Dependence Table per shard"] == "1024 entries"

    def test_sharded_preset(self):
        from repro.config import sharded_maestro

        cfg = sharded_maestro(shards=4, workers=32)
        assert cfg.maestro_shards == 4
        assert cfg.workers == 32
        assert cfg.use_sharded_maestro
