"""The one sweep engine: ``grid_sweep`` over SystemConfig knob grids.

``grid_sweep_golden.json`` holds the rows the six per-study sweep
functions (shard, master, retire, dispatch, resolve, check) produced
before ``grid_sweep`` replaced them, on the hazard-dense trace below
(the resolve and check entries were re-recorded on a base without a
coalescing window, before that knob was deleted).  The named preset
grids must reproduce every row key for key, value for value and in the
same order.
"""

import json
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.machine import NexusMachine, grid_sweep, preset_grid, sweep_parameter
from repro.machine.sweep import GridError, _default_columns, _merge_grids
from repro.traces import random_trace

GOLDEN = json.loads((Path(__file__).parent / "grid_sweep_golden.json").read_text())

TRACE = random_trace(
    240, n_addresses=48, max_params=6, seed=7, mean_exec=4000, mean_memory=0,
    name="random-hazard-dense",
)
BASE = SystemConfig(workers=8, memory_contention=False)
SHARDED = BASE.with_(maestro_shards=2, master_cores=2, submission_batch=4)
PIPED = SHARDED.with_(retire_pipeline_depth=2)

#: golden name -> (base config, grid_sweep kwargs).
GRIDS = {
    "shards": (BASE.with_(task_prep_time=0), preset_grid("shards", shards=[1, 2, 4])),
    "masters": (
        BASE.with_(maestro_shards=2),
        preset_grid("masters", masters=[1, 2], batch=[1, 4]),
    ),
    "retire": (SHARDED, preset_grid("retire", depths=[1, 2, 4])),
    "dispatch": (PIPED, preset_grid("dispatch", td_cache=16)),
    "resolve": (PIPED, preset_grid("resolve", coalesce=4)),
    "resolve_single": (BASE, preset_grid("resolve", coalesce=4)),
    "check": (PIPED, preset_grid("check", check_coalesce=4)),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_preset_grid_reproduces_the_legacy_rows(name):
    cfg, grid = GRIDS[name]
    rows = grid_sweep(TRACE, cfg, **grid).rows()
    assert [list(r.items()) for r in rows] == [list(r.items()) for r in GOLDEN[name]]


def test_golden_covers_every_preset():
    assert {n.split("_")[0] for n in GRIDS} == {
        "shards", "masters", "retire", "dispatch", "resolve", "check",
    }


class TestMixedAxes:
    @pytest.fixture(scope="class")
    def report(self):
        return grid_sweep(
            TRACE,
            BASE.with_(master_cores=2),
            {"maestro_shards": [2, 4], "retire_pipeline_depth": [1, 2]},
        )

    def test_points_cross_first_axis_slowest(self, report):
        assert report.points == [(2, 1), (2, 2), (4, 1), (4, 2)]
        keys = report.keys()
        assert keys[:2] == ["shards", "depth"]
        # Both presets' columns, shared ones once.
        assert report.columns == _default_columns(
            ["maestro_shards", "retire_pipeline_depth"]
        )
        assert len(set(keys)) == len(keys)

    def test_each_point_is_the_standalone_run(self, report):
        for (shards, depth), run in zip(report.points, report.runs):
            cfg = BASE.with_(
                master_cores=2, maestro_shards=shards, retire_pipeline_depth=depth
            )
            assert run.makespan == NexusMachine(cfg).run(TRACE).makespan
        assert report.at(maestro_shards=4, retire_pipeline_depth=2) is report.runs[3]

    def test_header_names_only_the_fixed_machine(self, report):
        doc = report.to_json_dict()
        assert doc["workers"] == 8 and "shards" not in doc
        assert doc["baseline"] == {"shards": 2, "depth": 1}

    def test_merge_grids_matches_axes(self, report):
        merged = _merge_grids(
            {"axes": {"maestro_shards": [2, 4]}},
            {"axes": {"retire_pipeline_depth": [1, 2]}},
        )
        assert merged["points"] == report.points
        assert merged["columns"] == report.columns


class TestBaselineRule:
    def test_smallest_point_whatever_the_order(self):
        rep = grid_sweep(TRACE, BASE, {"maestro_shards": [4, 1, 2]})
        assert rep.baseline == (1,)
        assert rep.rows()[1]["speedup_vs_baseline"] == 1.0
        # Ablations: 0 / off / 1 sort lowest, so "everything off" wins
        # even when the point list starts elsewhere.
        grid = preset_grid("dispatch", td_cache=16)
        grid["points"] = grid["points"][::-1]
        rep = grid_sweep(TRACE, PIPED, **grid)
        assert rep.baseline == (0, False)
        assert rep.to_json_dict()["baseline"] == {"td_cache": 0, "fast_path": False}


class TestValidation:
    def test_rejects_bad_grids_before_running(self):
        with pytest.raises(ValueError, match="not SystemConfig knobs"):
            grid_sweep(TRACE, BASE, {"shards": [1, 2]})
        with pytest.raises(ValueError, match="repeats a point"):
            grid_sweep(TRACE, PIPED, **preset_grid("dispatch", td_cache=0))
        with pytest.raises(ValueError, match="unknown columns"):
            grid_sweep(TRACE, BASE, {"maestro_shards": [1]}, columns=["nope"])
        with pytest.raises(ValueError, match="unknown grid preset"):
            preset_grid("nope")

    def test_row_keys_never_change_with_the_grid(self):
        # The resolve and check ablations both report ``coalesce`` and
        # ``mean_batch``; crossing them is refused rather than renaming
        # keys a consumer of either report reads.
        grid = _merge_grids(preset_grid("resolve"), preset_grid("check"))
        with pytest.raises(GridError, match="row keys .*'coalesce'"):
            grid_sweep(TRACE, PIPED, **grid)
        rep = grid_sweep(
            TRACE, PIPED, {"finish_coalesce_limit": [1, 4], "maestro_shards": [2]},
            columns=["resolve.mean_batch"],
        )
        assert list(rep.rows()[0]) == ["coalesce", "shards", "mean_batch"]

    def test_sharded_only_knobs_fail_in_config_validation(self):
        # One check for every sharded-only knob: SystemConfig's own.
        with pytest.raises(ValueError, match="grid point retire_pipeline_depth=2"):
            grid_sweep(TRACE, BASE, {"retire_pipeline_depth": [1, 2]})
        with pytest.raises(ValueError, match="require the sharded Maestro"):
            grid_sweep(TRACE, BASE, **preset_grid("check"))

    def test_mapping_base_validates_per_point(self):
        rep = grid_sweep(
            TRACE, {"workers": 8, "retire_pipeline_depth": 2},
            {"maestro_shards": [2, 4]}, columns=["makespan_ps"],
        )
        assert [c.retire_pipeline_depth for c in rep.configs] == [2, 2]
        assert rep.rows()[0].keys() == {"shards", "makespan_ps"}


def test_sweep_parameter_is_a_one_axis_grid():
    sizes = sweep_parameter(
        TRACE, BASE, "task_pool_entries", [2048], extract=lambda r: r.makespan
    )
    rep = grid_sweep(TRACE, BASE, {"task_pool_entries": [2048]})
    assert rep.configs[0].tp_free_list_entries == 2048
    assert sizes == {2048: rep.runs[0].makespan}
