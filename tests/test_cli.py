"""Tests for the command-line interface."""

import pytest

from repro.cli import WORKLOADS, main


class TestInfoAndListing:
    def test_info_prints_table_iv(self, capsys):
        assert main(["info", "--workers", "64"]) == 0
        out = capsys.readouterr().out
        assert "500 MHz" in out
        assert "78 KB (1024 TDs)" in out

    def test_info_prints_every_config_knob(self, capsys):
        """Knob-coverage completeness: `info` must list every SystemConfig
        field by name, so no knob — present or future — can hide from it
        (PR 4's dispatch knobs and the resolve knobs included).  Each
        knob must appear as its own listing row — substring hits (e.g.
        `dependence_table_entries` inside the `_per_shard` row) don't
        count."""
        import dataclasses
        import re

        from repro.config import SystemConfig

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        missing = [
            f.name
            for f in dataclasses.fields(SystemConfig)
            if not re.search(rf"^\s*{re.escape(f.name)}\s*\|", out, re.MULTILINE)
        ]
        assert not missing, (
            f"`python -m repro info` omits SystemConfig knobs: {missing}"
        )

    def test_info_knob_listing_shows_effective_values(self, capsys):
        assert main(["info", "--shards", "4", "--coalesce", "8",
                     "--spec-kickoff", "--td-cache", "32"]) == 0
        out = capsys.readouterr().out
        assert "All configuration knobs" in out
        for row in ("finish_coalesce_limit | 8", "speculative_kickoff | True",
                    "td_cache_entries | 32", "maestro_shards | 4"):
            name, _, value = row.partition(" | ")
            import re

            assert re.search(rf"{name}\s*\|\s*{value}", out), row

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in WORKLOADS:
            assert name in out


class TestRun:
    def test_run_independent(self, capsys):
        rc = main(["run", "independent", "--tasks", "50", "--workers", "4",
                   "--verify", "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "50 tasks" in out
        assert "dependence check: OK" in out

    def test_run_gaussian_with_bottleneck(self, capsys):
        rc = main(["run", "gaussian", "--size", "24", "--workers", "2",
                   "--bottleneck"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bottleneck:" in out
        assert "dummy entries" in out

    def test_run_cholesky(self, capsys):
        rc = main(["run", "cholesky", "--tiles", "4", "--workers", "4", "--verify"])
        assert rc == 0
        assert "dependence check: OK" in capsys.readouterr().out

    def test_restricted_gaussian_fails_loudly(self):
        from repro.hw.errors import CapacityError

        with pytest.raises(CapacityError):
            main(["run", "gaussian", "--size", "24", "--workers", "2",
                  "--restricted"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nope"])


class TestSweep:
    def test_sweep_prints_curve(self, capsys):
        rc = main(["sweep", "independent", "--tasks", "60", "--cores", "1,2,4",
                   "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "saturation point" in out


class TestValidate:
    def test_validate_saved_trace(self, tmp_path, capsys):
        from repro.traces import independent_trace

        path = str(tmp_path / "t.npz")
        independent_trace(n_tasks=10, n_params=2).save(path)
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "10 tasks" in out
        assert "critical path" in out


class TestShardedMaestroCli:
    def test_run_with_shards(self, capsys):
        rc = main(["run", "random", "--tasks", "60", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--verify",
                   "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "shards 2:" in out
        assert "interconnect messages" in out

    def test_shard_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "shards.json"
        rc = main(["sweep", "random", "--tasks", "80", "--addresses", "16",
                   "--workers", "4", "--shards", "1,2", "--no-contention",
                   "--no-prep", "--json", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "busiest block" in out
        import json

        data = json.loads(path.read_text())
        assert [r["shards"] for r in data["rows"]] == [1, 2]
        assert data["rows"][0]["speedup_vs_baseline"] == 1.0

    def test_info_shows_shard_geometry(self, capsys):
        assert main(["info", "--workers", "8"]) == 0
        out = capsys.readouterr().out
        assert "Maestro shards" not in out  # paper table stays paper-shaped


class TestSubmissionFrontendCli:
    def test_run_with_masters_and_batch(self, capsys):
        rc = main(["run", "random", "--tasks", "60", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--masters", "2",
                   "--batch", "4", "--verify", "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "front-end: 2 masters x batch 4" in out

    def test_master_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "masters.json"
        rc = main(["sweep", "random", "--tasks", "80", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--masters", "1,2",
                   "--batch", "1,4", "--no-contention", "--json", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "master-bound" in out
        import json

        data = json.loads(path.read_text())
        assert data["shards"] == 2
        assert [(r["masters"], r["batch"]) for r in data["rows"]] == [
            (1, 1), (1, 4), (2, 1), (2, 4)
        ]
        assert data["rows"][0]["speedup_vs_baseline"] == 1.0

    def test_master_sweep_crosses_shard_list(self, capsys, tmp_path):
        # Two comma lists are two grid axes, crossed (first flag slowest).
        path = tmp_path / "grid.json"
        assert main(["sweep", "random", "--tasks", "40", "--masters", "1,2",
                     "--shards", "1,2", "--json", str(path)]) == 0
        import json

        data = json.loads(path.read_text())
        assert [(r["shards"], r["masters"]) for r in data["rows"]] == [
            (1, 1), (1, 2), (2, 1), (2, 2)
        ]
        assert data["baseline"] == {"shards": 1, "masters": 1}

    def test_info_shows_frontend_geometry(self, capsys):
        assert main(["info", "--masters", "2", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "Master cores" in out
        assert "Submission batch" in out


class TestRetirePipelineCli:
    def test_run_with_retire_depth(self, capsys):
        rc = main(["run", "random", "--tasks", "60", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--masters", "2",
                   "--retire-depth", "4", "--verify", "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "retire pipeline: depth 4" in out

    def test_retire_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "retire.json"
        rc = main(["sweep", "random", "--tasks", "80", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--masters", "2",
                   "--retire-depth", "1,4", "--no-contention",
                   "--json", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pipe full" in out
        import json

        data = json.loads(path.read_text())
        assert data["shards"] == 2
        assert data["baseline"] == {"depth": 1}
        assert [r["depth"] for r in data["rows"]] == [1, 4]
        assert [r["task_pool_ports"] for r in data["rows"]] == [1, 4]
        assert data["rows"][0]["speedup_vs_baseline"] == 1.0

    def test_retire_sweep_rejects_single_maestro(self):
        # --shards 1 (or none) is a usage error, not a raw traceback.
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "40",
                  "--retire-depth", "1,2", "--shards", "1"])
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "40", "--retire-depth", "1,2"])

    def test_shard_sweep_accepts_single_retire_depth(self, capsys):
        """A shard sweep with a fixed pipelined depth applies it everywhere
        (regression: the base config used to validate at 1 shard and die)."""
        rc = main(["sweep", "random", "--tasks", "60", "--addresses", "16",
                   "--workers", "4", "--shards", "2,4",
                   "--retire-depth", "2", "--no-contention"])
        assert rc == 0
        assert "speedup vs" in capsys.readouterr().out

    def test_shard_sweep_rejects_depth_on_single_maestro_point(self):
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "40", "--shards", "1,2",
                  "--retire-depth", "2"])

    def test_run_retire_depth_without_shards_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["run", "random", "--tasks", "40", "--retire-depth", "4"])

    def test_info_shows_retire_geometry(self, capsys):
        assert main(["info", "--shards", "4", "--retire-depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "Retire pipeline depth" in out

    def test_run_with_fast_dispatch(self, capsys):
        rc = main(["run", "random", "--tasks", "60", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--td-cache", "16",
                   "--fast-path", "--prefetch-depth", "2", "--verify",
                   "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "fast dispatch: TD cache" in out
        assert "critical chain" in out

    def test_dispatch_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "dispatch.json"
        rc = main(["sweep", "random", "--tasks", "80", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--dispatch",
                   "--td-cache", "16", "--no-contention",
                   "--json", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resolve/fwd/TD/start" in out
        import json

        data = json.loads(path.read_text())
        assert data["shards"] == 2
        assert data["baseline"] == {"td_cache": 0, "fast_path": False}
        assert [(r["td_cache"], r["fast_path"]) for r in data["rows"]] == [
            (0, False), (16, False), (0, True), (16, True),
        ]
        assert data["rows"][0]["speedup_vs_baseline"] == 1.0
        assert "chain_hop_ns" in data["rows"][0]

    def test_dispatch_sweep_rejects_bad_usage(self):
        # Needs a single sharded --shards value.
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "40", "--dispatch"])
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "40", "--dispatch",
                  "--shards", "1"])
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "40", "--dispatch",
                  "--shards", "1,2"])
        # The grid toggles the fast path itself; a zero-size cache-on
        # point is meaningless.
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "40", "--dispatch",
                  "--shards", "2", "--fast-path"])
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "40", "--dispatch",
                  "--shards", "2", "--td-cache", "0"])

    def test_run_fast_dispatch_without_shards_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["run", "random", "--tasks", "40", "--td-cache", "16"])
        with pytest.raises(SystemExit):
            main(["run", "random", "--tasks", "40", "--fast-path"])

    def test_info_shows_dispatch_geometry(self, capsys):
        assert main(["info", "--shards", "4", "--td-cache", "64",
                     "--fast-path"]) == 0
        out = capsys.readouterr().out
        assert "TD prefetch cache" in out
        assert "Kick-off fast path" in out
        assert "Steal policy" in out
        assert "Task Pool ports" in out

    def test_run_with_resolve_pipeline(self, capsys):
        rc = main(["run", "random", "--tasks", "60", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--coalesce", "4",
                   "--spec-kickoff", "--verify", "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "resolve pipeline: coalesce 4" in out
        assert "speculative kicks" in out

    def test_resolve_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "resolve.json"
        rc = main(["sweep", "random", "--tasks", "80", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--resolve",
                   "--coalesce", "4", "--no-contention", "--json", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spec kick" in out
        import json

        data = json.loads(path.read_text())
        assert data["shards"] == 2
        assert data["baseline"] == {"coalesce": 1, "speculative": False}
        assert [(r["coalesce"], r["speculative"]) for r in data["rows"]] == [
            (1, False), (4, False), (1, True), (4, True),
        ]
        assert data["rows"][0]["speedup_vs_baseline"] == 1.0
        assert "chain_hop_ns" in data["rows"][0]
        assert "coalesce_rate" in data["rows"][0]

    def test_resolve_sweep_runs_on_single_maestro(self, capsys):
        # The staged resolve pipeline is shared by both engines, so only
        # SystemConfig validation decides where the ablation may run.
        assert main(["sweep", "random", "--tasks", "40", "--resolve"]) == 0
        assert "spec kicks" in capsys.readouterr().out

    def test_resolve_sweep_rejects_bad_usage(self):
        # The grid toggles speculation itself; a degenerate batch limit is
        # meaningless.
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "40", "--resolve",
                  "--shards", "2", "--spec-kickoff"])
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "40", "--resolve",
                  "--shards", "2", "--coalesce", "1"])

    def test_info_shows_resolve_geometry(self, capsys):
        assert main(["info", "--shards", "4", "--coalesce", "8",
                     "--spec-kickoff"]) == 0
        out = capsys.readouterr().out
        assert "Finish coalesce limit" in out
        assert "Speculative kick-off" in out

    def test_malformed_retire_depth_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "20", "--shards", "2,4",
                  "--retire-depth", "two"])
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "20", "--shards", "x",
                  "--retire-depth", "1,2"])


class TestSweepGridConflicts:
    def test_resolve_and_dispatch_grids_combine(self, capsys, tmp_path):
        # Two preset ablations cross into one 16-point factorial grid.
        path = tmp_path / "grid.json"
        assert main(["sweep", "random", "--tasks", "40", "--shards", "2",
                     "--resolve", "--dispatch", "--json", str(path)]) == 0
        import json

        data = json.loads(path.read_text())
        assert len(data["rows"]) == 16
        assert data["baseline"] == {
            "td_cache": 0, "fast_path": False, "coalesce": 1, "speculative": False,
        }


class TestGridSweepCli:
    BASE = ["sweep", "random", "--tasks", "40", "--addresses", "16",
            "--no-contention"]

    def _json(self, tmp_path, *args):
        import json

        path = tmp_path / "grid.json"
        assert main(self.BASE + list(args) + ["--json", str(path)]) == 0
        return json.loads(path.read_text())

    def test_grid_axes_cross_in_order(self, capsys, tmp_path):
        data = self._json(tmp_path, "--grid", "maestro_shards=2,4",
                          "retire_pipeline_depth=1,2")
        assert [(r["shards"], r["depth"]) for r in data["rows"]] == [
            (2, 1), (2, 2), (4, 1), (4, 2)
        ]
        assert data["baseline"] == {"shards": 2, "depth": 1}
        out = capsys.readouterr().out
        assert "speedup vs shards=2, depth=1" in out
        assert "pipe full" in out and "x-shard msgs" in out

    def test_cores_list_beside_a_grid_is_the_workers_axis(self, tmp_path):
        # Regression: a comma list on a flag the sweep did not vary used
        # to be dropped silently (the shard grid ran at 16 workers).
        data = self._json(tmp_path, "--shards", "2,4", "--cores", "1,2")
        assert [(r["workers"], r["shards"]) for r in data["rows"]] == [
            (1, 2), (1, 4), (2, 2), (2, 4)
        ]
        assert "workers" not in data and "shards" not in data

    def test_bool_axis_and_single_flags(self, tmp_path):
        data = self._json(tmp_path, "--shards", "2", "--workers", "4",
                          "--grid", "kickoff_fast_path=off,on")
        assert data["workers"] == 4 and data["shards"] == 2
        assert [r["fast_path"] for r in data["rows"]] == [False, True]

    def test_comma_list_on_a_trace_parameter_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="--spin-ns is a trace parameter"):
            main(["sweep", "random", "--spin-ns", "250,1000",
                  "--shards", "1,2"])
        with pytest.raises(SystemExit, match="--efficiency and --cores"):
            main(["sweep", "wait-chain", "--efficiency", "--cores", "1,2"])

    def test_fixed_flag_on_a_swept_knob_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="--shards sets maestro_shards"):
            main(self.BASE + ["--shards", "2",
                              "--grid", "maestro_shards=2,4"])

    def test_bad_grid_tokens_are_usage_errors(self):
        with pytest.raises(SystemExit, match="did you mean 'maestro_shards'"):
            main(self.BASE + ["--grid", "maestro_shard=1,2"])
        with pytest.raises(SystemExit, match="values must be"):
            main(self.BASE + ["--grid", "maestro_shards=two"])
        with pytest.raises(SystemExit, match="KNOB=V1,V2"):
            main(self.BASE + ["--grid", "shards"])

    def test_infeasible_point_names_the_point(self):
        with pytest.raises(SystemExit, match="grid point maestro_shards=1"):
            main(self.BASE + ["--retire-depth", "2", "--grid", "maestro_shards=1,2"])

    def test_grid_before_the_workload_is_a_usage_error(self, capsys):
        # The greedy token list would take the workload as a grid token.
        with pytest.raises(SystemExit):
            main(["sweep", "--grid", "maestro_shards=1,2", "random"])
        assert "name the workload before --grid" in capsys.readouterr().err

    def test_clashing_row_keys_are_a_usage_error(self):
        with pytest.raises(SystemExit, match="share the row keys"):
            main(self.BASE + ["--shards", "2", "--resolve", "--check"])

    def test_bare_grid_integer_is_the_block_grid_side(self, capsys):
        assert main(["sweep", "jacobi", "--grid", "3", "--iterations", "2",
                     "--grid", "maestro_shards=1,2", "--no-contention"]) == 0
        assert "jacobi" in capsys.readouterr().out


class TestEfficiencyAndExport:
    def test_run_wait_chain(self, capsys):
        assert main(["run", "wait-chain", "--rows", "4", "--cols", "6",
                     "--deps", "2", "--spin-ns", "500", "--workers", "4",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "wait-chain-4x6-k2-500ns" in out
        assert "dependence check: OK" in out

    def test_run_spatial(self, capsys):
        assert main(["run", "spatial", "--grid", "3", "--steps", "2",
                     "--dims", "3", "--workers", "4", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "spatial-3d-3^3x2" in out
        assert "dependence check: OK" in out

    def test_run_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.trace.json"
        assert main(["run", "wait-chain", "--rows", "3", "--cols", "4",
                     "--spin-ns", "400", "--workers", "2",
                     "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"chrome trace written to {path}" in out
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["n_tasks"] == 12

    def test_run_rejects_spin_list(self):
        with pytest.raises(SystemExit, match="single positive integer"):
            main(["run", "wait-chain", "--spin-ns", "250,1000",
                  "--workers", "2"])

    def test_efficiency_sweep_writes_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "eff.json"
        assert main(["sweep", "wait-chain", "--efficiency",
                     "--rows", "6", "--cols", "8",
                     "--spin-ns", "500,8000", "--workers", "4",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "hw eff" in out and "sw eff" in out
        assert "parallel efficiency vs granularity" in out
        payload = json.loads(path.read_text())
        assert [r["spin_ns"] for r in payload["rows"]] == [500, 8000]
        assert all(r["efficiency_ratio"] > 1.0 for r in payload["rows"])

    def test_efficiency_sweep_requires_wait_chain(self):
        with pytest.raises(SystemExit, match="wait-chain"):
            main(["sweep", "random", "--tasks", "40", "--efficiency"])

    def test_efficiency_conflicts_with_other_grids(self):
        with pytest.raises(SystemExit, match="different sweep grids"):
            main(["sweep", "wait-chain", "--efficiency", "--shards", "2",
                  "--resolve"])


class TestTelemetryCli:
    ARGS = ["run", "wait-chain", "--rows", "4", "--cols", "6",
            "--spin-ns", "500", "--workers", "4",
            "--telemetry-window", "2000"]

    def test_run_with_telemetry_prints_timeline(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "telemetry: " in out and "windows" in out
        assert "bottleneck timeline: " in out

    def test_metrics_out_report_and_self_diff(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(self.ARGS + ["--metrics-out", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["telemetry"]["signals"]["workers.busy"]

        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "workers.busy" in out

        assert main(["report", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "+0.00%" in out

    def test_report_reads_documents_with_legacy_sim_keys(self, capsys, tmp_path):
        # Schema-1 documents written before the simulator lost its
        # host-side twin blocks carry a "fast_path" flag in their
        # aggregates["sim"] block; they must still render and diff
        # against a current document.
        import json

        new = tmp_path / "new.json"
        assert main(self.ARGS + ["--metrics-out", str(new)]) == 0
        capsys.readouterr()
        doc = json.loads(new.read_text())
        assert "fast_path" not in doc["aggregates"]["sim"]
        doc["aggregates"]["sim"]["fast_path"] = True
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))

        assert main(["report", str(old)]) == 0
        out = capsys.readouterr().out
        assert "host: wheel kernel, " in out and "workers.busy" in out
        assert main(["report", str(old), str(new)]) == 0
        assert "+0.00%" in capsys.readouterr().out

    def test_sub_cycle_window_is_a_usage_error(self):
        # --telemetry-window is in ns; 1 ns is half a Nexus cycle.
        args = self.ARGS[:-1] + ["1"]
        with pytest.raises(SystemExit, match=r"at least one Nexus cycle \(2000 ps\)"):
            main(args)

    def test_report_rejects_invalid_document(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "repro-metrics"}))
        assert main(["report", str(bad)]) == 1
        assert "invalid metrics document" in capsys.readouterr().out

    def test_report_missing_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["report", str(tmp_path / "nope.json")])

    def test_metrics_out_without_telemetry_still_validates(self, capsys, tmp_path):
        import json

        path = tmp_path / "plain.json"
        assert main(["run", "wait-chain", "--rows", "3", "--cols", "4",
                     "--workers", "2", "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["telemetry"] is None
        assert main(["report", str(path)]) == 0
        assert "telemetry: off" in capsys.readouterr().out

    def test_sweep_profile_attaches_kernel_stats(self, capsys, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        assert main(["sweep", "wait-chain", "--rows", "4", "--cols", "6",
                     "--spin-ns", "500", "--workers", "4",
                     "--cores", "1,2", "--profile",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kernel profile [" in out
        payload = json.loads(path.read_text())
        for row in payload["rows"]:
            assert row["sim"]["events_processed"] > 0
            assert "wall_seconds" in row["sim"]

    def test_shard_sweep_profile_attaches_kernel_stats(self, capsys, tmp_path):
        import json

        path = tmp_path / "shards.json"
        assert main(["sweep", "random", "--tasks", "120", "--workers", "4",
                     "--shards", "1,2", "--no-contention", "--profile",
                     "--json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert all(r["sim"]["events_processed"] > 0 for r in payload["rows"])

    def test_sweep_without_profile_keeps_rows_clean(self, capsys, tmp_path):
        import json

        path = tmp_path / "plain-sweep.json"
        assert main(["sweep", "wait-chain", "--rows", "4", "--cols", "6",
                     "--spin-ns", "500", "--workers", "4",
                     "--cores", "1,2", "--json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert all("sim" not in r for r in payload["rows"])

    def test_telemetry_window_rejects_negative(self):
        with pytest.raises(SystemExit, match="telemetry_window"):
            main(["run", "wait-chain", "--rows", "3", "--cols", "4",
                  "--workers", "2", "--telemetry-window", "-5"])
