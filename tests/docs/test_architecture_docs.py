"""Docs-sync checks: ARCHITECTURE.md must stay true to the code.

Grep-style assertions (no markdown parser): every backticked knob name in
ARCHITECTURE.md's tables must be a real ``SystemConfig`` field, every
scaling knob the config grew beyond the paper must be documented, and the
entry points (README, ROADMAP) must link the document.
"""

import dataclasses
import re
from pathlib import Path

from repro.config import SystemConfig
from repro.config import presets as presets_mod

REPO = Path(__file__).resolve().parents[2]
ARCHITECTURE = REPO / "ARCHITECTURE.md"

#: Knobs added beyond the paper's Table IV; each PR that adds one must
#: document it in ARCHITECTURE.md's knob table.
SCALING_KNOBS = [
    "maestro_shards",
    "shard_hop_time",
    "master_cores",
    "submission_batch",
    "retire_pipeline_depth",
    "td_cache_entries",
    "td_prefetch_depth",
    "kickoff_fast_path",
    "locality_stealing",
    "finish_coalesce_limit",
    "speculative_kickoff",
    "decentralized_check_scatter",
    "check_coalesce_limit",
    "sim_kernel",
    "telemetry_window",
]


def _doc_text() -> str:
    assert ARCHITECTURE.exists(), "ARCHITECTURE.md missing from the repo root"
    return ARCHITECTURE.read_text()


def _table_knobs(text: str) -> set:
    """Backticked names in the first column of any markdown table row."""
    return set(re.findall(r"^\|\s*`(\w+)`\s*\|", text, flags=re.MULTILINE))


def test_every_documented_knob_is_a_config_field():
    fields = {f.name for f in dataclasses.fields(SystemConfig)}
    documented = _table_knobs(_doc_text())
    unknown = documented - fields
    assert not unknown, (
        f"ARCHITECTURE.md documents knobs that are not SystemConfig fields: "
        f"{sorted(unknown)} — rename the rows or the fields"
    )


def test_every_scaling_knob_is_documented():
    fields = {f.name for f in dataclasses.fields(SystemConfig)}
    missing_fields = [k for k in SCALING_KNOBS if k not in fields]
    assert not missing_fields, f"SCALING_KNOBS out of date: {missing_fields}"
    documented = _table_knobs(_doc_text())
    undocumented = [k for k in SCALING_KNOBS if k not in documented]
    assert not undocumented, (
        f"scaling knobs missing from ARCHITECTURE.md's knob table: "
        f"{undocumented}"
    )


def test_documented_defaults_match_config():
    """Spot-check the defaults column for the always-numeric knobs."""
    cfg = SystemConfig()
    text = _doc_text()
    for knob in ("maestro_shards", "master_cores", "submission_batch",
                 "retire_pipeline_depth", "td_cache_entries",
                 "td_prefetch_depth", "finish_coalesce_limit",
                 "check_coalesce_limit"):
        row = re.search(
            rf"^\|\s*`{knob}`\s*\|\s*([^|]+)\|", text, flags=re.MULTILINE
        )
        assert row, f"no table row for {knob}"
        assert row.group(1).strip() == str(getattr(cfg, knob)), (
            f"ARCHITECTURE.md default for {knob} ({row.group(1).strip()!r}) "
            f"!= SystemConfig default ({getattr(cfg, knob)!r})"
        )


def test_presets_list_is_in_sync():
    text = _doc_text()
    for preset in presets_mod.__all__:
        assert f"`{preset}`" in text, (
            f"preset {preset!r} not mentioned in ARCHITECTURE.md"
        )


def test_entry_points_link_architecture_md():
    assert "ARCHITECTURE.md" in (REPO / "README.md").read_text()
    assert "ARCHITECTURE.md" in (REPO / "ROADMAP.md").read_text()


def test_architecture_names_the_seven_invariants():
    text = _doc_text().lower()
    for phrase in ("merge-unit ordering", "check-scatter per-address",
                   "finish-order per-address", "coherence-by-retirement",
                   "coalesced-resolve ordering",
                   "decentralized-scatter re-sequencing",
                   "kernel event-ordering determinism"):
        assert phrase in text, f"invariant {phrase!r} missing"


def test_architecture_documents_the_simulation_kernel():
    text = _doc_text().lower()
    assert "event ordering contract" in text
    for phrase in ("ready ring", "calendar buckets", "overflow heap"):
        assert phrase in text, f"kernel structure {phrase!r} missing"


def test_architecture_states_the_ownership_notice_rule():
    text = _doc_text().lower()
    assert "ownership notice" in text, (
        "the fast-path ownership-notice rule must be documented"
    )


def test_architecture_documents_the_chrome_trace_export():
    text = _doc_text().lower()
    assert "trace-event" in text
    assert "--trace-out" in text
    for phrase in ("flow events", "released_by", "perfetto",
                   "chrome://tracing", "observe-only"):
        assert phrase in text, f"trace-export detail {phrase!r} missing"


def test_architecture_documents_the_telemetry_subsystem():
    text = _doc_text().lower()
    for phrase in ("telemetry_window", "--telemetry-window", "--metrics-out",
                   "schema_version", "bottleneck timeline", "counter lane",
                   "window-delta read", "host_signals", "workers.busy",
                   "dep_table.kickoff_waiters", "repro report"):
        assert phrase in text, f"telemetry detail {phrase!r} missing"
    # The reproduce recipe (sampled run -> metrics -> report diff) is in
    # the README too.
    readme = (REPO / "README.md").read_text()
    assert "--telemetry-window" in readme
    assert "--metrics-out" in readme
    assert "repro report" in readme


def test_architecture_documents_the_granularity_workloads():
    text = _doc_text().lower()
    for phrase in ("wait-chain", "spatial decomposition",
                   "--efficiency", "parallel_efficiency",
                   "efficiency-vs-granularity"):
        assert phrase in text, f"workload-family detail {phrase!r} missing"
    # The pinned curve is reproducible from the README too.
    readme = (REPO / "README.md").read_text()
    assert "BENCH_efficiency.json" in readme
    assert "bench_efficiency.py" in readme
    assert "--trace-out" in readme
