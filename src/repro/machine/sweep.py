"""Parameter sweeps: speedup curves, machine-knob grids, efficiency curves.

All the paper's figures sweep machine parameters at a fixed workload.
:func:`speedup_curve` is the paper's method (speedup vs worker count
against the 1-worker run); :func:`grid_sweep` runs any grid of
:class:`SystemConfig` knobs against one baseline point, with the scaling
studies as its :data:`GRID_PRESETS` and :func:`sweep_parameter` as a
one-axis grid; :func:`efficiency_sweep` runs the HW Maestro and the
software RTS over task granularity, a fresh trace per point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..analysis.tables import format_value, render_table
from ..config import SystemConfig
from ..traces.trace import TaskTrace
from .machine import NexusMachine
from .results import RunResult

__all__ = [
    "SpeedupCurve",
    "speedup_curve",
    "GRID_PRESETS",
    "preset_grid",
    "GridError",
    "GridReport",
    "grid_sweep",
    "sweep_parameter",
    "EfficiencyReport",
    "efficiency_sweep",
]


@dataclass
class SpeedupCurve:
    """Speedup vs worker count, measured against the 1-worker run.

    Matches the paper's methodology: "the speedup is measured against the
    single core experiment of Nexus++ (double buffering enabled)".
    """

    trace_name: str
    core_counts: List[int]
    speedups: List[float]
    baseline: RunResult
    runs: List[RunResult] = field(default_factory=list)

    def at(self, cores: int) -> float:
        return self.speedups[self.core_counts.index(cores)]

    def peak(self) -> float:
        return max(self.speedups)

    def saturation_point(self, tolerance: float = 0.05) -> int:
        """Smallest core count at or beyond which the curve *stays* within
        ``tolerance`` of the peak speedup.

        A point that merely touches the tolerance band before the curve
        dips again (non-monotone curves do this) is not saturation — the
        whole tail from the returned count onward must sit in the band.
        """
        threshold = self.peak() * (1.0 - tolerance)
        for i, cores in enumerate(self.core_counts):
            if all(s >= threshold for s in self.speedups[i:]):
                return cores
        return self.core_counts[-1]

    def rows(self) -> List[tuple[int, float]]:
        return list(zip(self.core_counts, self.speedups))


def speedup_curve(
    trace: TaskTrace,
    core_counts: Sequence[int],
    config: Optional[SystemConfig] = None,
    baseline_config: Optional[SystemConfig] = None,
) -> SpeedupCurve:
    """Run ``trace`` for every worker count; speedups vs the 1-worker run.

    ``config`` provides all non-worker-count parameters.  The baseline uses
    the same configuration with a single worker (override with
    ``baseline_config`` for e.g. contention-free baselines).
    """
    if not core_counts:
        raise ValueError("need at least one core count")
    base_cfg = (baseline_config or config or SystemConfig()).with_(workers=1)
    baseline = NexusMachine(base_cfg).run(trace)
    cfg = config or SystemConfig()
    runs: List[RunResult] = []
    speedups: List[float] = []
    for cores in core_counts:
        if cores == 1 and base_cfg == cfg.with_(workers=1):
            result = baseline
        else:
            result = NexusMachine(cfg.with_(workers=cores)).run(trace)
        runs.append(result)
        speedups.append(result.speedup_over(baseline))
    return SpeedupCurve(
        trace_name=trace.name,
        core_counts=list(core_counts),
        speedups=speedups,
        baseline=baseline,
        runs=runs,
    )


# ---- the grid engine -----------------------------------------------------------------
# Every scaling study is one loop: vary SystemConfig knobs over a grid, run
# each point, report its speedup over one baseline point beside per-run
# statistics from the one column registry.  Studies are GRID_PRESETS.


class GridError(ValueError):
    """A grid that cannot run: an unknown knob or column, a repeated or
    infeasible point, or two row keys that would clash.  Raised before
    any point runs."""


@dataclass(frozen=True)
class _Column:
    """One named per-run statistic: how to read it and how to print it.

    ``extract(run, baseline_run)`` returns the JSON value stored in a
    report row; ``fmt`` turns that value into a table cell.
    """

    header: str
    extract: Callable[[RunResult, RunResult], Any]
    fmt: Callable[[Any], str] = format_value


def _stat(*path: str, default: Any = 0, digits: Optional[int] = None):
    """Extractor for ``run.stats[path[0]][path[1]]...`` (``default`` when
    any level is absent), rounded to ``digits`` when given."""

    def extract(run: RunResult, base: RunResult) -> Any:
        node = run.stats
        for key in path[:-1]:
            node = node.get(key) or {}
        value = node.get(path[-1], default)
        return value if digits is None or value is None else round(value, digits)

    return extract


def _per_shard(reduce: Callable[[List[Any]], Any], *path: str, default: Any = 0):
    """Extractor reducing a per-shard list stat (``[default]`` when absent)."""
    read = _stat(*path, default=None)
    return lambda run, base: reduce(read(run, base) or [default])


def _busy(keep: Callable[[str], bool]):
    """Peak utilization over the Maestro blocks ``keep`` selects (None if
    none ran)."""

    def extract(run: RunResult, base: RunResult) -> Optional[float]:
        util = run.stats.get("maestro_utilization", {})
        busy = [v for k, v in util.items() if keep(k)]
        return round(max(busy), 4) if busy else None

    return extract


def _busiest(run: RunResult, base: RunResult) -> Optional[str]:
    util = run.stats.get("maestro_utilization", {})
    return max(util, key=util.get) if util else None


def _master_bound(run: RunResult, base: RunResult) -> Optional[float]:
    if run.master_done is None or not run.makespan:
        return None
    return round(run.master_done / run.makespan, 4)


def _us(ps: Optional[int]) -> str:
    return "-" if ps is None else f"{ps / 1e6:.4g}"


def _pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1%}"


_2f = "{:.2f}".format


def _hops(hops: Dict[str, float]) -> str:
    parts = ("resolve", "forward", "td_transfer", "start")
    return "/".join(f"{hops.get(c, 0.0):.0f}" for c in parts)


def _batch_columns(stage: str) -> Dict[str, _Column]:
    """The batch-shape counters the resolve and check pipelines share."""
    rounded = {"default": 0.0, "digits": 4}
    return {
        f"{stage}.mean_batch": _Column(
            "mean batch", _stat(stage, "mean_batch", **rounded), _2f
        ),
        f"{stage}.coalesce_rate": _Column(
            "merge rate", _stat(stage, "coalesce_rate", **rounded), _pct
        ),
        f"{stage}.row_merges": _Column("row merges", _stat(stage, "row_merges")),
    }


#: Every statistic a grid report can carry, by name.  A row stores a
#: column under the part of its name after the last dot
#: (``resolve.mean_batch`` -> ``mean_batch``), whatever else the grid holds.
_COLUMNS: Dict[str, _Column] = {
    "makespan_ps": _Column("makespan (us)", lambda r, b: r.makespan, _us),
    "speedup_vs_baseline": _Column(
        "speedup", lambda r, b: round(b.makespan / r.makespan, 4), _2f
    ),
    "busiest_maestro_block": _Column("busiest block", _busiest),
    "busiest_block_utilization": _Column("block util", _busy(lambda k: True), _pct),
    "interconnect_messages": _Column(
        "icn msgs", _stat("shards", "interconnect", "messages")
    ),
    "cross_shard_messages": _Column(
        "x-shard msgs", _stat("shards", "interconnect", "cross_shard_messages")
    ),
    "steals": _Column("steals", _stat("shards", "steals")),
    "steals_after_forward": _Column(
        "fwd steals", _stat("shards", "steals_after_forward")
    ),
    "master_done_ps": _Column("master done (us)", lambda r, b: r.master_done, _us),
    "master_bound_fraction": _Column("master-bound", _master_bound, _pct),
    "master_stall_ps": _Column("master stall ps", _stat("master_stall_ps")),
    "retire.task_pool_ports": _Column(
        "TP ports", lambda r, b: r.config_notes.get("task_pool_ports")
    ),
    "retire_inflight_mean": _Column(
        "mean in-flight",
        _per_shard(
            lambda v: round(sum(v) / len(v), 4), "shards", "retire", "inflight_mean",
            default=0.0,
        ),
        _2f,
    ),
    "retire_inflight_max": _Column(
        "max in-flight", _per_shard(max, "shards", "retire", "inflight_max")
    ),
    "retire_full_fraction": _Column(
        "pipe full",
        _per_shard(
            lambda v: round(max(v), 4), "shards", "retire", "full_fraction",
            default=0.0,
        ),
        _pct,
    ),
    "chain_depth": _Column("chain depth", _stat("dispatch", "chain_depth")),
    "chain_fraction": _Column(
        "chain frac", _stat("dispatch", "chain_fraction", default=0.0), _pct
    ),
    "chain_hop_ns": _Column(
        "resolve/fwd/TD/start", _stat("dispatch", "chain_hop_ns", default={}), _hops
    ),
    "dominant_chain_component": _Column(
        "dominant hop", _stat("dispatch", "dominant_chain_component", default=None)
    ),
    "td_cache_hit_rate": _Column(
        "cache hits",
        _stat(
            "dispatch", "fast_dispatch", "td_cache", "hit_rate", default=None, digits=4
        ),
        _pct,
    ),
    "fast_dispatches": _Column(
        "fast dispatches", _stat("dispatch", "fast_dispatch", "fast_dispatches")
    ),
    "speculative_kicks": _Column("spec kicks", _stat("resolve", "speculative_kicks")),
    # The scatter block's occupancy: the central sequencer when it runs,
    # else the busiest per-master slice engine.
    "scatter_busy": _Column(
        "scatter busy",
        _busy(lambda k: k == "scatter" or k.endswith(".scatter")),
        _pct,
    ),
    "check_engine_busy": _Column(
        "check busy", _busy(lambda k: k.endswith(".check")), _pct
    ),
    "reseq_max_held": _Column(
        "reseq held", _per_shard(max, "check", "reseq_max_held")
    ),
    **_batch_columns("resolve"),
    **_batch_columns("check"),
}
#: Short row keys for the knobs the presets sweep; any other knob is
#: reported under its own field name.  A grid whose row keys would clash
#: (the resolve and check ablations both report ``coalesce``) is rejected.
_AXIS_LABELS = {
    "maestro_shards": "shards",
    "master_cores": "masters",
    "submission_batch": "batch",
    "retire_pipeline_depth": "depth",
    "td_cache_entries": "td_cache",
    "kickoff_fast_path": "fast_path",
    "finish_coalesce_limit": "coalesce",
    "speculative_kickoff": "speculative",
    "decentralized_check_scatter": "decentralized",
    "check_coalesce_limit": "coalesce",
}


def _ablation(knobs: tuple[str, str], off: tuple, on: tuple) -> Dict[str, Any]:
    """Two-feature on/off ablation: both off, the first alone, the second
    alone, both on."""
    (a0, b0), (a1, b1) = off, on
    return {
        "axes": {knobs[0]: [a0, a1], knobs[1]: [b0, b1]},
        "points": [(a0, b0), (a1, b0), (a0, b1), (a1, b1)],
    }


_RUN = ("makespan_ps", "speedup_vs_baseline")
_BUSIEST = ("busiest_maestro_block", "busiest_block_utilization")
_CHAIN = ("chain_depth", "chain_fraction", "chain_hop_ns", "dominant_chain_component")

#: The columns a grid reports when neither ``columns`` nor a preset
#: covering one of its axes says otherwise.
_BASIC_COLUMNS = _RUN + _BUSIEST

#: Named grids, one per scaling study the benches pin.  Each maker
#: returns ``grid_sweep`` keyword arguments (``axes``, optional
#: ``points``, ``columns``); its parameters size the swept values.
GRID_PRESETS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "shards": lambda shards=(1, 2, 4): {
        "axes": {"maestro_shards": list(shards)},
        "columns": _RUN + _BUSIEST
        + ("interconnect_messages", "cross_shard_messages", "steals"),
    },
    "masters": lambda masters=(1, 2, 4), batch=(1, 4, 8): {
        "axes": {"master_cores": list(masters), "submission_batch": list(batch)},
        "columns": _RUN
        + ("master_done_ps", "master_bound_fraction", "master_stall_ps")
        + _BUSIEST,
    },
    "retire": lambda depths=(1, 2, 4, 8): {
        "axes": {"retire_pipeline_depth": list(depths)},
        "columns": ("retire.task_pool_ports",) + _RUN
        + ("retire_inflight_mean", "retire_inflight_max", "retire_full_fraction")
        + _BUSIEST,
    },
    "dispatch": lambda td_cache=64: {
        **_ablation(
            ("td_cache_entries", "kickoff_fast_path"), (0, False), (td_cache, True)
        ),
        "columns": _RUN + _CHAIN
        + ("td_cache_hit_rate", "fast_dispatches", "steals", "steals_after_forward"),
    },
    "resolve": lambda coalesce=8: {
        **_ablation(
            ("finish_coalesce_limit", "speculative_kickoff"), (1, False), (coalesce, True)
        ),
        "columns": _RUN + _CHAIN
        + ("resolve.mean_batch", "resolve.coalesce_rate", "resolve.row_merges")
        + ("speculative_kicks", "busiest_maestro_block"),
    },
    "check": lambda check_coalesce=8: {
        **_ablation(
            ("decentralized_check_scatter", "check_coalesce_limit"),
            (False, 1),
            (True, check_coalesce),
        ),
        "columns": _RUN
        + ("scatter_busy", "check_engine_busy")
        + ("check.mean_batch", "check.coalesce_rate", "check.row_merges")
        + ("reseq_max_held", "busiest_maestro_block"),
    },
}


def preset_grid(name: str, **sizes: Any) -> Dict[str, Any]:
    """``grid_sweep`` keyword arguments for the named preset grid.

    ``grid_sweep(trace, cfg, **preset_grid("dispatch", td_cache=16))``.
    """
    try:
        make = GRID_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown grid preset {name!r}; try: {', '.join(GRID_PRESETS)}"
        ) from None
    return make(**sizes)


#: knob -> the columns of the preset that sweeps it.
_KNOB_COLUMNS: Dict[str, tuple] = {
    knob: grid["columns"]
    for grid in (make() for make in GRID_PRESETS.values())
    for knob in grid["axes"]
}


def _default_columns(axes: Sequence[str]) -> List[str]:
    """The columns of every preset that sweeps one of ``axes`` (in axis
    order, duplicates dropped), or :data:`_BASIC_COLUMNS` for none."""
    cols = [c for knob in axes for c in _KNOB_COLUMNS.get(knob, _BASIC_COLUMNS)]
    return list(dict.fromkeys(cols))


def _merge_grids(*grids: Mapping[str, Any]) -> Dict[str, Any]:
    """Cross several grids (each ``axes`` plus optional ``points`` and
    ``columns``) into one: the earlier grid's points vary slowest."""
    axes: Dict[str, List[Any]] = {}
    for grid in grids:
        for knob, values in grid["axes"].items():
            if knob in axes:
                raise GridError(f"{knob} is swept by two grids")
            axes[knob] = list(values)
    blocks = [
        grid.get("points") or list(itertools.product(*grid["axes"].values()))
        for grid in grids
    ]
    columns = [
        c for grid in grids for c in grid.get("columns") or _default_columns(grid["axes"])
    ]
    return {
        "axes": axes,
        "points": [sum(combo, ()) for combo in itertools.product(*blocks)],
        "columns": list(dict.fromkeys(columns)),
    }


def _point_config(
    fields: Dict[str, Any], knobs: Sequence[str], point: tuple
) -> SystemConfig:
    """The machine at one grid point: the base fields, the point's
    overrides and the knobs those overrides drag along."""
    over = dict(zip(knobs, point))
    if "task_pool_entries" in over and "tp_free_list_entries" not in over:
        # The free-index list must hold every Task Pool index.
        over["tp_free_list_entries"] = max(
            over["task_pool_entries"], fields["tp_free_list_entries"]
        )
    where = ", ".join(f"{k}={v!r}" for k, v in zip(knobs, point))
    try:
        return SystemConfig(**{**fields, **over})
    except ValueError as exc:
        raise GridError(f"grid point {where}: {exc}") from None


@dataclass
class GridReport:
    """One run per grid point, with speedups against one baseline point.

    ``axes`` maps each swept knob to its values; ``points`` lists the run
    order (coordinates in axis order); ``columns`` names the
    columns each row carries after the point's coordinates.
    """

    trace_name: str
    axes: Dict[str, List[Any]]
    points: List[tuple]
    baseline: tuple
    columns: List[str]
    configs: List[SystemConfig]
    runs: List[RunResult] = field(default_factory=list)

    def at(self, **point: Any) -> RunResult:
        """The run at one point, every axis named: ``at(maestro_shards=2)``."""
        if set(point) != set(self.axes):
            raise KeyError(f"a grid point names every axis: {list(self.axes)}")
        return self.runs[self.points.index(tuple(point[k] for k in self.axes))]

    @property
    def baseline_run(self) -> RunResult:
        return self.runs[self.points.index(self.baseline)]

    @property
    def speedups(self) -> List[float]:
        base = self.baseline_run.makespan
        return [base / r.makespan for r in self.runs]

    def keys(self) -> List[str]:
        """Row keys: one per axis (its short label) then one per column."""
        return [_AXIS_LABELS.get(k, k) for k in self.axes] + [
            c.rpartition(".")[2] for c in self.columns
        ]

    def rows(self) -> List[dict]:
        """One row per point: its coordinates, then every column."""
        keys, base = self.keys(), self.baseline_run
        return [
            dict(zip(keys, point + tuple(_COLUMNS[c].extract(run, base) for c in self.columns)))
            for point, run in zip(self.points, self.runs)
        ]

    def render(self, title: Optional[str] = None) -> str:
        """The rows as an aligned table, each column in its own format."""
        keys = self.keys()
        n = len(self.axes)
        fmts = [_cell] * n + [_COLUMNS[c].fmt for c in self.columns]
        headers = keys[:n] + [_COLUMNS[c].header for c in self.columns]
        body = [[fmt(row[k]) for fmt, k in zip(fmts, keys)] for row in self.rows()]
        base = ", ".join(f"{k}={_cell(v)}" for k, v in zip(keys, self.baseline))
        return render_table(headers, body, f"{title or self.trace_name}; speedup vs {base}")

    def to_json_dict(self, profile: bool = False) -> dict:
        rows = self.rows()
        if profile:
            # Each point's host-kernel profile: the sweep JSON analogue
            # of ``run --profile``.
            for row, run in zip(rows, self.runs):
                row["sim"] = run.stats.get("sim")
        cfg = self.configs[0]
        fixed = {
            key: getattr(cfg, knob)
            for key, knob in (("workers", "workers"), ("shards", "maestro_shards"))
            if knob not in self.axes
        }
        return {
            "trace": self.trace_name,
            **fixed,
            "baseline": dict(zip(self.keys(), self.baseline)),
            "rows": rows,
        }


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    return format_value(value)


def grid_sweep(
    trace: TaskTrace,
    base: Union[SystemConfig, Mapping[str, Any], None],
    axes: Mapping[str, Sequence[Any]],
    points: Optional[Sequence[Sequence[Any]]] = None,
    columns: Optional[Sequence[str]] = None,
) -> GridReport:
    """Run ``trace`` once per grid point and report each against a baseline.

    ``axes`` maps SystemConfig knobs to the values to sweep; the grid is
    their cartesian product (first axis slowest) unless ``points`` lists
    the coordinates to run, in order.  Every point applies its overrides
    to ``base`` -- a :class:`SystemConfig`, or a mapping of overrides to
    the defaults that need only be valid once each point's axes are
    applied -- plus one coupled rule: the Task Pool free list grows with
    a swept ``task_pool_entries``.

    The baseline is the grid's smallest point: every axis at its lowest
    value, the one-unit, features-off machine.  ``columns`` names the
    registered statistics each row carries (default: the columns of every
    preset sweeping one of the axes).  The whole grid is validated before
    any point runs; a bad grid raises :class:`GridError`.
    """
    if not axes or any(len(values) == 0 for values in axes.values()):
        raise GridError("a grid needs at least one axis, each with a value")
    if isinstance(base, SystemConfig):
        fields = dict(vars(base))
    else:
        fields = {**vars(SystemConfig()), **(base or {})}
    unknown = [k for k in axes if k not in fields or k == "notes"]
    if unknown:
        raise GridError(f"cannot sweep {unknown}: not SystemConfig knobs")
    axes = {k: list(v) for k, v in axes.items()}
    knobs = list(axes)
    if points is None:
        points = itertools.product(*axes.values())
    points = [tuple(p) for p in points]
    for p in points:
        if len(p) != len(knobs) or any(v not in axes[k] for k, v in zip(knobs, p)):
            raise GridError(f"grid point {p} does not match the axes {knobs}")
    if len(set(points)) != len(points):
        raise GridError(f"grid repeats a point: {points}")
    columns = list(_default_columns(knobs) if columns is None else columns)
    unknown = [c for c in columns if c not in _COLUMNS]
    if unknown:
        raise GridError(f"unknown columns {unknown}; try: {', '.join(_COLUMNS)}")
    report = GridReport(
        trace_name=trace.name,
        axes=axes,
        points=points,
        baseline=min(points, key=lambda p: [(v is not None, v) for v in p]),
        columns=columns,
        configs=[_point_config(fields, knobs, p) for p in points],
    )
    keys = report.keys()
    clash = sorted({k for k in keys if keys.count(k) > 1})
    if clash:
        raise GridError(
            f"two axes or columns would share the row keys {clash}; "
            "sweep them in separate grids"
        )
    report.runs = [NexusMachine(cfg).run(trace) for cfg in report.configs]
    return report


def sweep_parameter(
    trace: TaskTrace,
    base_config: SystemConfig,
    parameter: str,
    values: Sequence[Any],
    extract: Optional[Callable[[RunResult], Any]] = None,
) -> Dict[Any, Any]:
    """Run the trace once per parameter value; returns ``{value: extracted}``.

    A one-axis :func:`grid_sweep`, used by the Fig. 6 design-space
    exploration (Dependence Table / Task Pool sizes).  ``extract``
    defaults to the whole :class:`RunResult`.
    """
    report = grid_sweep(trace, base_config, {parameter: list(values)}, columns=())
    return {
        point[0]: extract(run) if extract else run
        for point, run in zip(report.points, report.runs)
    }


@dataclass
class EfficiencyReport:
    """Efficiency vs task granularity: HW Maestro against the SW RTS.

    The paper's headline claim restated as a curve.  Each swept point
    runs the *same* wait-chain graph shape with a different per-task
    spin time on (a) the Nexus++ machine and (b) the software-RTS
    baseline, and records the parallel efficiency
    ``sum(exec) / (workers * makespan)`` of both.  At coarse grain the
    two converge near 1.0; as tasks shrink the software runtime's
    microseconds-per-task master cost starves the workers while the
    hardware Maestro keeps them fed — the per-point ``efficiency_ratio``
    quantifies exactly how much longer fine-grained tasking stays
    profitable with hardware dependency resolution.
    """

    trace_name: str
    workers: int
    rows: int
    cols: int
    k_deps: int
    spins_ns: List[int]
    hw_runs: List[RunResult] = field(default_factory=list)
    sw_runs: List[RunResult] = field(default_factory=list)

    @property
    def hw_efficiencies(self) -> List[float]:
        return [r.parallel_efficiency() for r in self.hw_runs]

    @property
    def sw_efficiencies(self) -> List[float]:
        return [r.parallel_efficiency() for r in self.sw_runs]

    @property
    def finest_spin_ns(self) -> int:
        return min(self.spins_ns)

    def ratio_at(self, spin_ns: int) -> float:
        """HW efficiency over SW efficiency at one swept granularity."""
        i = self.spins_ns.index(spin_ns)
        return self.hw_efficiencies[i] / self.sw_efficiencies[i]

    def rows_out(self) -> List[dict]:
        """One report row per swept spin time (used by the CLI and bench)."""
        out = []
        n = self.rows * self.cols
        for spin, hw, sw in zip(self.spins_ns, self.hw_runs, self.sw_runs):
            hw_eff = hw.parallel_efficiency()
            sw_eff = sw.parallel_efficiency()
            # Worker-time not spent executing, folded back to a per-task
            # nanosecond cost: the management overhead each runtime adds.
            hw_over = (hw.makespan * hw.workers * (1 - hw_eff)) / n / 1e3
            sw_over = (sw.makespan * sw.workers * (1 - sw_eff)) / n / 1e3
            out.append(
                {
                    "spin_ns": spin,
                    "n_tasks": n,
                    "hw_makespan_ps": hw.makespan,
                    "sw_makespan_ps": sw.makespan,
                    "hw_efficiency": round(hw_eff, 4),
                    "sw_efficiency": round(sw_eff, 4),
                    "efficiency_ratio": round(hw_eff / sw_eff, 4),
                    "hw_overhead_ns_per_task": round(hw_over, 2),
                    "sw_overhead_ns_per_task": round(sw_over, 2),
                }
            )
        return out

    def to_json_dict(self, profile: bool = False) -> dict:
        rows = self.rows_out()
        if profile:
            # Two machines per grid point: the HW Maestro run and the
            # software-RTS baseline each carry their own kernel profile.
            for row, hw, sw in zip(rows, self.hw_runs, self.sw_runs):
                row["hw_sim"] = hw.stats.get("sim")
                row["sw_sim"] = sw.stats.get("sim")
        return {
            "trace": self.trace_name,
            "workers": self.workers,
            "chain_rows": self.rows,
            "chain_cols": self.cols,
            "k_deps": self.k_deps,
            "finest_spin_ns": self.finest_spin_ns,
            "ratio_at_finest": round(self.ratio_at(self.finest_spin_ns), 4),
            "rows": rows,
        }

    def plot(self, width: int = 64, height: int = 18) -> str:
        """ASCII efficiency-vs-granularity curve (x is log10 of spin ns)."""
        import math

        from ..analysis.ascii_plot import plot_series

        order = sorted(range(len(self.spins_ns)), key=lambda i: self.spins_ns[i])
        hw = self.hw_efficiencies
        sw = self.sw_efficiencies
        return plot_series(
            {
                "hw maestro": [
                    (math.log10(self.spins_ns[i]), hw[i]) for i in order
                ],
                "software rts": [
                    (math.log10(self.spins_ns[i]), sw[i]) for i in order
                ],
            },
            width=width,
            height=height,
            title=f"parallel efficiency vs granularity ({self.workers} workers)",
            xlabel="log10(spin ns)",
            ylabel="efficiency",
        )


def efficiency_sweep(
    spins_ns: Sequence[int],
    config: Optional[SystemConfig] = None,
    rts: Optional[Any] = None,
    rows: int = 32,
    cols: int = 40,
    k_deps: int = 1,
    cv: float = 0.0,
    seed: int = 11,
) -> EfficiencyReport:
    """Sweep wait-chain spin time; run HW machine and SW RTS per point.

    ``rows``/``cols``/``k_deps`` fix the graph shape (and hence the task
    management work per task); ``spins_ns`` sweeps only the task body
    length.  ``rts`` optionally overrides the
    :class:`~repro.runtime.software_rts.SoftwareRTSConfig` costs.
    """
    from ..runtime.software_rts import run_software_rts
    from ..traces.efficiency import wait_chain_trace

    spins = list(spins_ns)
    if not spins:
        raise ValueError("need at least one spin time")
    if any(s < 1 for s in spins):
        raise ValueError("spin times are nanoseconds >= 1")
    cfg = config or SystemConfig()
    hw_runs: List[RunResult] = []
    sw_runs: List[RunResult] = []
    for spin in spins:
        trace = wait_chain_trace(
            rows, cols, k_deps=k_deps, spin_ns=spin, cv=cv, seed=seed
        )
        hw_runs.append(NexusMachine(cfg).run(trace))
        sw_runs.append(run_software_rts(trace, cfg, rts))
    return EfficiencyReport(
        trace_name=f"wait-chain-{rows}x{cols}-k{min(k_deps, rows)}",
        workers=cfg.workers,
        rows=rows,
        cols=cols,
        k_deps=min(k_deps, rows),
        spins_ns=spins,
        hw_runs=hw_runs,
        sw_runs=sw_runs,
    )
