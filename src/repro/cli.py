"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``     print the machine configuration (the paper's Table IV)
``run``      simulate one workload on one machine and report the results
``sweep``    speedup-vs-cores curve for a workload (Fig. 7/8 style); or a
             grid of machine knobs (``--grid KNOB=V1,V2 ...``, one run per
             point, speedup vs the smallest point); or the
             efficiency-vs-granularity curve (HW Maestro vs the
             software-RTS baseline) with ``--efficiency`` on the
             wait-chain workload.  A comma list on --shards, --masters,
             --batch or --retire-depth is a grid axis, and --dispatch,
             --resolve and --check add their preset on/off ablations
``workloads``list the available workload generators
``validate`` check a saved trace file for well-formedness and graph stats
``report``   pretty-print a ``run --metrics-out`` JSON document, or diff
             two of them (makespan, worker utilization, per-signal
             mean/max deltas)

Examples::

    python -m repro info --workers 64
    python -m repro run h264 --workers 16
    python -m repro run gaussian --size 100 --workers 8 --no-contention
    python -m repro run random --tasks 1000 --shards 4 --workers 16
    python -m repro sweep independent --cores 1,4,16,64
    python -m repro sweep random --tasks 1500 --grid maestro_shards=1,2,4 \
        --no-contention
    python -m repro sweep random --tasks 1500 --shards 4 \
        --grid master_cores=1,2,4 submission_batch=1,4,8
    python -m repro sweep random --tasks 1200 --masters 4 --batch 8 \
        --grid maestro_shards=2,4 retire_pipeline_depth=1,2,4,8 --no-contention
    python -m repro sweep random --tasks 1200 --shards 4 --masters 4 --batch 8 \
        --retire-depth 4 --grid kickoff_fast_path=off,on td_cache_entries=0,64 \
        --no-contention --json dispatch.json
    python -m repro sweep random --tasks 1200 --addresses 1024 --shards 4 \
        --masters 8 --batch 8 --retire-depth 4 --td-cache 64 --fast-path \
        --coalesce 8 --spec-kickoff --check --no-contention
    python -m repro run cholesky --tiles 6 --workers 8 --bottleneck
    python -m repro run wait-chain --rows 16 --cols 64 --spin-ns 500 \
        --trace-out run.trace.json
    python -m repro run spatial --grid 5 --steps 4 --dims 3 --workers 16
    python -m repro sweep wait-chain --efficiency --rows 32 --cols 40 \
        --spin-ns 250,1000,4000,16000,64000 --no-contention \
        --json BENCH_efficiency.json
    python -m repro run wait-chain --rows 8 --cols 32 --telemetry-window 50000 \
        --metrics-out run.metrics.json --trace-out run.trace.json
    python -m repro report run.metrics.json
    python -m repro report run.metrics.json baseline.metrics.json
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import sys
from typing import Any, Callable, Dict, Optional

from .analysis import render_table
from .config import SystemConfig
from .machine import (
    analyze_bottleneck,
    efficiency_sweep,
    grid_sweep,
    preset_grid,
    run_trace,
    speedup_curve,
)
from .machine.sweep import GridError, _merge_grids
from .runtime.task_graph import build_task_graph
from .traces import (
    TaskTrace,
    blocked_lu_trace,
    cholesky_trace,
    gaussian_trace,
    h264_wavefront_trace,
    horizontal_chains_trace,
    independent_trace,
    jacobi_stencil_trace,
    pipeline_trace,
    random_trace,
    reduction_tree_trace,
    spatial_decomposition_trace,
    vertical_chains_trace,
    wait_chain_trace,
)

__all__ = ["main", "build_parser", "build_workload", "WORKLOADS"]

#: name -> (builder, description).  Builders accept the parsed namespace.
WORKLOADS: Dict[str, tuple[Callable[[argparse.Namespace], TaskTrace], str]] = {
    "h264": (
        lambda a: h264_wavefront_trace(),
        "H.264 macroblock wavefront, 120x68 (Fig. 4a)",
    ),
    "independent": (
        lambda a: independent_trace(n_tasks=a.tasks or 8160),
        "independent tasks (headline benchmark)",
    ),
    "horizontal": (
        lambda a: horizontal_chains_trace(),
        "horizontal chains (Fig. 4b)",
    ),
    "vertical": (
        lambda a: vertical_chains_trace(),
        "vertical chains (Fig. 4c)",
    ),
    "gaussian": (
        lambda a: gaussian_trace(a.size or 100),
        "Gaussian elimination with partial pivoting (Fig. 5; --size)",
    ),
    "cholesky": (
        lambda a: cholesky_trace(a.tiles or 8),
        "blocked Cholesky factorisation (--tiles)",
    ),
    "blocked-lu": (
        lambda a: blocked_lu_trace(a.tiles or 6),
        "blocked LU factorisation (--tiles)",
    ),
    "jacobi": (
        lambda a: jacobi_stencil_trace(a.grid or 8, a.iterations or 4),
        "2D Jacobi stencil (--grid, --iterations)",
    ),
    "reduction": (
        lambda a: reduction_tree_trace(a.leaves or 64),
        "binary reduction tree (--leaves, power of two)",
    ),
    "pipeline": (
        lambda a: pipeline_trace(a.items or 64, a.stages or 4),
        "streaming pipeline (--items, --stages)",
    ),
    "wait-chain": (
        lambda a: wait_chain_trace(
            a.rows or 16,
            a.cols or 64,
            k_deps=a.deps or 1,
            spin_ns=_single_int("spin-ns", a.spin_ns, 1000),
            seed=a.seed if a.seed is not None else 11,
        ),
        "granularity probe: rows x cols wait-chains of spin_ns tasks "
        "(--rows, --cols, --deps, --spin-ns)",
    ),
    "spatial": (
        lambda a: spatial_decomposition_trace(
            a.grid or 6, a.steps or 4, dims=a.dims or 2
        ),
        "halo-exchange spatial decomposition, 2D/3D Moore neighbourhood "
        "(--grid, --steps, --dims)",
    ),
    "random": (
        lambda a: random_trace(
            n_tasks=a.tasks or 1000,
            n_addresses=a.addresses or 96,
            max_params=6,
            seed=a.seed if a.seed is not None else 7,
            mean_exec=4000,
            mean_memory=200,
        ),
        "random hazard-dense tiny tasks; dependency-resolution bound "
        "(--tasks, --addresses, --seed)",
    ),
}


def _single_int(flag: str, value, default: int) -> int:
    """A --flag that is a comma list in sweeps but a single value in run."""
    if value is None:
        return default
    text = str(value)
    if not text.isdigit() or int(text) < 1:
        raise SystemExit(
            f"--{flag} must be a single positive integer here (a comma "
            f"list is only valid in `sweep --efficiency`); got {value!r}"
        )
    return int(text)


def build_workload(name: str, args: argparse.Namespace) -> TaskTrace:
    try:
        builder, _ = WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; try: {', '.join(sorted(WORKLOADS))}"
        ) from None
    return builder(args)


#: Machine flags shared by info, run and sweep: (flag, SystemConfig knob,
#: kind, help).  ``kind`` is ``int``; ``"ns"`` (an int in ns for a knob
#: kept in ps); ``"count"`` (an int, or a comma list -- a grid axis -- in
#: ``sweep``); a tuple of choices; or, for a switch, the value it sets.
_MACHINE_FLAGS = [
    ("--workers", "workers", int, "worker cores (default 16)"),
    ("--no-contention", "memory_contention", False, "contention-free memory"),
    ("--no-prep", "task_prep_time", 0, "zero master task-prep time"),
    ("--depth", "buffering_depth", int, "Task Controller buffering depth"),
    ("--restricted", "restricted", True, "original-Nexus limits"),
    ("--kernel", "sim_kernel", ("heap", "wheel"),
     "event-scheduler implementation (wheel = default fast kernel, heap = "
     "original baseline; results are identical)"),
    ("--telemetry-window", "telemetry_window", "ns",
     "windowed telemetry sampling period in ns (0/omitted = off); "
     "observe-only — the sampled schedule is cycle-identical to an "
     "unsampled run"),
    ("--shards", "maestro_shards", "count", "Maestro shard count"),
    ("--hop-ns", "shard_hop_time", "ns", "shard hop latency (ns)"),
    ("--masters", "master_cores", "count", "master core count"),
    ("--batch", "submission_batch", "count", "TDs per submission bus transaction"),
    ("--retire-depth", "retire_pipeline_depth", "count",
     "finishes in flight per shard's retire front-end"),
    ("--td-cache", "td_cache_entries", int,
     "per-shard TD prefetch cache entries (0 = off)"),
    ("--fast-path", "kickoff_fast_path", True,
     "enable the kick-off fast path (resolving shard dispatches "
     "became-ready waiters to idle local workers)"),
    ("--prefetch-depth", "td_prefetch_depth", int,
     "Dependence-Counter threshold that triggers a TD prefetch"),
    ("--coalesce", "finish_coalesce_limit", int,
     "finish notifications drained per resolve activation (1 = the "
     "paper's one-at-a-time loop)"),
    ("--spec-kickoff", "speculative_kickoff", True,
     "speculative kick-off: waiter kicks run in per-shard kick units, "
     "overlapping the next notification's table update"),
    ("--check-scatter", "decentralized_check_scatter", True,
     "decentralize the Check Scatter: per-master scatter slices "
     "re-sequenced per destination shard (program order preserved)"),
    ("--check-coalesce", "check_coalesce_limit", int,
     "check probes drained per check-engine activation (1 = the paper's "
     "one-at-a-time Listing 2 loop)"),
]


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _is_switch(kind: Any) -> bool:
    return not (kind is int or kind in ("ns", "count") or isinstance(kind, tuple))


def _add_machine_args(p: argparse.ArgumentParser, lists: bool = False) -> None:
    """Add the machine flags; with ``lists`` a "count" flag also takes a
    comma list (a grid axis)."""
    for flag, _, kind, text in _MACHINE_FLAGS:
        if _is_switch(kind):
            p.add_argument(flag, action="store_true", help=text)
        elif isinstance(kind, tuple):
            p.add_argument(flag, choices=kind, default=None, help=text)
        elif kind == "count" and lists:
            p.add_argument(flag, default=None, help=f"{text}; a comma list is a grid axis")
        else:
            p.add_argument(flag, type=int, default=None, help=text)


def _overrides(args: argparse.Namespace) -> Dict[str, tuple[str, Any]]:
    """``{knob: (flag, value)}`` for every machine flag the user set."""
    from .sim import NS

    out = {}
    for flag, knob, kind, _ in _MACHINE_FLAGS:
        value = getattr(args, _dest(flag), None)
        if value is None or value is False:
            continue
        if _is_switch(kind):
            value = kind
        elif kind == "ns":
            value *= NS
        out[knob] = (flag, value)
    return out


def _config_from(args: argparse.Namespace) -> SystemConfig:
    try:
        return SystemConfig(**{k: v for k, (_, v) in _overrides(args).items()})
    except ValueError as exc:
        # Configuration contradictions (e.g. --retire-depth 4 without a
        # sharded --shards) should read as usage errors, not tracebacks.
        raise SystemExit(str(exc)) from None


def _add_workload_args(p: argparse.ArgumentParser, grid: bool = True) -> None:
    p.add_argument("workload", choices=sorted(WORKLOADS), help="workload name")
    p.add_argument("--tasks", type=int, help="task count (independent)")
    p.add_argument("--size", type=int, help="matrix dimension (gaussian)")
    p.add_argument("--tiles", type=int, help="tile grid side (cholesky/blocked-lu)")
    if grid:  # `sweep` shares --grid with its knob axes
        p.add_argument("--grid", type=int, help="block grid side (jacobi/spatial)")
    p.add_argument("--iterations", type=int, help="iterations (jacobi)")
    p.add_argument("--leaves", type=int, help="leaves (reduction)")
    p.add_argument("--items", type=int, help="items (pipeline)")
    p.add_argument("--stages", type=int, help="stages (pipeline)")
    p.add_argument("--rows", type=int, help="parallel chains (wait-chain)")
    p.add_argument("--cols", type=int, help="tasks per chain (wait-chain)")
    p.add_argument(
        "--deps", type=int,
        help="dependences on the previous column per task (wait-chain)",
    )
    p.add_argument(
        "--spin-ns", default=None,
        help="task body length in ns (wait-chain); a comma list with "
        "`sweep --efficiency` sweeps granularity",
    )
    p.add_argument("--steps", type=int, help="timesteps (spatial)")
    p.add_argument("--dims", type=int, help="grid dimensionality 2|3 (spatial)")
    p.add_argument("--addresses", type=int, help="shared address pool (random)")
    p.add_argument("--seed", type=int, help="trace RNG seed (random)")


def _cmd_info(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    print(render_table(["parameter", "value"], cfg.table_iv(), "System configuration"))
    # Completeness listing: every SystemConfig knob with its effective
    # value, so no knob (present or future) can hide from `info` — the
    # Table IV view above stays paper-shaped and only shows the knobs
    # that shape this machine.
    rows = [
        [f.name, repr(getattr(cfg, f.name))]
        for f in dataclasses.fields(cfg)
    ]
    print()
    print(render_table(["knob", "value"], rows, "All configuration knobs"))
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    rows = [[name, desc] for name, (_, desc) in sorted(WORKLOADS.items())]
    print(render_table(["name", "description"], rows, "Available workloads"))
    return 0


def _run_with_hotspots(trace: TaskTrace, cfg: SystemConfig, top_n: int):
    """Run under cProfile; returns (result, top-N host hotspot rows).

    The profiler only observes the host interpreter — the modelled
    schedule is identical to an unprofiled run (the clock is event
    counts and virtual time, never wall time).
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_trace(trace, cfg)
    finally:
        profiler.disable()
    st = pstats.Stats(profiler)
    st.sort_stats("tottime")
    hotspots = []
    for func in st.fcn_list[:top_n]:
        cc, nc, tt, ct, _callers = st.stats[func]
        filename, line, name = func
        if filename == "~":
            where = name  # builtins print as e.g. "<method 'send' ...>"
        else:
            import os.path

            where = f"{os.path.basename(filename)}:{line}:{name}"
        hotspots.append(
            {
                "function": where,
                "calls": nc,
                "tottime_seconds": round(tt, 4),
                "cumtime_seconds": round(ct, 4),
            }
        )
    return result, hotspots


def _coalescing(stage: dict) -> str:
    """Batch-shape summary of the resolve or check pipeline's coalescing."""
    return (
        f"coalesce {stage['coalesce_limit']}: mean batch "
        f"{stage['mean_batch']:.2f}, {stage['row_merges']} row "
        f"merges ({stage['coalesce_rate']:.0%})"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    trace = build_workload(args.workload, args)
    cfg = _config_from(args)
    print(trace.describe())
    hotspots_n = getattr(args, "profile_hotspots", None)
    if hotspots_n:
        result, hotspots = _run_with_hotspots(trace, cfg, hotspots_n)
        result.stats["sim"]["hotspots"] = hotspots
    else:
        result = run_trace(trace, cfg)
    print(result.summary())
    if getattr(args, "profile", False) or hotspots_n:
        prof = result.stats["sim"]
        print(
            f"kernel profile [{prof['kernel']}]: "
            f"{prof['wall_seconds']:.3f}s wall, "
            f"{prof['events_processed']:,} events "
            f"({prof['events_per_sec']:,}/s), "
            f"{prof['tasks_per_sec']:,} tasks/s, "
            f"peak pending {prof['peak_pending_events']:,}"
        )
    if hotspots_n:
        rows = [
            [
                h["function"],
                f"{h['calls']:,}",
                f"{h['tottime_seconds']:.3f}",
                f"{h['cumtime_seconds']:.3f}",
            ]
            for h in result.stats["sim"]["hotspots"]
        ]
        print(
            render_table(
                ["function", "calls", "tottime (s)", "cumtime (s)"],
                rows,
                f"Host hotspots (cProfile, top {hotspots_n} by tottime)",
            )
        )
    if args.verify:
        graph = build_task_graph(trace)
        problems = result.verify_against(graph)
        if problems:
            print("DEPENDENCE VIOLATIONS:")
            for p in problems[:10]:
                print(" ", p)
            return 1
        print(f"dependence check: OK ({graph.n_edges} edges)")
    if args.bottleneck:
        print(analyze_bottleneck(result, cfg).describe())
    dep = result.stats["dep_table"]
    print(
        f"dummy tasks {result.stats['task_pool']['dummy_tasks_created']}, "
        f"dummy entries {dep['dummy_entries_created']}, "
        f"longest kick-off list {dep['max_kickoff_waiters']}"
    )
    shard_info = result.stats.get("shards")
    if shard_info:
        icn = shard_info["interconnect"]
        print(
            f"shards {shard_info['count']}: "
            f"{icn['messages']} interconnect messages "
            f"({icn['cross_shard_messages']} cross-shard, "
            f"mean {icn['mean_hops']:.2f} hops), "
            f"{shard_info['steals']} stolen dispatches"
        )
        retire = shard_info.get("retire")
        if retire and retire["pipeline_depth"] > 1:
            mean = sum(retire["inflight_mean"]) / len(retire["inflight_mean"])
            print(
                f"retire pipeline: depth {retire['pipeline_depth']}, "
                f"mean in-flight {mean:.2f}, "
                f"max {max(retire['inflight_max'])}, "
                f"pipe-full {max(retire['full_fraction']):.0%} (worst shard)"
            )
    dispatch = result.stats.get("dispatch", {})
    sub = dispatch.get("fast_dispatch")
    if sub:
        cache = sub.get("td_cache")
        bits = []
        if cache:
            bits.append(
                f"TD cache {cache['hits']}/{cache['hits'] + cache['misses']} hits "
                f"({cache['hit_rate']:.0%}), {cache['evictions']} evicted, "
                f"{cache['invalidations']} invalidated at retire"
            )
        if sub["fast_path"]:
            bits.append(
                f"{sub['fast_dispatches']} fast dispatches "
                f"({sub['fast_dispatches_remote']} skipped the home-shard hop)"
            )
        hop = dispatch.get("chain_hop_ns", {})
        print(
            f"fast dispatch: {'; '.join(bits)}; critical chain "
            f"{dispatch.get('chain_depth', 0)} hops x "
            f"{hop.get('total', 0.0):.0f} ns "
            f"(resolve {hop.get('resolve', 0.0):.0f} / forward "
            f"{hop.get('forward', 0.0):.0f} / TD {hop.get('td_transfer', 0.0):.0f} "
            f"/ start {hop.get('start', 0.0):.0f})"
        )
    resolve = result.stats.get("resolve", {})
    if resolve.get("coalesce_limit", 1) > 1 or resolve.get("speculative_kickoff"):
        bits = []
        if resolve["coalesce_limit"] > 1:
            bits.append(_coalescing(resolve))
        if resolve["speculative_kickoff"]:
            bits.append(f"{resolve['speculative_kicks']} speculative kicks")
        print(
            f"resolve pipeline: {'; '.join(bits)}; "
            f"{resolve['batches']} batches / {resolve['updates']} table updates"
        )
    check = result.stats.get("check", {})
    if check.get("decentralized_scatter") or check.get("coalesce_limit", 1) > 1:
        bits = []
        if check["decentralized_scatter"]:
            held = check.get("reseq_max_held") or [0]
            bits.append(
                f"decentralized scatter: max {max(held)} held per "
                f"re-sequencer"
            )
        if check["coalesce_limit"] > 1:
            bits.append(_coalescing(check))
        print(
            f"check pipeline: {'; '.join(bits)}; "
            f"{check['batches']} batches / {check['probes']} probes"
        )
    frontend = result.stats.get("frontend")
    if frontend:
        print(
            f"front-end: {frontend['master_cores']} masters x batch "
            f"{frontend['submission_batch']}, {frontend['merged']} descriptors "
            f"merged in program order, "
            f"stall {result.stats['master_stall_ps'] / 1e6:.3g} us total"
        )
    telemetry = result.telemetry
    if telemetry and telemetry.get("times_ps"):
        from .machine import bottleneck_timeline

        print(
            f"telemetry: {len(telemetry['times_ps'])} windows x "
            f"{telemetry['window_ps'] / 1e6:.4g} us, "
            f"{len(telemetry['signals'])} signals"
        )
        timeline = bottleneck_timeline(result, cfg)
        if timeline is not None:
            print(f"bottleneck timeline: {timeline.strip()}")
    if getattr(args, "metrics_out", None):
        from .analysis import write_metrics

        write_metrics(result, args.metrics_out)
        print(
            f"metrics written to {args.metrics_out}; pretty-print or diff "
            "against a baseline with `python -m repro report`"
        )
    if getattr(args, "trace_out", None):
        from .analysis import write_chrome_trace

        info = write_chrome_trace(result, args.trace_out)
        print(
            f"chrome trace written to {info['path']} ({info['n_events']} "
            f"events, {info['n_dependence_flows']} dependence flows); "
            "load it in chrome://tracing or https://ui.perfetto.dev"
        )
    return 0


_BOOLS = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}


def _grid_axis(token: str) -> tuple[str, list]:
    """Parse one ``--grid KNOB=V1,V2`` token (values in SystemConfig
    units: picoseconds for times, on/off for switches)."""
    knob, _, text = token.partition("=")
    kinds = {f.name: str(f.type) for f in dataclasses.fields(SystemConfig)}
    if knob not in kinds or knob == "notes":
        hint = difflib.get_close_matches(knob, kinds, n=1)
        raise SystemExit(
            f"--grid {token!r}: {knob!r} is not a SystemConfig knob"
            + (f" (did you mean {hint[0]!r}?)" if hint else "")
        )
    kind = kinds[knob]
    parse = (
        _BOOLS.__getitem__ if "bool" in kind
        else int if "int" in kind
        else float if "float" in kind
        else str
    )
    try:
        return knob, [
            None if w == "none" and "Optional" in kind else parse(w)
            for w in text.lower().split(",")
        ]
    except (KeyError, ValueError):
        raise SystemExit(f"--grid {token!r}: values must be {kind}") from None


class _GridTokens(argparse.Action):
    """``--grid`` tokens, extended across repeats.  The token list is
    greedy, so a workload name in it is the positional it swallowed."""

    def __call__(self, parser, namespace, values, option_string=None):
        stray = [v for v in values if v in WORKLOADS]
        if stray:
            parser.error(
                f"--grid took the workload {stray[0]!r} as a grid token; "
                "name the workload before --grid"
            )
        setattr(namespace, self.dest, (getattr(namespace, self.dest) or []) + values)


def _sweep_grids(args: argparse.Namespace) -> list[tuple[str, dict]]:
    """The ``(flag, grid)`` pairs a sweep command line asks for: one axis
    per comma list on a machine flag (a single value stays fixed) and per
    ``--grid`` token; ``--dispatch``/``--resolve``/``--check`` add their
    preset ablation, sized by --td-cache/--coalesce/--check-coalesce."""
    grids = []
    for flag, knob, kind, _ in _MACHINE_FLAGS:
        value = getattr(args, _dest(flag))
        if kind != "count" or value is None:
            continue
        values = _int_values(flag[2:], value)
        if "," in value:
            grids.append((flag, {"axes": {knob: values}}))
            setattr(args, _dest(flag), None)
        else:
            setattr(args, _dest(flag), values[0])
    for dest, size in (("dispatch", "td_cache"), ("resolve", "coalesce"),
                       ("check", "check_coalesce")):
        if getattr(args, dest):
            value = getattr(args, size)
            sizes = {} if value is None else {size: value}
            grids.append((f"--{dest}", preset_grid(dest, **sizes)))
            setattr(args, size, None)
    tokens = args.grid or []
    grids += [("--grid", {"axes": dict([_grid_axis(t)])}) for t in tokens if "=" in t]
    sides = [t for t in tokens if "=" not in t]
    if len(sides) > 1 or not all(t.isdigit() for t in sides):
        raise SystemExit(
            "--grid takes KNOB=V1,V2 axes and at most one integer (the "
            f"jacobi/spatial block-grid side); got {sides}"
        )
    args.grid = int(sides[0]) if sides else None
    if grids and args.cores is not None:
        cores = _int_values("cores", args.cores)
        grids.insert(0, ("--cores", {"axes": {"workers": cores}}))
    return grids


def _cmd_sweep(args: argparse.Namespace) -> int:
    grids = _sweep_grids(args)
    if args.efficiency:
        other = [f for f, _ in grids] + (["--cores"] if args.cores else [])
        if other:
            raise SystemExit(
                f"--efficiency and {', '.join(dict.fromkeys(other))} select "
                "different sweep grids; --efficiency sweeps spin time at a "
                "fixed machine (run the sweep twice for both curves)"
            )
        # Builds its own trace per swept spin time; no shared trace.
        return _efficiency_sweep(args)
    if args.spin_ns is not None and "," in args.spin_ns:
        raise SystemExit(
            "--spin-ns is a trace parameter: a comma list sweeps it only "
            "with `sweep wait-chain --efficiency`"
        )
    trace = build_workload(args.workload, args)
    if grids:
        return _grid_sweep(trace, args, [g for _, g in grids])
    cfg = _config_from(args)
    cores = _int_values("cores", args.cores or "1,2,4,8,16")
    curve = speedup_curve(trace, cores, cfg)
    rows = [[c, round(s, 2), f"{s / c:.2f}"] for c, s in curve.rows()]
    print(render_table(["cores", "speedup", "efficiency"], rows, trace.name))
    print(f"saturation point: ~{curve.saturation_point()} cores")
    if args.profile:
        _print_profile_summary(curve.runs)
    if args.json:
        rows = [{"cores": c, "speedup": round(s, 4)} for c, s in curve.rows()]
        if args.profile:
            for row, run in zip(rows, curve.runs):
                row["sim"] = run.stats.get("sim")
        _write_json(args.json, {"trace": trace.name, "rows": rows})
    return 0


def _grid_sweep(trace: TaskTrace, args: argparse.Namespace, grids: list) -> int:
    """Any machine-knob grid: one run per point, speedup vs the smallest."""
    fixed = _overrides(args)
    base = {knob: value for knob, (_, value) in fixed.items()}
    try:
        grid = _merge_grids(*grids)
        for knob in set(grid["axes"]) & set(fixed):
            raise SystemExit(f"{fixed[knob][0]} sets {knob}, which the grid sweeps")
        report = grid_sweep(trace, base, **grid)
    except GridError as exc:
        # A knob swept twice or an infeasible point (e.g. a sharded-only
        # knob at maestro_shards=1) is a usage error, not a traceback.
        raise SystemExit(str(exc)) from None
    print(report.render())
    _sweep_report_out(args, report, report.runs)
    return 0


def _int_values(flag: str, value) -> list[int]:
    """Parse a --flag value that may be a comma list of positive integers;
    malformed input is a usage error, not a traceback."""
    try:
        out = [int(v) for v in str(value).split(",")]
    except ValueError:
        raise SystemExit(
            f"--{flag} expects an integer or comma list of integers; "
            f"got {value!r}"
        ) from None
    if any(v < 1 for v in out):
        raise SystemExit(f"--{flag} values must be positive; got {value!r}")
    return out


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"report written to {path}")


def _print_profile_summary(runs) -> None:
    """Compact host-kernel cost line for a sweep: total wall and events."""
    profs = [r.stats.get("sim") for r in runs if r.stats.get("sim")]
    if not profs:
        return
    wall = sum(p["wall_seconds"] for p in profs)
    events = sum(p["events_processed"] for p in profs)
    rate = f" ({int(events / wall):,}/s)" if wall > 0 else ""
    print(
        f"kernel profile [{profs[0]['kernel']}]: {len(profs)} runs, "
        f"{wall:.3f}s wall, {events:,} events{rate}"
    )


def _sweep_report_out(args: argparse.Namespace, report, runs) -> None:
    """Shared sweep tail: optional --profile summary, optional --json dump."""
    if args.profile:
        _print_profile_summary(runs)
    if args.json:
        _write_json(args.json, report.to_json_dict(profile=args.profile))


def _efficiency_sweep(args: argparse.Namespace) -> int:
    """Efficiency-vs-granularity curve: HW Maestro against the SW RTS."""
    if args.workload != "wait-chain":
        raise SystemExit(
            "--efficiency sweeps task granularity on the wait-chain probe; "
            "use `sweep wait-chain --efficiency` (--rows/--cols/--deps set "
            "the graph shape, --spin-ns the swept spin times)"
        )
    spins = _int_values("spin-ns", args.spin_ns or "250,1000,4000,16000,64000")
    cfg = _config_from(args)
    report = efficiency_sweep(
        spins,
        cfg,
        rows=args.rows or 32,
        cols=args.cols or 40,
        k_deps=args.deps or 1,
        seed=args.seed if args.seed is not None else 11,
    )
    ms, pct, ns = (lambda v: f"{v / 1e9:.4g}"), (lambda v: f"{v:.1%}"), "{:.0f}".format
    cells = [
        ("spin (ns)", "spin_ns", str),
        ("hw makespan (ms)", "hw_makespan_ps", ms),
        ("sw makespan (ms)", "sw_makespan_ps", ms),
        ("hw eff", "hw_efficiency", pct),
        ("sw eff", "sw_efficiency", pct),
        ("hw/sw", "efficiency_ratio", "{:.2f}".format),
        ("hw ovh ns/task", "hw_overhead_ns_per_task", ns),
        ("sw ovh ns/task", "sw_overhead_ns_per_task", ns),
    ]
    rows = [[fmt(r[key]) for _, key, fmt in cells] for r in report.rows_out()]
    title = f"{report.trace_name} @ {cfg.workers} workers"
    print(render_table([header for header, _, _ in cells], rows, title))
    print()
    print(report.plot())
    _sweep_report_out(args, report, report.hw_runs + report.sw_runs)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Pretty-print one metrics JSON document, or diff two of them."""
    import json

    from .analysis import diff_metrics, render_metrics, validate_metrics

    docs = []
    for path in [args.metrics] + ([args.baseline] if args.baseline else []):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"{path}: cannot read metrics JSON: {exc}") from None
        problems = validate_metrics(doc)
        if problems:
            print(f"{path}: invalid metrics document:")
            for p in problems:
                print(f"  {p}")
            return 1
        docs.append(doc)
    if len(docs) == 1:
        print(render_metrics(docs[0]))
    else:
        print(diff_metrics(docs[0], docs[1]))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .traces.validate import lint_trace

    trace = TaskTrace.load(args.path)
    print(trace.describe())
    graph = build_task_graph(trace)
    print(
        f"edges {graph.n_edges}, roots {len(graph.roots())}, "
        f"critical path {graph.critical_path() / 1e6:.3g} us, "
        f"max parallelism {graph.max_parallelism()}"
    )
    report = lint_trace(trace)
    print(report.summary())
    for err in report.errors:
        print(f"  error: {err}")
    for warn in report.warnings:
        print(f"  warning: {warn}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` command line: every subcommand and flag."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nexus++ reproduction: simulate StarSs workloads on a "
        "hardware task manager",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print the Table IV configuration")
    _add_machine_args(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_wl = sub.add_parser("workloads", help="list workload generators")
    p_wl.set_defaults(func=_cmd_workloads)

    p_run = sub.add_parser("run", help="simulate one workload")
    _add_workload_args(p_run)
    _add_machine_args(p_run)
    p_run.add_argument("--verify", action="store_true", help="check schedule legality")
    p_run.add_argument("--bottleneck", action="store_true", help="attribute the bottleneck")
    p_run.add_argument(
        "--profile", action="store_true",
        help="report host-side kernel performance (wall-clock, events "
        "processed, events/sec, tasks/sec, peak pending events)",
    )
    p_run.add_argument(
        "--profile-hotspots", type=int, nargs="?", const=10, default=None,
        metavar="N",
        help="run under cProfile and print the top N host functions by "
        "total time (default 10); also attached to stats['sim']"
        "['hotspots'] in --metrics-out documents. Observe-only — the "
        "modelled schedule is unchanged",
    )
    p_run.add_argument(
        "--trace-out", default=None,
        help="write the run as Chrome trace-event JSON (open in "
        "chrome://tracing or Perfetto) — observe-only, never perturbs "
        "the schedule",
    )
    p_run.add_argument(
        "--metrics-out", default=None,
        help="write a versioned metrics JSON document (schema_version "
        "1); inspect or diff with `python -m repro report`",
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="speedup curve over core counts, or a grid of machine knobs"
    )
    _add_workload_args(p_sweep, grid=False)
    _add_machine_args(p_sweep, lists=True)
    p_sweep.add_argument(
        "--grid", nargs="+", action=_GridTokens, default=None, metavar="KNOB=V1,V2",
        help="sweep a grid of SystemConfig knobs, one axis per token "
        "(values in config units: ps for times, on/off for switches); "
        "speedups are against the smallest point.  A bare integer token is "
        "the jacobi/spatial block-grid side.  The token list is greedy: "
        "name the workload before --grid",
    )
    p_sweep.add_argument(
        "--cores", default=None,
        help="comma-separated core counts for the speedup curve (default "
        "1,2,4,8,16); beside a grid axis, the grid's workers axis",
    )
    for name, what in (
        ("dispatch", "fast-dispatch ablation (TD cache x kick-off fast path); "
         "--td-cache sizes the cache-on points (default 64)"),
        ("resolve", "staged-resolve ablation (finish coalescing x speculative "
         "kick-off); --coalesce sizes the on points (default 8)"),
        ("check", "decentralized-check ablation (scatter slices x check "
         "coalescing); --check-coalesce sizes the on points (default 8)"),
    ):
        p_sweep.add_argument(f"--{name}", action="store_true", help=f"add the {what}")
    p_sweep.add_argument(
        "--efficiency",
        action="store_true",
        help="sweep task granularity on the wait-chain probe: parallel "
        "efficiency of the HW Maestro vs the software-RTS baseline at "
        "each --spin-ns value (workload must be wait-chain)",
    )
    p_sweep.add_argument(
        "--profile", action="store_true",
        help="print aggregate host-kernel cost and attach each grid "
        "point's kernel profile (stats['sim']) to the --json report",
    )
    p_sweep.add_argument("--json", default=None, help="write the sweep report to a JSON file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser(
        "report",
        help="pretty-print a --metrics-out JSON document, or diff two "
        "(schema-validated; exits 1 on an invalid document)",
    )
    p_report.add_argument("metrics", help="metrics JSON from `run --metrics-out`")
    p_report.add_argument(
        "baseline", nargs="?", default=None,
        help="optional baseline metrics JSON to diff against",
    )
    p_report.set_defaults(func=_cmd_report)

    p_val = sub.add_parser("validate", help="inspect a saved .npz trace")
    p_val.add_argument("path")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
