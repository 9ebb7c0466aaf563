"""Nexus++ simulator benchmark: one workload, repeated for ``--seconds``.

Run from the repository root::

    python3 perfbench/run.py --workload paper-gauss --seed 1 --seconds 40 --trace 0

One iteration is the whole workload, one step at a time in this process:
set-up (trace generation, golden task graph, machine config), the
``NexusMachine.run`` simulation, ``verify_against`` the golden graph,
the software-RTS baseline on the same trace, and the Chrome-trace and
metrics-document export.  Iterations repeat (a closed loop of one) until
the next one would end after ``--seconds``.  A fixed reference kernel
is timed between iterations, and each iteration's host times are scaled
to the reference host speed measured just before and after it (see
``reference.py``); a host metric is the median over the iterations.

The last stdout line is one JSON object with ``correct``, ``attempted``
and ``failed`` (tasks) and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  A traced run adds one ``cProfile``'d ``NexusMachine.run``
after the timed loop and writes its spans and profile to ``perfbench/out``.

Modelled numbers (units ``sim_us``/``sim_ns``) are simulated time of an
unvalidated model: the repository holds no hardware reference, so no
error figure is given.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import repro
    from repro import NexusMachine
    from repro.analysis import build_metrics_document, chrome_trace, validate_metrics
    from repro.runtime import build_task_graph, run_software_rts

    import layers
    import reference
    from workloads import DEFAULT_SEED, WORKLOADS
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the simulator from {ROOT / 'src'}: {exc}")
# Measure this checkout's simulator, never an installed copy.
if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: imported {repro.__file__}, not the simulator under {ROOT / 'src'}")

#: Span name -> the span it runs inside (``None``: the iteration itself).
SPAN_PARENTS = {
    "iteration": None,
    "setup": "iteration",
    "traces.generate": "setup",
    "runtime.task_graph": "setup",
    "machine.run": "iteration",
    "machine.verify": "iteration",
    "runtime.software_rts": "iteration",
    "analysis.export": "iteration",
}


@contextmanager
def _span(outcome: dict, name: str):
    start = time.perf_counter()
    yield
    outcome["spans"][name] = (start, time.perf_counter())


def _duration(outcome: dict, name: str) -> float:
    start, end = outcome["spans"][name]
    return end - start


def _host_time(outcomes: list, name: str) -> float:
    """Median over iterations of a span, in reference-host seconds."""
    return statistics.median(_duration(o, name) * o["scale"] for o in outcomes)


def run_iteration(workload, seed: int, outcome: dict) -> None:
    """One instance of the workload; fills ``outcome`` as it goes."""
    with _span(outcome, "setup"):
        with _span(outcome, "traces.generate"):
            trace = workload.make_trace(seed)
        outcome["n_tasks"] = len(trace)
        with _span(outcome, "runtime.task_graph"):
            graph = build_task_graph(trace)
        config = workload.make_config()
    with _span(outcome, "machine.run"):
        run = NexusMachine(config).run(trace)
    with _span(outcome, "machine.verify"):
        problems = run.verify_against(graph)
    with _span(outcome, "runtime.software_rts"):
        sw = run_software_rts(trace, config, graph=graph)
    with _span(outcome, "analysis.export"):
        exported = chrome_trace(run)
        json.dumps(exported)
        doc_problems = validate_metrics(build_metrics_document(run))

    outcome["failed"] = layers.failed_tasks(problems, len(trace))
    checks = [f"verify: {p}" for p in problems[:5]]
    checks += [f"software RTS: {p}" for p in sw.verify_against(graph)[:5]]
    checks += [f"metrics document: {p}" for p in doc_problems]
    flows = exported["otherData"]["n_dependence_flows"]
    if flows != run.stats["dispatch"]["released_tasks"]:
        checks.append(f"chrome trace: {flows} flows for "
                      f"{run.stats['dispatch']['released_tasks']} release edges")
    outcome["checks"] = checks

    hops, outcome["hop_basis"] = layers.hop_samples(run.records, graph)
    outcome["counts"], outcome["max_busy_block"], outcome["bypassed"] = (
        layers.layer_counts(run, sw)
    )
    outcome["modelled"] = {
        "makespan_us": run.makespan / 1e6,
        "hop_ns_p50": layers.percentile(hops, 0.50) / 1000,
        "hop_ns_p99": layers.percentile(hops, 0.99) / 1000,
        "hw_over_sw_efficiency": run.parallel_efficiency() / sw.parallel_efficiency(),
        "hop_samples": len(hops),
        "schedule_digest": layers.schedule_digest(run.records),
    }


def measure(workload, seed: int, seconds: float) -> list:
    """Repeat the workload until the next iteration would overrun."""
    outcomes = []
    start = time.perf_counter()
    ref_before = reference.time_kernel()
    while True:
        outcome = {"n_tasks": 1, "spans": {}}
        try:
            with _span(outcome, "iteration"):
                run_iteration(workload, seed, outcome)
        except Exception:
            # A run that raises fails all its tasks; the benchmark goes on.
            traceback.print_exc()
            outcome["raised"] = True
            outcome["failed"] = outcome["n_tasks"]
        # Collect this iteration's garbage outside the timed spans.
        gc.collect()
        ref_after = reference.time_kernel()
        outcome["ref_s"] = (ref_before + ref_after) / 2
        outcome["scale"] = reference.NOMINAL_S / outcome["ref_s"]
        ref_before = ref_after
        outcomes.append(outcome)
        elapsed = time.perf_counter() - start
        if elapsed * (len(outcomes) + 1) / len(outcomes) > seconds:
            return outcomes


def profile_run(workload, seed: int) -> tuple:
    """One ``NexusMachine.run`` under cProfile: (result, wall seconds, profile)."""
    trace = workload.make_trace(seed)
    machine = NexusMachine(workload.make_config())
    profile = cProfile.Profile()
    gc.collect()
    start = time.perf_counter()
    profile.enable()
    result = machine.run(trace)
    profile.disable()
    return result, time.perf_counter() - start, profile


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]

    outcomes = measure(workload, args.seed, args.seconds)
    ok = [o for o in outcomes if not o.get("raised")]
    attempted = sum(o["n_tasks"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    problems = []
    if len(ok) < len(outcomes):
        problems.append(f"{len(outcomes) - len(ok)} of {len(outcomes)} iterations raised")
    for o in ok:
        problems += o["checks"]
    # Modelled values and counts must repeat exactly for the same code.
    for o in ok[1:]:
        moved = sorted(
            k for part in ("modelled", "counts")
            for k, v in o[part].items() if ok[0][part][k] != v
        )
        if moved:
            problems.append(f"modelled values differ between repetitions: {moved}")
            break

    env = environment()
    seed_note = args.seed if workload.seeded else f"{args.seed} (seed-free workload)"
    print(f"perfbench: workload={workload.name} seed={seed_note} "
          f"iterations={len(outcomes)} python={env['python']} "
          f"nproc={env['nproc']} kernel={env['kernel']}")
    refs = [o["ref_s"] for o in outcomes]
    print(f"perfbench: reference kernel median {statistics.median(refs):.4f} s, "
          f"range {min(refs):.4f}-{max(refs):.4f} s (nominal {reference.NOMINAL_S} s)")

    metrics = {}
    if ok:
        for name in ("setup", "machine.run"):
            times = [_duration(o, name) for o in ok]
            print(f"perfbench: {name}_s raw median {statistics.median(times):.4f}, "
                  f"reference-host median {_host_time(ok, name):.4f}, raw per "
                  f"iteration {[round(t, 4) for t in times]}")
        first = ok[0]["modelled"]
        print(f"perfbench: tasks={ok[0]['n_tasks']} schedule digest "
              f"{first['schedule_digest']} sim.events_per_task "
              f"{ok[0]['counts']['sim.events_per_task']:.4f}")
        print(f"perfbench: hop samples {first['hop_samples']} over "
              f"{ok[0]['hop_basis']} edges; busiest Maestro block "
              f"{ok[0]['max_busy_block']}; bypassed (reported as 0): "
              f"{', '.join(ok[0]['bypassed']) or 'none'}")
        if args.trace:
            metrics = per_layer_metrics(workload, args.seed, ok, problems, env)
        else:
            metrics = {
                "sim_tasks_per_s": statistics.median(
                    o["n_tasks"] / (_duration(o, "machine.run") * o["scale"]) for o in ok
                ),
                "wall_s": _host_time(ok, "iteration"),
                "setup_s": _host_time(ok, "setup"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "verified_task_frac": 1 - failed / attempted,
                **{k: first[k] for k in
                   ("makespan_us", "hop_ns_p50", "hop_ns_p99", "hw_over_sw_efficiency")},
            }
        names = [m["name"] for m in listed]
        if sorted(metrics) != sorted(names):
            sys.exit(f"perfbench: computed metrics {sorted(metrics)} "
                     f"do not match BENCHMARK.json {sorted(names)}")
    else:
        problems.append("no iteration completed")

    for p in problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed if m["name"] in metrics},
    }))
    return 0


def per_layer_metrics(workload, seed: int, ok: list, problems: list, env: dict) -> dict:
    """Span medians, modelled counts, and the profiled run's self-time shares."""
    first = ok[0]["modelled"]
    metrics = {
        f"{name}_s": _host_time(ok, name)
        for name in SPAN_PARENTS if name not in ("iteration", "setup")
    }
    metrics["host.reference_s"] = statistics.median(o["ref_s"] for o in ok)
    metrics.update(ok[0]["counts"])

    result, traced_wall, profile = profile_run(workload, seed)
    if layers.schedule_digest(result.records) != first["schedule_digest"]:
        problems.append("the profiled run's schedule differs from the timed runs'")
    shares = layers.self_time_shares(profile)
    metrics.update((f"{m}.self_frac", share) for m, share in shares.items())
    metrics["trace.overhead_x"] = traced_wall / statistics.median(
        _duration(o, "machine.run") for o in ok
    )

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    top = sorted(pstats.Stats(profile).stats.items(), key=lambda kv: -kv[1][2])[:25]
    (out / f"{workload.name}-seed{seed}.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "environment": env,
        "schedule_digest": first["schedule_digest"],
        "max_busy_block": ok[0]["max_busy_block"],
        "bypassed": ok[0]["bypassed"],
        "spans": [
            {"iteration": i, "name": name, "parent": SPAN_PARENTS[name],
             "start": start, "end": end}
            for i, o in enumerate(ok) for name, (start, end) in o["spans"].items()
        ],
        "profile_top_self_s": [
            {"function": f"{f}:{line}({func})", "self_s": stats[2], "calls": stats[1]}
            for (f, line, func), stats in top
        ],
        "metrics": metrics,
    }, indent=1))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
