"""Randomized traces for property-based and stress testing.

These never appear in the paper; they exist to differentially test the
hardware Dependence Table against the golden software task graph across the
whole hazard space (RAW / WAR / WAW, shared addresses, wide fan-out,
parameter-count spills) — and, since the timing-wheel kernel, to stress the
simulator itself with 100k+-task traces.
"""

from __future__ import annotations

import numpy as np

from .trace import AccessMode, TaskTrace, TraceTask, param_pool

__all__ = ["random_trace"]

_ADDR_BASE = 0x2000000
_SEG_BYTES = 256

#: Access modes indexed by their integer value (the RNG draws 0..2).
_MODES = (AccessMode.IN, AccessMode.OUT, AccessMode.INOUT)

#: Tasks per vectorized generation chunk.  Traces up to this size use the
#: original per-task RNG path, whose stream is pinned: the golden schedule
#: digests replay random traces of up to 3000 tasks, and the benchmark's
#: 8000-task hazard-stack workload is this stream too.  Larger traces use
#: the chunked vectorized path, whose working memory is ``chunk x
#: max_params`` whatever the trace length or address pool.
_CHUNK_TASKS = 8192


def random_trace(
    n_tasks: int,
    n_addresses: int = 16,
    max_params: int = 6,
    seed: int = 0,
    mean_exec: int = 1000,
    mean_memory: int = 500,
    name: str = "random",
) -> TaskTrace:
    """A trace with random parameter lists over a small shared address pool.

    A small pool forces dense RAW/WAR/WAW interactions; ``max_params`` above
    the hardware TD limit exercises dummy tasks.  Deterministic per seed.

    Traces of up to 8192 tasks keep the original generator's RNG stream
    byte for byte, so pinned golden schedules and the 8000-task
    hazard-stack benchmark workload stay valid.  Larger traces are built
    by the streaming chunked generator (vectorized draws, an O(k)-per-task
    sampler without replacement), which gives a different — equally
    deterministic — stream for the same seed.
    """
    if n_tasks < 1:
        raise ValueError("need at least one task")
    if n_addresses < 1:
        raise ValueError("need at least one address")
    if max_params < 1:
        raise ValueError("need at least one parameter")
    rng = np.random.default_rng(seed)
    param = param_pool()
    if n_tasks <= _CHUNK_TASKS:
        tasks = _legacy_tasks(rng, param, n_tasks, n_addresses, max_params,
                              mean_exec, mean_memory)
    else:
        tasks = []
        for start in range(0, n_tasks, _CHUNK_TASKS):
            m = min(_CHUNK_TASKS, n_tasks - start)
            _chunk_tasks(tasks, rng, param, start, m, n_addresses, max_params,
                         mean_exec, mean_memory)
    return TaskTrace(
        name,
        tasks,
        meta={"pattern": "random", "seed": seed, "n_addresses": n_addresses},
    )


def _legacy_tasks(rng, param, n_tasks, n_addresses, max_params, mean_exec,
                  mean_memory) -> list[TraceTask]:
    """The original per-task generator (RNG stream pinned by goldens)."""
    integers, choice = rng.integers, rng.choice
    tasks = []
    for tid in range(n_tasks):
        k = int(integers(1, max_params + 1))
        k = min(k, n_addresses)
        addr_ids = choice(n_addresses, size=k, replace=False).tolist()
        params = tuple(
            param(_ADDR_BASE + a * _SEG_BYTES, _SEG_BYTES, _MODES[integers(0, 3)])
            for a in addr_ids
        )
        exec_time = int(integers(1, 2 * mean_exec + 1))
        read_time = int(integers(0, 2 * mean_memory + 1))
        write_time = int(integers(0, 2 * mean_memory + 1))
        tasks.append(
            TraceTask(tid, 0xF00D, params, exec_time, read_time, write_time)
        )
    return tasks


def sample_without_replacement(rng, ks: np.ndarray, n: int) -> np.ndarray:
    """Row ``i`` holds ``ks[i]`` distinct ids, uniform over ``range(n)``.

    Floyd's algorithm, vectorized across rows: step ``s`` draws one id per
    row from ``[0, n - k + s]`` and keeps it, or takes the range's top if
    the row already holds it.  Each row's first ``ks[i]`` columns are a
    uniform ``ks[i]``-subset; columns past ``ks[i]`` are scratch.  A chunk
    costs ``max(ks)`` draws per row and working memory ``len(ks) x
    max(ks)`` — independent of ``n``.  Requires ``1 <= ks <= n``.
    """
    m = len(ks)
    max_k = int(ks.max())
    ids = np.empty((m, max_k), dtype=np.int64)
    top = n - ks
    for s in range(max_k):
        drawn = rng.integers(0, top + 1)
        held = (ids[:, :s] == drawn[:, None]).any(axis=1)
        ids[:, s] = np.where(held, top, drawn)
        top += 1
    return ids


def _chunk_tasks(tasks, rng, param, start, m, n_addresses, max_params,
                 mean_exec, mean_memory) -> None:
    """Append ``m`` tasks built from whole-chunk vectorized draws.

    All randomness for the chunk is drawn in a handful of array
    operations; the remaining Python loop only assembles the (immutable,
    shared) descriptor objects.
    """
    ks = rng.integers(1, max_params + 1, size=m)
    np.minimum(ks, n_addresses, out=ks)
    addr_rows = sample_without_replacement(rng, ks, n_addresses)
    modes = rng.integers(0, 3, size=addr_rows.shape)
    exec_times = rng.integers(1, 2 * mean_exec + 1, size=m)
    read_times = rng.integers(0, 2 * mean_memory + 1, size=m)
    write_times = rng.integers(0, 2 * mean_memory + 1, size=m)

    addr_rows = (_ADDR_BASE + addr_rows * _SEG_BYTES).tolist()
    modes = modes.tolist()
    ks = ks.tolist()
    exec_times = exec_times.tolist()
    read_times = read_times.tolist()
    write_times = write_times.tolist()
    append = tasks.append
    for i in range(m):
        addrs = addr_rows[i]
        mrow = modes[i]
        params = tuple(
            param(addrs[j], _SEG_BYTES, _MODES[mrow[j]]) for j in range(ks[i])
        )
        append(
            TraceTask(start + i, 0xF00D, params, exec_times[i],
                      read_times[i], write_times[i])
        )
