"""Gaussian elimination with partial pivoting workload (Fig. 5, Table II).

Task graph for an ``n x n`` matrix, after Veldhorst [16] as used by the
paper:

* For every elimination step ``i`` (column, 1-based, ``i = 1..n-1``):

  - a **pivot task** ``T(i,i)``: searches column ``i`` (rows ``i..n``) for
    the pivot, swaps, scales row ``i``.  Weight ``n + 1 - i`` FLOPs.
    Parameters: ``inout row_i``, ``input row_j`` for ``j = i+1..n``.
  - **update tasks** ``T(j,i)`` for ``j = i+1..n``: eliminate column ``i``
    of row ``j``.  Weight ``n - i`` FLOPs.
    Parameters: ``input row_i``, ``inout row_j``.

* Task count: ``(n^2 + n - 2) / 2`` (Table II: 31374 for n=250, ... ,
  12502499 for n=5000).

This parameterisation reproduces exactly the Fig. 5 phase structure — after
``T(1,1)`` the ``n-1`` updates run in parallel; the next pivot ``T(2,2)``
reads every row the updates wrote, so only one task is ready; and so on —
while also exercising every Nexus++ spill mechanism:

* pivot tasks have up to ``n - i + 1`` parameters  -> **dummy tasks**;
* up to ``n - i`` update tasks wait on ``row_i``    -> **dummy entries**;
* updates *write* rows the previous pivot *read*    -> **WAR hazards** via
  the writer-waits flag.

Task durations follow §V: each worker core sustains 2 GFLOPS, and a task of
weight W reads W floating-point numbers from memory and writes the same
number back (4-byte floats, whole 128-byte chunks).
"""

from __future__ import annotations

from typing import Optional

from ..config import SystemConfig
from .trace import AccessMode, TaskTrace, TraceTask, param_pool

__all__ = [
    "gaussian_task_count",
    "gaussian_mean_weight",
    "gaussian_trace",
    "TABLE_II_SIZES",
]

#: Matrix sizes in the paper's Table II.
TABLE_II_SIZES = (250, 500, 1000, 3000, 5000)

_PIVOT_FUNC = 0x6E01
_UPDATE_FUNC = 0x6E02
_FLOAT_BYTES = 4


def gaussian_task_count(n: int) -> int:
    """Total task count for an ``n x n`` matrix: ``(n^2 + n - 2) / 2``."""
    if n < 2:
        raise ValueError(f"matrix dimension must be >= 2, got {n}")
    return (n * n + n - 2) // 2


def gaussian_mean_weight(n: int) -> float:
    """Average task weight in FLOPs over the whole task graph.

    Table II quotes 167 / 334 / 667 / 2012 / 3523 FLOPs for
    n = 250 / 500 / 1000 / 3000 / 5000.
    """
    total = 0
    for i in range(1, n):
        total += (n + 1 - i) + (n - i) * (n - i)
    return total / gaussian_task_count(n)


def _row_addr(j: int, n: int) -> int:
    """Base address of matrix row ``j`` (1-based)."""
    row_bytes = n * _FLOAT_BYTES
    return 0x1000000 + (j - 1) * row_bytes


def gaussian_trace(
    n: int,
    config: Optional[SystemConfig] = None,
    name: Optional[str] = None,
) -> TaskTrace:
    """Build the Gaussian-elimination trace for an ``n x n`` matrix.

    ``config`` supplies the core FLOP rate and memory chunk timing used to
    convert weights into durations (defaults to the Table IV machine).
    """
    cfg = config or SystemConfig()
    if n < 2:
        raise ValueError(f"matrix dimension must be >= 2, got {n}")
    row_bytes = n * _FLOAT_BYTES

    def times(weight: int) -> tuple[int, int, int]:
        exec_time = cfg.exec_time_for_flops(weight)
        io_bytes = weight * _FLOAT_BYTES
        return (
            exec_time,
            cfg.memory_time_for_bytes(io_bytes),
            cfg.memory_time_for_bytes(io_bytes),
        )

    # Every row is named as ``in`` or ``inout`` over and over; build each
    # shared Param once.  Index 0 is unused so rows keep their 1-based id.
    param = param_pool()
    row_in = [None] + [
        param(_row_addr(j, n), row_bytes, AccessMode.IN) for j in range(1, n + 1)
    ]
    row_inout = [None] + [
        param(_row_addr(j, n), row_bytes, AccessMode.INOUT) for j in range(1, n + 1)
    ]

    tasks: list[TraceTask] = []
    tid = 0
    for i in range(1, n):
        # Pivot task T(i,i): find/swap/scale pivot of column i.
        weight = n + 1 - i
        exec_time, read_time, write_time = times(weight)
        params = (row_inout[i], *row_in[i + 1:])
        tasks.append(
            TraceTask(tid, _PIVOT_FUNC, params, exec_time, read_time, write_time)
        )
        tid += 1
        # Update tasks T(j,i), j = i+1..n.
        weight = n - i
        exec_time, read_time, write_time = times(weight)
        pivot_row = row_in[i]
        for j in range(i + 1, n + 1):
            tasks.append(
                TraceTask(
                    tid,
                    _UPDATE_FUNC,
                    (pivot_row, row_inout[j]),
                    exec_time,
                    read_time,
                    write_time,
                )
            )
            tid += 1

    assert tid == gaussian_task_count(n)
    return TaskTrace(
        name or f"gaussian-{n}",
        tasks,
        meta={
            "pattern": "gaussian",
            "n": n,
            "task_count": tid,
            "mean_weight_flops": gaussian_mean_weight(n),
            "core_gflops": cfg.core_gflops,
        },
    )
