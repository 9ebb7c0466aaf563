"""Synthetic dependency patterns derived from the H.264 benchmark.

The paper evaluates, besides the wavefront (Fig. 4a), three synthetic
workloads using the same per-task execution/memory times:

* **independent** — no dependencies at all; measures the maximum scalability
  of Nexus++ itself (the 54x / 143x / 221x headline numbers).
* **horizontal** (Fig. 4b) — chains run *along* the generation order: each
  task depends on its left neighbour in a 68-row x 120-column grid.  The
  first task of the next row is 120 positions away in program order, so the
  number of rows resident in the 1K-entry Task Pool (~8) caps parallelism —
  the paper's "at most 8 cores" observation.
* **vertical** (Fig. 4c) — chains run *across* the generation order: each
  task depends on the task directly above it, so every row of 120 tasks is
  fully parallel and the pattern scales well to 64 cores.

Fig. 4 draws the grid 120 wide by 68 tall; the horizontal/vertical patterns
use that orientation (chains of length 120 / width 120) while the wavefront
follows Listing 1's 120x68 loop nest.  Both contain 8160 tasks.
"""

from __future__ import annotations

from typing import Optional

from .timing import H264_TIME_MODEL, TimeModel
from .trace import AccessMode, TaskTrace, TraceTask, param_pool

__all__ = [
    "independent_trace",
    "horizontal_chains_trace",
    "vertical_chains_trace",
    "GRID_ROWS",
    "GRID_COLS",
]

#: Fig. 4(b)/(c) grid orientation: 68 rows of 120 blocks.
GRID_ROWS = 68
GRID_COLS = 120

_BLOCK_BYTES = 16 * 16 * 4
_FUNC = 0xBEEF


def _addr(row: int, col: int, cols: int) -> int:
    return 0x4000000 + (row * cols + col) * _BLOCK_BYTES


def independent_trace(
    n_tasks: int = GRID_ROWS * GRID_COLS,
    n_params: int = 3,
    time_model: Optional[TimeModel] = None,
    seed: int = 2012,
    name: str = "independent",
) -> TaskTrace:
    """Tasks with disjoint parameter addresses: zero dependencies.

    Each task gets ``n_params`` parameters at unique addresses, first one
    ``inout``, rest ``in``.  The default of 3 matches the H.264 decode
    tasks this benchmark is derived from (left, up-right, this) and keeps
    the address working set of a full 1K-task window (3K addresses) inside
    the 4K-entry Dependence Table, as the paper's headline runs require.
    """
    if n_tasks < 1:
        raise ValueError("need at least one task")
    if n_params < 1:
        raise ValueError("need at least one parameter per task")
    model = time_model or H264_TIME_MODEL
    exec_t, read_t, write_t = model.sample(n_tasks, seed)
    param = param_pool()
    tasks = []
    for tid in range(n_tasks):
        base = 0x8000000 + tid * n_params * _BLOCK_BYTES
        params = tuple(
            param(
                base + k * _BLOCK_BYTES,
                _BLOCK_BYTES,
                AccessMode.INOUT if k == 0 else AccessMode.IN,
            )
            for k in range(n_params)
        )
        tasks.append(
            TraceTask(
                tid=tid,
                func=_FUNC,
                params=params,
                exec_time=int(exec_t[tid]),
                read_time=int(read_t[tid]),
                write_time=int(write_t[tid]),
            )
        )
    return TaskTrace(
        name,
        tasks,
        meta={"pattern": "independent", "n_tasks": n_tasks, "seed": seed},
    )


def _grid_trace(
    rows: int,
    cols: int,
    pattern: str,
    time_model: Optional[TimeModel],
    seed: int,
    name: str,
) -> TaskTrace:
    if rows < 1 or cols < 1:
        raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
    model = time_model or H264_TIME_MODEL
    n = rows * cols
    exec_t, read_t, write_t = model.sample(n, seed)
    param = param_pool()
    tasks = []
    tid = 0
    for i in range(rows):
        for j in range(cols):
            params = []
            if pattern == "horizontal" and j > 0:
                params.append(param(_addr(i, j - 1, cols), _BLOCK_BYTES, AccessMode.IN))
            elif pattern == "vertical" and i > 0:
                params.append(param(_addr(i - 1, j, cols), _BLOCK_BYTES, AccessMode.IN))
            params.append(param(_addr(i, j, cols), _BLOCK_BYTES, AccessMode.INOUT))
            tasks.append(
                TraceTask(
                    tid=tid,
                    func=_FUNC,
                    params=tuple(params),
                    exec_time=int(exec_t[tid]),
                    read_time=int(read_t[tid]),
                    write_time=int(write_t[tid]),
                )
            )
            tid += 1
    return TaskTrace(
        name,
        tasks,
        meta={"pattern": pattern, "rows": rows, "cols": cols, "seed": seed},
    )


def horizontal_chains_trace(
    rows: int = GRID_ROWS,
    cols: int = GRID_COLS,
    time_model: Optional[TimeModel] = None,
    seed: int = 2012,
) -> TaskTrace:
    """Fig. 4(b): dependency chains parallel to the generation order."""
    return _grid_trace(rows, cols, "horizontal", time_model, seed, "horizontal-chains")


def vertical_chains_trace(
    rows: int = GRID_ROWS,
    cols: int = GRID_COLS,
    time_model: Optional[TimeModel] = None,
    seed: int = 2012,
) -> TaskTrace:
    """Fig. 4(c): dependency chains perpendicular to the generation order."""
    return _grid_trace(rows, cols, "vertical", time_model, seed, "vertical-chains")
