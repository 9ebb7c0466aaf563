"""H.264 macroblock wavefront workload (Fig. 4a, Listing 1).

Listing 1 of the paper decodes a 1920x1088 frame in 16x16 macroblocks:
``X[120][68]``, i.e. 120 rows of 68 macroblocks, generated row-major.  Each
``decode(left, upright, this)`` call becomes a task with

* ``input``  X[i][j-1]   (left neighbour, same row)
* ``input``  X[i-1][j+1] (up-right neighbour, previous row)
* ``inout``  X[i][j]     (the decoded block itself)

which yields the classic 2:1 wavefront: a task at (i, j) can start at
wavefront step ``2*i + j``, so available parallelism ramps up to roughly
``cols/2`` and back down — the "ramping effect" the paper highlights.
"""

from __future__ import annotations

from typing import Optional

from .timing import H264_TIME_MODEL, TimeModel
from .trace import AccessMode, TaskTrace, TraceTask, param_pool

__all__ = ["h264_wavefront_trace", "wavefront_step", "FRAME_ROWS", "FRAME_COLS"]

#: Full-HD frame geometry from Listing 1 (1920x1088 in 16x16 macroblocks).
FRAME_ROWS = 120
FRAME_COLS = 68

#: Macroblock payload: 16x16 pixels, 1.5 bytes/pixel (YUV420) rounded up to
#: the paper's 128 B memory chunks; only used for Param.size bookkeeping.
_MB_BYTES = 16 * 16 * 4

#: Function-pointer id used for decode() tasks (arbitrary but stable).
DECODE_FUNC = 0xABCD


def _mb_addr(row: int, col: int, cols: int) -> int:
    """Base address of macroblock (row, col); 0x10000 keeps addresses apart
    from other synthetic workloads in mixed traces."""
    return 0x10000 + (row * cols + col) * _MB_BYTES


def wavefront_step(row: int, col: int) -> int:
    """Earliest dataflow step at which block (row, col) can decode."""
    return 2 * row + col


def h264_wavefront_trace(
    rows: int = FRAME_ROWS,
    cols: int = FRAME_COLS,
    time_model: Optional[TimeModel] = None,
    seed: int = 2012,
    name: str = "h264-wavefront",
) -> TaskTrace:
    """Build the Fig. 4(a) wavefront trace (default 120x68 = 8160 tasks)."""
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
            if j > 0:
                params.append(param(_mb_addr(i, j - 1, cols), _MB_BYTES, AccessMode.IN))
            if i > 0 and j < cols - 1:
                params.append(param(_mb_addr(i - 1, j + 1, cols), _MB_BYTES, AccessMode.IN))
            params.append(param(_mb_addr(i, j, cols), _MB_BYTES, AccessMode.INOUT))
            tasks.append(
                TraceTask(
                    tid=tid,
                    func=DECODE_FUNC,
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
        meta={
            "pattern": "wavefront",
            "rows": rows,
            "cols": cols,
            "seed": seed,
            "mean_exec_ps": model.mean_exec,
            "mean_memory_ps": model.mean_memory,
        },
    )
