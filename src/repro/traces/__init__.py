"""Workloads: task traces and their generators.

Provides the paper's four benchmark families —

* :func:`h264_wavefront_trace`   (Fig. 4a; Listing 1)
* :func:`horizontal_chains_trace`, :func:`vertical_chains_trace` (Fig. 4b/c)
* :func:`independent_trace`      (maximum-scalability benchmark)
* :func:`gaussian_trace`         (Fig. 5 / Table II)

plus :func:`random_trace` for property-based testing.
"""

from .dense_linalg import blocked_lu_trace, cholesky_task_count, cholesky_trace
from .gaussian import (
    TABLE_II_SIZES,
    gaussian_mean_weight,
    gaussian_task_count,
    gaussian_trace,
)
from .efficiency import spatial_decomposition_trace, wait_chain_trace
from .kernels import jacobi_stencil_trace, pipeline_trace, reduction_tree_trace
from .h264 import FRAME_COLS, FRAME_ROWS, h264_wavefront_trace, wavefront_step
from .random_traces import random_trace
from .synthetic import (
    GRID_COLS,
    GRID_ROWS,
    horizontal_chains_trace,
    independent_trace,
    vertical_chains_trace,
)
from .timing import H264_TIME_MODEL, TimeModel
from .trace import AccessMode, Param, TaskTrace, TraceTask, param_pool

__all__ = [
    "AccessMode",
    "Param",
    "param_pool",
    "TraceTask",
    "TaskTrace",
    "TimeModel",
    "H264_TIME_MODEL",
    "h264_wavefront_trace",
    "wavefront_step",
    "FRAME_ROWS",
    "FRAME_COLS",
    "independent_trace",
    "horizontal_chains_trace",
    "vertical_chains_trace",
    "GRID_ROWS",
    "GRID_COLS",
    "gaussian_trace",
    "gaussian_task_count",
    "gaussian_mean_weight",
    "TABLE_II_SIZES",
    "random_trace",
    "cholesky_trace",
    "cholesky_task_count",
    "blocked_lu_trace",
    "jacobi_stencil_trace",
    "reduction_tree_trace",
    "pipeline_trace",
    "wait_chain_trace",
    "spatial_decomposition_trace",
]
