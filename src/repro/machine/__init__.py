"""Full-system Task Machine simulator and sweep helpers."""

from .bottleneck import (
    BottleneckReport,
    BottleneckTimeline,
    analyze_bottleneck,
    bottleneck_timeline,
)
from .machine import NexusMachine, run_trace
from .results import RunResult, Scoreboard, TaskRecord
from .sweep import (
    GRID_PRESETS,
    EfficiencyReport,
    GridReport,
    SpeedupCurve,
    efficiency_sweep,
    grid_sweep,
    preset_grid,
    speedup_curve,
    sweep_parameter,
)

__all__ = [
    "NexusMachine",
    "run_trace",
    "RunResult",
    "Scoreboard",
    "TaskRecord",
    "SpeedupCurve",
    "speedup_curve",
    "GRID_PRESETS",
    "preset_grid",
    "GridReport",
    "grid_sweep",
    "sweep_parameter",
    "EfficiencyReport",
    "efficiency_sweep",
    "BottleneckReport",
    "analyze_bottleneck",
    "BottleneckTimeline",
    "bottleneck_timeline",
]
