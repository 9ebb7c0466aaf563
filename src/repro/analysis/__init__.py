"""Analysis and reporting: metrics, ASCII tables and figure-shaped plots."""

from .ascii_plot import plot_series, plot_speedup_curves
from .gantt import gantt_chart, stage_latency_table
from .metrics import PaperComparison, compare, comparison_row, efficiency
from .tables import format_value, render_table
from .telemetry import (
    MAX_TELEMETRY_WINDOWS,
    TelemetrySampler,
    TelemetryWindowError,
    TimeSeries,
    build_metrics_document,
    diff_metrics,
    render_metrics,
    telemetry_schema,
    validate_metrics,
    write_metrics,
)
from .trace_export import chrome_trace, write_chrome_trace

__all__ = [
    "plot_series",
    "gantt_chart",
    "stage_latency_table",
    "plot_speedup_curves",
    "render_table",
    "format_value",
    "efficiency",
    "comparison_row",
    "PaperComparison",
    "compare",
    "chrome_trace",
    "write_chrome_trace",
    "TelemetrySampler",
    "TelemetryWindowError",
    "MAX_TELEMETRY_WINDOWS",
    "TimeSeries",
    "telemetry_schema",
    "validate_metrics",
    "build_metrics_document",
    "write_metrics",
    "render_metrics",
    "diff_metrics",
]
