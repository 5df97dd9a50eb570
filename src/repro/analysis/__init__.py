"""Result formatting and CDF helpers for the benchmark harness."""

from repro.analysis.breakdown import (
    aggregate_breakdowns,
    breakdown_report,
    breakdown_table,
    slowest_table,
)
from repro.analysis.cdf import cdf_points, percentile_table
from repro.analysis.compare import comparison_table
from repro.analysis.tables import format_table, series_table
from repro.analysis.validation import (
    validate_doppler_autocorrelation,
    validate_poisson_arrivals,
    validate_rayleigh_power,
)

__all__ = [
    "aggregate_breakdowns",
    "breakdown_report",
    "breakdown_table",
    "slowest_table",
    "cdf_points",
    "comparison_table",
    "percentile_table",
    "format_table",
    "series_table",
    "validate_rayleigh_power",
    "validate_doppler_autocorrelation",
    "validate_poisson_arrivals",
]
