"""Tests for CDF helpers and table rendering."""

import pytest

from repro.analysis.cdf import cdf_points, percentile_table
from repro.analysis.tables import format_table, series_table


class TestCdfPoints:
    def test_empty(self):
        assert cdf_points([]) == []

    def test_small_input_exact(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert [v for v, _ in points] == [1.0, 2.0, 3.0]
        assert points[-1][1] == pytest.approx(1.0)

    def test_downsampled_monotone(self):
        points = cdf_points(list(range(1000)), num_points=20)
        assert len(points) <= 21
        values = [v for v, _ in points]
        probs = [p for _, p in points]
        assert values == sorted(values)
        assert probs == sorted(probs)
        assert probs[-1] == pytest.approx(1.0)


class TestPercentileTable:
    def test_values(self):
        table = percentile_table(list(range(101)), percentiles=(50, 99))
        assert table[50] == pytest.approx(50.0)
        assert table[99] == pytest.approx(99.0)

    def test_empty_gives_nans(self):
        table = percentile_table([], percentiles=(50,))
        assert table[50] != table[50]  # NaN


class TestTables:
    def test_format_table_aligned(self):
        text = format_table(
            ["name", "value"], [["pf", 1.5], ["outran", 22.123]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_series_table_columns(self):
        text = series_table(
            "load", [0.4, 0.6], {"pf": [10, 20], "outran": [8, 15]}
        )
        assert "pf" in text and "outran" in text
        assert "0.400" in text

    def test_nan_rendering(self):
        text = format_table(["x"], [[float("nan")]])
        assert "nan" in text


class TestTableFormatting:
    def test_large_and_small_floats(self):
        text = format_table(["v"], [[12345.6], [12.34], [0.1234]])
        assert "12346" in text
        assert "12.3" in text
        assert "0.123" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text
