"""Tests for the comparison-table builder."""

import pytest

from repro import CellSimulation, SimConfig
from repro.analysis.compare import comparison_table


@pytest.fixture(scope="module")
def results():
    out = {}
    for sched in ("pf", "outran"):
        cfg = SimConfig.lte_default(num_ues=3, load=0.6, seed=6)
        out[sched] = CellSimulation(cfg, sched).run(duration_s=1.0)
    return out


class TestComparisonTable:
    def test_contains_all_rows_and_columns(self, results):
        text = comparison_table(results, title="T")
        assert "pf" in text and "outran" in text
        assert "S avg ms" in text and "fairness" in text

    def test_baseline_gain_column(self, results):
        text = comparison_table(results, baseline="pf")
        assert "vs pf" in text
        assert "%" in text

    def test_unknown_baseline_rejected(self, results):
        with pytest.raises(ValueError):
            comparison_table(results, baseline="mt")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            comparison_table({})
