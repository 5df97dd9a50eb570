"""run.summary and compare.py verdicts on hand-made samples."""

import compare
from run import summary


def metric(*cells):
    return summary({str(i): list(samples) for i, samples in enumerate(cells)})


def test_reported_value_is_the_median_over_the_cells_medians():
    m = metric([5.0, 1.0, 3.0], [2.0], [9.0, 7.0])
    assert (m["value"], m["q1"], m["q3"]) == (3.0, 2.0, 8.0)
    assert metric([7.0]) == {"value": 7.0, "q1": 7.0, "q3": 7.0, "cells": {"0": [7.0]}}


def test_verdicts_rest_on_the_cells_compared_pairwise():
    # Cells differ from each other far more than the two runs do.
    a = metric([1.00, 1.02], [2.00], [3.00], [4.00])
    assert compare.verdict(a, metric([1.01], [2.02], [2.98], [4.00]), 0.10, "lower")[0] == "same"
    assert compare.verdict(a, metric([1.25], [2.40], [3.70], [4.90]), 0.10, "lower")[0] == "worse"
    assert compare.verdict(a, metric([0.80], [1.60], [2.40], [3.10]), 0.10, "lower")[0] == "better"
    assert compare.verdict(a, metric([0.80], [1.60], [2.40], [3.10]), 0.10, "higher")[0] == "worse"
    noisy = metric([1.3], [1.5], [3.9], [3.0])
    assert compare.verdict(a, noisy, 0.10, "lower")[0] == "unresolved"
    assert compare.verdict(a, summary({"9": [1.0]}), 0.10, "lower")[0] == "unresolved"


def test_identical_simulated_values_are_same_and_any_loss_beyond_bound_is_worse():
    a = metric([22.5], [30.0])
    assert compare.verdict(a, metric([22.5], [30.0]), 0.01, "lower") == ("same", 0.0, 0.0)
    assert compare.verdict(a, metric([23.0], [30.6]), 0.01, "lower")[0] == "worse"
    assert compare.verdict(a, metric([22.0], [29.4]), 0.01, "lower")[0] == "better"
