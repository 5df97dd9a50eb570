"""Result formatting and CDF helpers for the benchmark harness."""
