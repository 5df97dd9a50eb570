"""MAC layer: per-TTI RB allocation and the scheduler zoo."""
