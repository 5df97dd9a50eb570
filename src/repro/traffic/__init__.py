"""Workload generation: flow-size distributions, arrivals, webpages."""
