"""Discrete-event simulation engine and end-to-end cell composition."""
