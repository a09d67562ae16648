"""Deterministic 2D multi-robot foraging simulator with streak-scaled
self-organized task allocation."""

__version__ = "0.1.0"
