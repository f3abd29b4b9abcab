"""Exact toolkit for line arrangements with many triple points in PG(2, q)."""

__version__ = "0.1.0"
