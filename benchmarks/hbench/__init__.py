"""Benchmark harness for the hermix command line (see ../README.md)."""
