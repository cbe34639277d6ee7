"""Benchmark of the production half: batch sweep, open-loop serving, cached HTTP serving."""
