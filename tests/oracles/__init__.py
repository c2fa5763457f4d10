"""Seed oracles: plain-loop versions of the program's kernels and schedulers.

Each module re-implements one part of the program the simplest way, with
Python loops and no vectorized code, so the tests can compare the
program's results against it exactly.
"""
