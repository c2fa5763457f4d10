"""Seed oracles: the simplest versions of parts of the program.

Each module re-implements one part of the program the direct way, so the
tests can compare the program's results against it exactly: plain Python
loops in place of vectorized kernels (``listsched``), the first
implementations of baselines that now skip redundant work (``baselines``),
or the straightforward orchestration a faster path replaced
(``multilevel``).
``cost`` evaluates validity and cost straight from the paper's
definitions.
"""
