"""Seed oracles: the simplest versions of parts of the program.

Each module re-implements one part of the program the direct way, so the
tests can compare the program's results against it exactly: plain Python
loops in place of vectorized kernels (``listsched``), the first
implementations of baselines that now skip redundant work (``baselines``),
or the straightforward orchestration a faster path replaced
(``multilevel``).
``cost`` evaluates validity and cost straight from the paper's
definitions, and keeps the per-transfer loop the vectorized
``comm_matrices`` replaced.

The seed walkers the vectorized program replaced live here too, verbatim:

* ``core`` — the list-of-lists DAG kernels, the per-edge/per-step
  validity walker ``schedule_violations_ref`` and the per-predecessor
  classical→BSP numbering;
* ``generators`` — the per-nonzero / per-op DAG generators;
* ``refiners`` — the probe-and-rollback HC and copy-mutate-restore HCcs;
* ``window_ilp`` — the per-variable window ILP model builder;
* ``coarsen`` — the rescan-and-sort coarsener on a dict-of-sets graph.
"""
