"""Integer kernels for the rational sweeps, in plain Python.

``_pure`` holds the per-alpha candidate sets (best_set, near_set,
witness_set), which ``verify_sweep`` runs on, and the per-pair predicates
(best_flag, near_flag, witness_flag); for (iii) and (iv) a predicate is its
set's record scan stopped early.  ``backend_name`` names the kernel in run
reports.
"""

from __future__ import annotations


def backend_name() -> str:
    return "pure"
