"""Integer kernels for the rational sweeps, in plain Python.

``_pure`` holds the per-pair predicates (best_flag, near_flag,
witness_flag), which are the reference, and the per-alpha candidate sets
built on them (best_set, near_set, witness_set), which ``verify_sweep``
runs on.  ``backend_name`` names the kernel in run reports.
"""

from __future__ import annotations


def backend_name() -> str:
    return "pure"
