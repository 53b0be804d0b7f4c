"""Integer kernels for the rational sweeps, in plain Python.

``_pure`` holds the per-pair predicates (best_flag, near_flag, witness_flag,
pair_flags) and the per-alpha candidate sets built on them (best_set,
near_set, witness_set).  ``backend_name`` names the kernel in run reports.
"""

from __future__ import annotations

from . import _pure

active = _pure


def backend_name() -> str:
    return "pure"
