"""The work budget: each command counts the units of work it asks for by
arithmetic before any work starts, and require refuses (exit 2 from the
CLI) a prediction past 60 s of one core or 256 MB held at once.  COSTS is
each unit's marginal (nanoseconds, bytes held), about the largest that
scripts/unit_costs.py measured on a 2-core Intel Xeon, Python 3.11.7."""

from __future__ import annotations

TIME_BUDGET_S = 60
MEMORY_BUDGET_MB = 256
COSTS = {
    "lift weights": (1300, 270),  # e*f*d per certificate: built, written, verified
    "matrix entries": (1800, 390),  # n*k; one column costs the most per entry
    "sweep instances": (35000, 260),  # apart from its weights; most at d = 7, e = 1
    "report rows": (3000, 680),
    "cells": (60000, 1500),  # held with their block slices until the sweep ends
    "oracle group elements": (120, 40),  # numpy arrays of M entries per b
    "integers tested for primality": (3800, 0),  # near 2^64
}


def _num(x: int, per: int = 1) -> str:
    # float() overflows near 1e308, and str() of a long int past 4300 digits
    return f"{x / per:.4g}" if x < 10 ** 300 * per else "over 1e300"


def require(work: dict[str, int], held: dict[str, int] | None = None) -> None:
    """Refuse work past the budget: work counts the units that a call
    does, held (by default the same) those that it holds at its peak."""
    held = work if held is None else held
    ns = sum(n * COSTS[unit][0] for unit, n in work.items())
    nbytes = sum(n * COSTS[unit][1] for unit, n in held.items())
    if ns > TIME_BUDGET_S * 10 ** 9 or nbytes > MEMORY_BUDGET_MB * 10 ** 6:
        units = ", ".join(f"{_num(n)} {unit}" for unit, n in work.items() if n)
        raise ValueError(f"{units} predict {_num(ns, 10 ** 9)} s and "
                         f"{_num(nbytes, 10 ** 6)} MB, past the work budget of "
                         f"{TIME_BUDGET_S} s and {MEMORY_BUDGET_MB} MB")
