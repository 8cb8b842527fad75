"""Exhaustive / randomized sweep over field shapes, with verification.

Every cell of the grid is a shape (p, f, e, d, t).  Within a cell the
sweep runs over theta_bar exponents (all of them, or a seeded random
sample), draws determinant exponents forced through the compatibility
check, builds a lift certificate, and verifies the emitted JSON with the
independent verifier.  Each shape's random draws are seeded from
(seed, shape.key), so reports are byte-identical for a fixed seed
regardless of parallelism.

With more than one job, pool workers take contiguous chunks of cells of
about equal instance counts and return each chunk's totals with the rows
it keeps: under record="failures" only failing rows travel back to the
parent, which adds up the totals and joins the kept rows in grid order.
"""

from __future__ import annotations

import os
import random
from dataclasses import asdict, dataclass

from .certio import REPORT_SCHEMA_ID, certificate_to_json
from .errors import InfeasibleError
from .fields import MultChar, digits, is_prime
from .lifting import DetSpec, LocalFieldShape, _lift
from .units import UnitExpr
from .verify import verify_certificate

# Chunks of cells per pool worker: pool.map hands them out as workers come
# free, which evens out what equal instance counts leave uneven (an
# instance costs more as e and d grow), while each task still carries
# many cells.
CHUNKS_PER_WORKER = 16


@dataclass(frozen=True)
class SweepConfig:
    p_values: tuple[int, ...] = (2, 3, 5)
    f_max: int = 2
    e_max: int = 2
    d_max: int = 3
    t_with_p: bool = False  # sweep t = p*(q-1) in addition to t = q-1
    a_bound: int = 10
    thetas_per_cell: int | None = 16  # None = exhaustive over theta_bar
    seed: int = 0
    jobs: int = 1
    max_field_bits: int = 10  # cap p^(f*d) <= 2^max_field_bits
    record: str = "all"  # "all" | "failures"

    def __post_init__(self) -> None:
        if not self.p_values:
            raise ValueError("empty p range")
        for name in ("f_max", "e_max", "d_max", "jobs", "max_field_bits"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.thetas_per_cell is not None and self.thetas_per_cell < 1:
            raise ValueError("thetas_per_cell must be >= 1, or None for every theta_bar")
        if not all(is_prime(p) for p in self.p_values):
            raise ValueError("p_values must all be prime")
        if self.record not in ("all", "failures"):
            raise ValueError(f"unknown record mode {self.record!r}")


def iter_cells(config: SweepConfig) -> list[LocalFieldShape]:
    """The grid's cells in order, each distinct prime of p_values once."""
    cells = []
    cap = 2 ** config.max_field_bits
    # p^f and p^(f*d) only grow with f and d, so both loops stop at the cap
    for p in sorted(set(config.p_values)):
        for f in range(1, config.f_max + 1):
            q = p ** f
            if q > cap:
                break
            for d in range(1, config.d_max + 1):
                if q ** d > cap:
                    break
                ts = [q - 1] + ([p * (q - 1)] if config.t_with_p else [])
                for e in range(1, config.e_max + 1):
                    for t in ts:
                        cells.append(LocalFieldShape(p, f, e, d, t))
    return cells


def _force_compat(
    rng: random.Random, shape: LocalFieldShape, b: tuple[int, ...], bound: int
) -> tuple[int, ...]:
    """Sample determinant exponents |a| <= bound and adjust one entry per
    unramified block so that it meets its J-block of theta_bar's digits b
    in the compatibility congruence."""
    p = shape.p
    # randint(-bound, bound) only calls randrange(-bound, bound + 1): same draws
    randrange, e = rng.randrange, range(shape.e)
    a: list[int] = []
    for J in shape.J_blocks:
        block = [randrange(-bound, bound + 1) for _ in e]
        delta = (sum(b[J]) - sum(block)) % (p - 1)
        block[0] += delta
        # 0 <= delta <= p-2, so one step of p-1 brings block[0] to at most bound-1
        if block[0] > bound and block[0] - (p - 1) >= -bound:
            block[0] -= p - 1
        a.extend(block)
    return tuple(a)


def run_cell(shape: LocalFieldShape, config: SweepConfig) -> list[dict]:
    """All instance rows for one shape; deterministic from (config.seed, shape)."""
    rng = random.Random(f"{config.seed}:{shape.key}")
    big_q = shape.p ** (shape.f * shape.d)
    if config.thetas_per_cell is None or config.thetas_per_cell >= big_q - 1:
        bs = range(big_q - 1)
    else:
        bs = sorted(rng.sample(range(big_q - 1), config.thetas_per_cell))
    field_E = shape.residue_field_E
    psi_unif = UnitExpr.symbol("psi(varpi_F)")
    key = shape.key
    rows = []
    for b in bs:
        theta_bar = MultChar(field_E, b)
        b_digits = digits(theta_bar).digits
        a = _force_compat(rng, shape, b_digits, config.a_bound)
        psi = DetSpec(a, psi_unif)
        row_id = f"{key},b={b}"
        try:
            # one digit expansion per instance: the lift reuses b_digits
            cert = _lift(theta_bar, b_digits, psi, shape)
        except InfeasibleError as exc:
            rows.append(
                {"id": row_id, "pass": False, "violations": [f"infeasible: {exc}"]}
            )
            continue
        ok, violations = verify_certificate(certificate_to_json(cert))
        rows.append({"id": row_id, "pass": ok, "violations": violations})
    return rows


def _run_chunk(
    cells: list[LocalFieldShape], config: SweepConfig
) -> tuple[int, int, list[list[dict]]]:
    """(instances, passed, kept rows per cell) for a run of cells.  Rows are
    dropped in place, so each cell's list keeps the type run_cell gave it
    on its way back from a pool worker (perfbench's tracer rides on it)."""
    instances = passed = 0
    kept = []
    for shape in cells:
        rows = run_cell(shape, config)
        cell_passed = sum(r["pass"] for r in rows)
        instances += len(rows)
        passed += cell_passed
        if config.record == "failures":
            rows[:] = [r for r in rows if not r["pass"]]
        kept.append(rows)
    return instances, passed, kept


def _chunks(
    cells: list[LocalFieldShape], config: SweepConfig, n: int
) -> list[list[LocalFieldShape]]:
    """At most n contiguous runs of cells with about equal instance counts.
    Equal cell counts would not do: the grid's largest fields come last."""
    sizes = [min(c.p ** (c.f * c.d) - 1, config.thetas_per_cell or c.p ** (c.f * c.d))
             for c in cells]
    total, done, start, chunks = sum(sizes), 0, 0, []
    for i, size in enumerate(sizes):
        done += size
        # every size is at least 1, so the last cell closes the n-th run
        if done * n >= total * (len(chunks) + 1):
            chunks.append(cells[start:i + 1])
            start = i + 1
    return chunks


def run_sweep(config: SweepConfig) -> dict:
    """Run the whole grid and assemble a deterministic report."""
    cells = iter_cells(config)
    # the pool forks all its workers at once, so fork no more than there are
    # cells or CPUs this process may run on
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    jobs = min(config.jobs, len(cells), cpus)
    if jobs > 1:
        # imported here, so that no other command pays for multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunks = _chunks(cells, config, jobs * CHUNKS_PER_WORKER)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_chunk, chunks, [config] * len(chunks)))
    else:
        results = [_run_chunk(cells, config)]
    instances = sum(r[0] for r in results)
    passed = sum(r[1] for r in results)
    totals = {"instances": instances, "passed": passed, "failed": instances - passed}
    rows = [row for _, _, kept in results for cell_rows in kept for row in cell_rows]
    return {
        "schema": REPORT_SCHEMA_ID,
        # jobs changes only how the grid is run, so the report leaves it
        # out and is byte-identical for any jobs
        "config": {k: v for k, v in asdict(config).items() if k != "jobs"},
        "instances": rows,
        "totals": totals,
    }
