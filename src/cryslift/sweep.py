"""Exhaustive / randomized sweep over field shapes, with verification.

Every cell of the grid is a shape (p, f, e, d, t).  Within a cell the
sweep runs over theta_bar exponents (all of them, or a seeded random
sample), draws determinant exponents forced through the compatibility
check, builds a lift certificate, and verifies the emitted JSON with the
independent verifier.  Each shape's random draws are seeded from
(seed, shape.key), so reports are byte-identical for a fixed seed
regardless of parallelism.

The lift is lifting._lift, the bare construction: its certificates record
no checks, so the verifier computes each identity once per instance, and
its verdict alone decides the row (a wrong lift fails its row on the
recomputation).  The builder's own checks run only in irr_crys_lift,
never in a sweep.

A cell runs its theta_bar in blocks of BLOCK_INSTANCES, one stage at a
time: it draws every determinant of the block, lifts them all, writes
every document, verifies them all, and then builds the kept rows in
order of theta_bar.  A lift that fails is that instance's failing row,
with the text it would have alone; the rest of its block runs on.

The cells of one field E run in a row, by e and then by t, so an
exhaustive cell of a small field takes its characters and their digit
expansions from a table built once for that field.  A cell builds a row
only for an instance that the report keeps: under record="failures" no
passing row is ever made.  The parent counts each cell's instances once,
by the grid's arithmetic, and derives the report's totals from those
counts and the kept rows.

With more than one job, pool workers take contiguous chunks of cells of
about equal instance counts and return the rows that each cell keeps,
which the parent joins in grid order.
"""

from __future__ import annotations

import functools
import os
import random
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import islice

from . import budget
from .certio import MAX_INT_STR_LEN, REPORT_SCHEMA_ID, certificate_to_json, check_int_str_len
from .errors import CertificateError, InfeasibleError
from .fields import FiniteFieldSpec, MultChar, digits, is_prime
from .lifting import DetSpec, LocalFieldShape, _lift
from .units import UnitExpr
from .verify import verify_certificate

# Chunks of cells per pool worker: pool.map hands them out as workers come
# free, which evens out what equal instance counts leave uneven (an
# instance costs more as e and d grow), while each task still carries
# many cells.
CHUNKS_PER_WORKER = 16

# Instances per block of a cell.  run_cell takes a block through one stage
# at a time (draw, lift, document, verify), which pays less of Python's
# cost per call than taking each instance through every stage; a block's
# certificates and documents are all held at once, so it stays small.
BLOCK_INSTANCES = 16

# The determinant's value at the uniformizer in every cell: one unit per
# process writes its JSON and its negation once.
PSI_UNIFORMIZER = UnitExpr.symbol("psi(varpi_F)")

# An exhaustive cell takes its thetas from its field's table only up to
# THETA_TABLE_MAX exponents, at about 525 B each: 2 MB at most.
THETA_TABLE_MAX = 2 ** 12

# theta_bar < 2^bits and t <= p*(q-1) < 2^(bits+64) fit the wire format up to these bits
FIELD_BITS_MAX = (10 ** MAX_INT_STR_LEN).bit_length() - 1 - 64


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
        for name in ("f_max", "e_max", "d_max", "jobs", "max_field_bits"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # p >= 2 makes p^(f*d) <= 2^bits force f*d <= bits, below RESIDUE_DEGREE_MAX too
        if self.max_field_bits > FIELD_BITS_MAX:
            raise ValueError(f"max_field_bits must be at most {FIELD_BITS_MAX}, so that a cell's "
                             f"t and theta_bar fit the wire format's {MAX_INT_STR_LEN} characters")
        if not self.p_values:
            raise ValueError("empty p range")
        if self.thetas_per_cell is not None and self.thetas_per_cell < 1:
            raise ValueError("thetas_per_cell must be >= 1, or None for every theta_bar")
        if self.a_bound < 0:
            raise ValueError("a_bound must be >= 0")
        if self.a_bound >= 10 ** (MAX_INT_STR_LEN - 1):  # -a_bound may be drawn
            raise ValueError(f"a_bound must be below 10^{MAX_INT_STR_LEN - 1}, so that a "
                             f"drawn exponent has at most {MAX_INT_STR_LEN} characters")
        if not all(is_prime(p) for p in self.p_values):
            raise ValueError("p_values must all be prime")
        if self.record not in ("all", "failures"):
            raise ValueError(f"unknown record mode {self.record!r}")


def _theta_count(q: int, config: SweepConfig) -> int:
    """The number of theta_bar exponents that a cell whose field E has q
    elements runs: all q-1, or a sample of thetas_per_cell of them."""
    n = config.thetas_per_cell
    return q - 1 if n is None else min(q - 1, n)


def iter_cells(config: SweepConfig) -> list[LocalFieldShape]:
    """The grid's cells in order, each distinct prime of p_values once.
    The grid's work is counted by arithmetic, and refused past the work
    budget before any cell is built."""
    cap = 2 ** config.max_field_bits
    e_max, keep_rows = config.e_max, config.record == "all"
    cells = instances = weights = most_thetas = most_weights = 0
    groups = []
    # p^f and p^(f*d) only grow with f and d, so both loops stop at the cap
    for p in sorted(set(config.p_values)):
        for f in range(1, config.f_max + 1):
            q = p ** f
            if q > cap:
                break
            for d in range(1, config.d_max + 1):
                q_E = q ** d
                if q_E > cap:
                    break
                ts = [q - 1] + ([p * (q - 1)] if config.t_with_p else [])
                # each e runs a cell per t value, each of thetas instances of e*f*d weights
                thetas = _theta_count(q_E, config)
                cells += e_max * len(ts)
                instances += e_max * len(ts) * thetas
                weights += e_max * (e_max + 1) // 2 * f * d * len(ts) * thetas
                most_thetas = max(most_thetas, thetas)
                most_weights = max(most_weights, e_max * f * d)
                # cells and kept rows are held until the sweep ends, and one
                # cell's sample and one instance's weights at a time
                rows = instances if keep_rows else 0
                budget.require(
                    {"cells": cells, "sweep instances": instances,
                     "lift weights": weights, "report rows": rows},
                    {"cells": cells, "sweep instances": most_thetas,
                     "lift weights": most_weights, "report rows": rows})
                groups.append((p, f, d, ts))
    return [LocalFieldShape(p, f, e, d, t) for p, f, d, ts in groups
            for e in range(1, e_max + 1) for t in ts]


def _compat_draw(
    rng: random.Random, shape: LocalFieldShape, bound: int
) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The cell's draw of determinant exponents for theta_bar's digits b:
    sample |a| <= bound and adjust one entry per unramified block so that
    it meets its J-block of b in the compatibility congruence.  The draw's
    constants are the cell's, bound here once for all its instances."""
    # the draws of rng.randrange(-bound, bound + 1): it draws bits of the
    # width's length, again while they reach the width, and adds -bound
    width = 2 * bound + 1
    bits, getrandbits = width.bit_length(), rng.getrandbits
    e, m, J_blocks = range(shape.e), shape.p - 1, shape.J_blocks

    def draw(b: tuple[int, ...]) -> tuple[int, ...]:
        a: list[int] = []
        for J in J_blocks:
            block = []
            for _ in e:
                r = getrandbits(bits)
                while r >= width:
                    r = getrandbits(bits)
                block.append(r - bound)
            delta = (sum(b[J]) - sum(block)) % m
            block[0] += delta
            # 0 <= delta <= p-2, so one step of p-1 brings block[0] to at most bound-1
            if block[0] > bound and block[0] - m >= -bound:
                block[0] -= m
            a += block
        return tuple(a)

    return draw


def _sample(rng: random.Random, N: int, n: int) -> list[int]:
    """sorted(rng.sample(range(N), n)), also past sys.maxsize, where
    range(N) has no len(): there sample would draw by rejecting repeats."""
    if N <= sys.maxsize:
        return sorted(rng.sample(range(N), n))
    drawn: set[int] = set()
    while len(drawn) < n:
        drawn.add(rng.randrange(N))
    return sorted(drawn)


@functools.lru_cache(maxsize=1)
def _theta_table(field_E: FiniteFieldSpec) -> tuple[tuple[MultChar, tuple[int, ...]], ...]:
    """Every theta_bar of field_E with its digits, in order of exponent.
    One entry: the cells of a field run in a row."""
    thetas = (MultChar(field_E, b) for b in range(field_E.q - 1))
    return tuple((c, digits(c).digits) for c in thetas)


def run_cell(shape: LocalFieldShape, config: SweepConfig) -> list[dict]:
    """The rows that the report keeps of one shape's instances: all of
    them, or under record="failures" the failing ones.  Deterministic from
    (config.seed, shape)."""
    rng = random.Random(f"{config.seed}:{shape.key}")
    field_E = shape.residue_field_E
    n = _theta_count(field_E.q, config)
    if n == field_E.q - 1 <= THETA_TABLE_MAX:
        thetas = _theta_table(field_E)
    else:
        bs = range(n) if n == field_E.q - 1 else _sample(rng, field_E.q - 1, n)
        thetas = ((c, digits(c).digits) for c in (MultChar(field_E, b) for b in bs))
    draw = _compat_draw(rng, shape, config.a_bound)
    keep_passed = config.record == "all"
    key = shape.key
    check_weights = shape.d > 1  # weights outgrow the exponents, at odd d twofold per i0-block
    # looked up once per cell, not at import: tests and tracers patch them on this module
    lift, to_json, verify = _lift, certificate_to_json, verify_certificate
    thetas = iter(thetas)
    rows = []
    while block := list(islice(thetas, BLOCK_INSTANCES)):
        psis = [DetSpec(draw(b_digits), PSI_UNIFORMIZER) for _, b_digits in block]
        certs, failed = [], {}
        for i, ((theta_bar, b_digits), psi) in enumerate(zip(block, psis)):
            try:
                # one digit expansion per theta_bar: the lift reuses b_digits
                cert = lift(theta_bar, b_digits, psi, shape)
                if check_weights:
                    check_int_str_len(cert.weights, "weights")
            except InfeasibleError as exc:
                failed[i] = (False, [f"infeasible: {exc}"])
            except CertificateError as exc:
                failed[i] = (False, [str(exc)])
            else:
                certs.append(cert)
        documents = list(map(to_json, certs))
        results = list(map(verify, documents))
        # in ascending order, each failure goes in at its own index
        for i, result in failed.items():
            results.insert(i, result)
        for (theta_bar, _), (ok, violations) in zip(block, results):
            if keep_passed or not ok:
                rows.append({"id": f"{key},b={theta_bar.b}", "pass": ok, "violations": violations})
    return rows


def _run_chunk(cells: list[LocalFieldShape], config: SweepConfig) -> list[list[dict]]:
    """The rows that each of a run of cells keeps, as run_cell returns them."""
    return [run_cell(shape, config) for shape in cells]


def _chunks(
    cells: list[LocalFieldShape], sizes: list[int], n: int
) -> list[list[LocalFieldShape]]:
    """At most n contiguous runs of cells with about equal instance counts,
    a cell's count being its entry in sizes.  Equal cell counts would not
    do: the grid's largest fields come last."""
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
    sizes = [_theta_count(c.p ** (c.f * c.d), config) for c in cells]
    # the pool forks all its workers at once, so fork no more than there are
    # cells or CPUs this process may run on
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    jobs = min(config.jobs, len(cells), cpus)
    if jobs > 1:
        # imported here, so that no other command pays for multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunks = _chunks(cells, sizes, jobs * CHUNKS_PER_WORKER)
        # Each call forks its own pool and joins it.  Workers forked once
        # would keep the module state of the first call, so a function
        # patched on this module later (a test's stub, a tracer's wrapper)
        # would not run in them; and children that outlive the call are not
        # reaped when a caller accounts for the resources of its children.
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_chunk, chunks, [config] * len(chunks)))
    else:
        results = [_run_chunk(cells, config)]
    # the last field's table is not kept past the sweep
    _theta_table.cache_clear()
    rows = [row for kept in results for cell_rows in kept for row in cell_rows]
    instances = sum(sizes)
    # both record modes keep every failing row, so every other instance passed
    failed = sum(not row["pass"] for row in rows)
    totals = {"instances": instances, "passed": instances - failed, "failed": failed}
    return {
        "schema": REPORT_SCHEMA_ID,
        # jobs changes only how the grid is run, so the report leaves it
        # out and is byte-identical for any jobs
        "config": {k: v for k, v in asdict(config).items() if k != "jobs"},
        "instances": rows,
        "totals": totals,
    }
