"""Byte-identity pins for certificates and sweep reports, the sweep's one
digit expansion per instance, its grid, its worker count and the rows
that record="failures" keeps.

The sweep digest predates the cut in the sweep's per-certificate work.
The certificate digest pins, for the shapes with e >= 2 and d >= 2, the
weights of regular transport's one offset progression per i0-block.  Any
drift in weights, units, recorded checks or the order of the sweep's
random draws changes them.
"""

import concurrent.futures
import hashlib
import json
import random
import time

import pytest

from cryslift import lifting, sweep
from cryslift.certio import certificate_to_json, dumps
from cryslift.fields import FiniteFieldSpec, MultChar, digits, is_prime
from cryslift.lifting import DetSpec, LocalFieldShape, irr_crys_lift
from cryslift.sweep import SweepConfig, iter_cells, run_cell, run_sweep
from cryslift.units import UnitExpr

# (p, f, e, d): d = 1, odd d, even d, and f > 1 for each
PIN_SHAPES = [(2, 1, 1, 1), (3, 2, 2, 1), (5, 1, 3, 1), (2, 1, 2, 3), (3, 2, 1, 3),
              (7, 1, 2, 3), (3, 1, 1, 2), (2, 2, 2, 2), (5, 2, 1, 2), (3, 1, 2, 4),
              (2, 3, 1, 2), (2, 1, 1, 5)]
CERT_DIGEST = "f4cd0cb636f4aa59b2f3c26c2e038f75c8c18171723f0c98f8584d0428351cc0"
SWEEP_CONFIG = dict(p_values=(2, 3, 5), f_max=2, e_max=2, d_max=3, t_with_p=True,
                    thetas_per_cell=6, seed=5, max_field_bits=8, record="all")
SWEEP_DIGEST = "46da6b9150b754b058cd6280c7e82fe455d2360bf098c8dbdb2131a20c922946"
U = UnitExpr.symbol("psi(varpi_F)")


def _pinned_certificates():
    rng = random.Random(20)
    for p, f, e, d in PIN_SHAPES:
        shape = LocalFieldShape(p, f, e, d, p ** f - 1)
        for b in sorted(rng.sample(range(p ** (f * d) - 1), min(4, p ** (f * d) - 1))):
            theta_bar = MultChar(FiniteFieldSpec(p, f * d), b)
            bd = digits(theta_bar).digits
            a = []
            for i0 in range(f):
                block = [rng.randint(-10, 10) for _ in range(e)]
                block[0] += (sum(bd[i0::f]) - sum(block)) % (p - 1)
                a.extend(block)
            psi = DetSpec(tuple(a), U)
            yield irr_crys_lift(theta_bar, psi, shape)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_certificate_bytes_pinned():
    certs = list(_pinned_certificates())
    assert {c.shape.d for c in certs} >= {1, 2, 3, 4, 5}
    assert _sha256("".join(dumps(certificate_to_json(c)) for c in certs)) == CERT_DIGEST


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_report_bytes_pinned(jobs):
    report = run_sweep(SweepConfig(jobs=jobs, **SWEEP_CONFIG))
    assert report["totals"]["failed"] == 0
    assert _sha256(dumps(report)) == SWEEP_DIGEST


@pytest.fixture
def digit_calls(monkeypatch):
    calls = []

    def counted(c):
        calls.append(c.b)
        return digits(c)

    monkeypatch.setattr(sweep, "digits", counted)
    monkeypatch.setattr(lifting, "digits", counted)
    return calls


@pytest.mark.parametrize("cell", [LocalFieldShape(3, 1, 2, 1, 2),
                                  LocalFieldShape(3, 2, 1, 2, 8),
                                  LocalFieldShape(2, 1, 2, 3, 1)])
def test_run_cell_expands_digits_once_per_instance(digit_calls, cell):
    rows = run_cell(cell, SweepConfig(thetas_per_cell=None))
    assert len(rows) == cell.p ** (cell.f * cell.d) - 1
    assert all(r["pass"] for r in rows)
    assert digit_calls == list(range(len(rows)))


def test_recorded_checks_by_degree(digit_calls):
    """d = 1 still records regular: True; an even-d certificate records
    every identity as holding."""
    shape = LocalFieldShape(3, 1, 2, 1, 2)
    cert = irr_crys_lift(MultChar(FiniteFieldSpec(3, 1), 1), DetSpec((1, 2), U), shape)
    assert cert.checks == {
        "eq_one_compat": True, "lifts_theta_bar": None, "det_on_units": True,
        "det_at_uniformizer": True, "weights_distinct": None,
        "block_separation": None, "regular": True,
    }
    shape = LocalFieldShape(3, 1, 2, 2, 2)
    cert = irr_crys_lift(MultChar(FiniteFieldSpec(3, 2), 5), DetSpec((2, 1), U), shape)
    assert cert.checks == dict.fromkeys(cert.checks, True)
    assert list(cert.checks) == ["eq_one_compat", "lifts_theta_bar", "det_on_units",
                                 "det_at_uniformizer", "weights_distinct",
                                 "block_separation", "regular"]
    assert cert.theta_uniformizer == UnitExpr(-1, (("psi(varpi_F)", 1),))
    # the public lift expands the digits itself, once per certificate
    assert digit_calls == [1, 5]


def test_iter_cells_stops_at_cap():
    """Bounds far past the field-size cap give the cells of a full scan of
    every (p, f, d) with p^(f*d) <= cap, in the same order, at once."""
    cap = 2 ** 4
    scan = [LocalFieldShape(p, f, e, d, t)
            for p in (2, 3) for f in range(1, 5) for d in range(1, 5) if p ** (f * d) <= cap
            for e in range(1, 3) for t in (p ** f - 1, p * (p ** f - 1))]
    started = time.perf_counter()
    cells = iter_cells(SweepConfig(p_values=(3, 2), f_max=10 ** 6, e_max=2, d_max=10 ** 6,
                                   t_with_p=True, max_field_bits=4))
    assert time.perf_counter() - started < 1
    assert cells == scan


def test_iter_cells_visits_each_prime_once():
    config = dict(f_max=2, e_max=2, d_max=2, t_with_p=True)
    assert (iter_cells(SweepConfig(p_values=(2, 3, 3), **config))
            == iter_cells(SweepConfig(p_values=(2, 3), **config)))


@pytest.fixture
def made_pools(monkeypatch):
    """Replaces ProcessPoolExecutor with an in-process pool, so that no test
    forks a process, and lists the max_workers of each pool made.  run_sweep
    imports the executor from concurrent.futures when it starts a pool."""
    made = []

    class FakePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return made


def _pin_cpus(monkeypatch, cpus):
    """Lets this process run on `cpus` CPUs of a 64-CPU host; None stands
    for a platform with no affinity mask whose CPU count is unknown."""
    if cpus is None:
        monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 64)


@pytest.mark.parametrize("d_max,pool_workers", [(1, []), (3, [3])])
def test_run_sweep_forks_at_most_one_worker_per_cell(monkeypatch, made_pools, d_max,
                                                     pool_workers):
    # with CPUs to spare, the cells are the cap
    _pin_cpus(monkeypatch, 64)
    config = dict(p_values=(2,), f_max=1, e_max=1, d_max=d_max, max_field_bits=3)
    report = run_sweep(SweepConfig(jobs=500, **config))
    assert made_pools == pool_workers
    assert dumps(report) == dumps(run_sweep(SweepConfig(jobs=1, **config)))


@pytest.mark.parametrize("cpus,pool_workers", [(2, [2]), (None, [])])
def test_run_sweep_forks_at_most_one_worker_per_cpu(monkeypatch, made_pools, cpus,
                                                    pool_workers):
    # 3 cells; the CPUs this process may use count, not those of the host,
    # and an unknown CPU count counts as one CPU
    _pin_cpus(monkeypatch, cpus)
    config = dict(p_values=(2,), f_max=1, e_max=1, d_max=3, max_field_bits=3)
    report = run_sweep(SweepConfig(jobs=500, **config))
    assert made_pools == pool_workers
    assert dumps(report) == dumps(run_sweep(SweepConfig(jobs=1, **config)))


def test_run_sweep_without_affinity_mask_counts_host_cpus(monkeypatch, made_pools):
    monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
    run_sweep(SweepConfig(jobs=500, p_values=(2,), f_max=1, e_max=1, d_max=3,
                          max_field_bits=3))
    assert made_pools == [2]


# fewer cells than the chunks of a 3-worker pool, and more
FAILURE_GRIDS = {
    "few_cells": dict(p_values=(2, 3), f_max=2, e_max=2, d_max=3, max_field_bits=5),
    "many_cells": dict(p_values=(2, 3, 5, 7), f_max=2, e_max=3, d_max=3, t_with_p=True,
                       max_field_bits=6),
}


@pytest.mark.parametrize("grid", sorted(FAILURE_GRIDS))
def test_record_failures_keeps_exactly_the_failing_rows(monkeypatch, made_pools, grid):
    """A verifier that rejects every seventh row makes real failures in
    many cells and chunks; the in-process pool lets the patch reach the
    workers."""
    _pin_cpus(monkeypatch, 64)
    config = dict(FAILURE_GRIDS[grid], thetas_per_cell=3, seed=9)
    cells = iter_cells(SweepConfig(**config))
    assert (len(cells) < 3 * sweep.CHUNKS_PER_WORKER) == (grid == "few_cells")
    all_rows = run_sweep(SweepConfig(**config))["instances"]
    failing = [r["id"] for r in all_rows[1::7]]
    verify = sweep.verify_certificate

    def rejecting(doc):
        shape = LocalFieldShape(*(int(doc["shape"][k]) for k in "pfedt"))
        row_id = f"{shape.key},b={doc['theta_bar']['b']}"
        return (False, [f"rejected {row_id}"]) if row_id in failing else verify(doc)

    chunks = []
    run_chunk = sweep._run_chunk

    def recording(chunk, config):
        chunks.append([shape.key for shape in chunk])
        return run_chunk(chunk, config)

    monkeypatch.setattr(sweep, "verify_certificate", rejecting)
    monkeypatch.setattr(sweep, "_run_chunk", recording)
    reports = [dumps(run_sweep(SweepConfig(jobs=jobs, record="failures", **config)))
               for jobs in (1, 3)]
    assert made_pools == [3]
    assert reports[0] == reports[1]
    report = json.loads(reports[1])
    assert [(r["id"], r["pass"], r["violations"]) for r in report["instances"]] == [
        (row_id, False, [f"rejected {row_id}"]) for row_id in failing]
    assert report["totals"] == {"instances": len(all_rows),
                                "passed": len(all_rows) - len(failing),
                                "failed": len(failing)}
    # one in-process chunk for jobs=1, then the pool's contiguous chunks
    pool_chunks = chunks[1:]
    assert chunks[0] == [key for chunk in pool_chunks for key in chunk]
    assert len(pool_chunks) <= 3 * sweep.CHUNKS_PER_WORKER
    chunk_of = {key: i for i, chunk in enumerate(pool_chunks) for key in chunk}
    failing_cells = {row_id.rsplit(",b=", 1)[0] for row_id in failing}
    assert len(failing_cells) >= 5
    assert len({chunk_of[key] for key in failing_cells}) >= 5


@pytest.mark.parametrize("thetas_per_cell", [None, 5])
def test_chunks_hold_about_equal_instance_counts(thetas_per_cell):
    """On the benchmark's grid, whose largest fields come last, every chunk
    stays within one cell of an equal share of the instances."""
    config = SweepConfig(p_values=tuple(p for p in range(2, 128) if is_prime(p)), f_max=10,
                         e_max=3, d_max=10, t_with_p=True, thetas_per_cell=thetas_per_cell,
                         max_field_bits=7)
    cells = iter_cells(config)
    sizes = {c.key: min(c.p ** (c.f * c.d) - 1, thetas_per_cell or 10 ** 6) for c in cells}
    for n in (1, 2, 32, 1000):
        chunks = sweep._chunks(cells, config, n)
        assert all(chunks) and len(chunks) <= n
        assert [c for chunk in chunks for c in chunk] == cells
        counts = [sum(sizes[c.key] for c in chunk) for chunk in chunks]
        assert max(counts) <= sum(sizes.values()) / n + max(sizes.values())
