"""Byte-identity pins for certificates and sweep reports, the sweep's one
digit expansion per exponent of a field, its grid, its worker count and
the rows that record="failures" keeps, and builds.

The sweep digest predates the cut in the sweep's per-certificate work;
the exhaustive sweep's digest predates the per-shape slices and the
verifier's single-factor units.
The certificate digest pins, for the shapes with e >= 2 and d >= 2, the
weights of regular transport's one offset progression per i0-block.  Any
drift in weights, units or recorded checks changes them.  The report rows
carry only id, pass and violations, and the certificate digest draws its
exponents itself, so none of them sees the sweep's random draws: the draw
digest pins those, as the determinant exponents each instance lifts.
"""

import concurrent.futures
import dataclasses
import hashlib
import json
import random
import time
import tracemalloc
import types

import pytest

from cryslift import budget, lifting, sweep
from cryslift.certio import certificate_to_json, dumps, validate_certificate_schema
from cryslift.errors import CertificateError, InfeasibleError
from cryslift.fields import FiniteFieldSpec, MultChar, digits, is_prime
from cryslift.lifting import DetSpec, LocalFieldShape, irr_crys_lift
from cryslift.sweep import SweepConfig, iter_cells, run_cell, run_sweep
from cryslift.units import UnitExpr
from cryslift.verify import verify_certificate

# (p, f, e, d): d = 1, odd d, even d, and f > 1 for each
PIN_SHAPES = [(2, 1, 1, 1), (3, 2, 2, 1), (5, 1, 3, 1), (2, 1, 2, 3), (3, 2, 1, 3),
              (7, 1, 2, 3), (3, 1, 1, 2), (2, 2, 2, 2), (5, 2, 1, 2), (3, 1, 2, 4),
              (2, 3, 1, 2), (2, 1, 1, 5)]
CERT_DIGEST = "f4cd0cb636f4aa59b2f3c26c2e038f75c8c18171723f0c98f8584d0428351cc0"
SWEEP_CONFIG = dict(p_values=(2, 3, 5), f_max=2, e_max=2, d_max=3, t_with_p=True,
                    thetas_per_cell=6, seed=5, max_field_bits=8, record="all")
SWEEP_DIGEST = "46da6b9150b754b058cd6280c7e82fe455d2360bf098c8dbdb2131a20c922946"
# every theta_bar of every cell: d = 1, 2 and 3, with f = 1 and f = 2
EXHAUSTIVE_CONFIG = dict(p_values=(2, 3, 5), f_max=2, e_max=2, d_max=3,
                         thetas_per_cell=None, seed=3, max_field_bits=6, record="all")
EXHAUSTIVE_DIGEST = "a5d9db24ea41b708f0f09b4baf89d2b2260173990ed829512c6dea001df7e082"
DRAW_DIGEST = "f76b96205c34e9c11aec2e8a13b286fc8593632fb7a881bbdcc74cf73525f391"
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


def test_certificate_documents_share_no_mutable_part():
    """certificate_to_json returns a fresh dict and fresh lists per call,
    though units and shapes format their JSON once: edits to one
    document's unit factor triple, factors list, shape and checks leave
    the next document, the unit and the pinned bytes as they were."""
    certs = list(_pinned_certificates())
    cert = next(c for c in certs if c.shape.d % 2)  # theta's unit is psi's
    doc = certificate_to_json(cert)
    built = json.loads(json.dumps(doc))
    unit = U.to_json()
    doc["psi"]["uniformizer"]["factors"][0][1] = "7"
    doc["theta_uniformizer"]["factors"].append(["x", "1", "1"])
    doc["shape"]["p"] = "11"
    doc["checks"]["regular"] = False
    assert doc["theta_uniformizer"]["factors"][0] == ["psi(varpi_F)", "1", "1"]
    assert certificate_to_json(cert) == built
    assert U.to_json() == unit == {"sign": 1, "factors": [["psi(varpi_F)", "1", "1"]]}
    assert _sha256("".join(dumps(certificate_to_json(c)) for c in certs)) == CERT_DIGEST


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_report_bytes_pinned(jobs):
    report = run_sweep(SweepConfig(jobs=jobs, **SWEEP_CONFIG))
    assert report["totals"]["failed"] == 0
    assert _sha256(dumps(report)) == SWEEP_DIGEST


def test_exhaustive_sweep_bytes_pinned():
    config = SweepConfig(**EXHAUSTIVE_CONFIG)
    assert {(c.f, c.d) for c in iter_cells(config)} == {
        (f, d) for f in (1, 2) for d in (1, 2, 3)}
    report = run_sweep(config)
    assert report["totals"] == {"instances": 376, "passed": 376, "failed": 0}
    assert _sha256(dumps(report)) == EXHAUSTIVE_DIGEST


def test_sweep_draws_pinned(monkeypatch):
    """The determinant exponents that run_cell draws, in order, on the
    exhaustive grid, at the default bound and at bounds of 1 and 0 (ranges
    of 21, 3 and 1 integers redraw a third, a quarter and half of their
    draws)."""
    drawn = []
    lift = sweep._lift

    def recording(theta_bar, b, psi, shape):
        drawn.append((shape.key, theta_bar.b, psi.a))
        return lift(theta_bar, b, psi, shape)

    monkeypatch.setattr(sweep, "_lift", recording)
    for a_bound in (10, 1, 0):
        config = SweepConfig(a_bound=a_bound, **EXHAUSTIVE_CONFIG)
        for cell in iter_cells(config):
            assert all(row["pass"] for row in run_cell(cell, config))
    assert len(drawn) == 3 * 376
    assert {len(a) for _, _, a in drawn} == {1, 2, 4}
    assert _sha256(repr(drawn)) == DRAW_DIGEST


def test_negative_a_bound_refused():
    """An empty range of exponents is refused with the config, as the
    draws would never end in it."""
    with pytest.raises(ValueError, match="a_bound must be >= 0"):
        SweepConfig(a_bound=-1)


@pytest.fixture
def verified_documents(monkeypatch):
    """The documents that run_cell verifies, each schema-checked first."""
    documents = []

    def verify(doc):
        validate_certificate_schema(doc)
        documents.append(doc)
        return verify_certificate(doc)

    monkeypatch.setattr(sweep, "verify_certificate", verify)
    return documents


def test_a_bound_past_wire_format_refused(verified_documents):
    """A drawn exponent -a_bound must fit the wire format's 4000
    characters: 10^3999 - 1 is admitted, and every certificate of its cell
    passes the schema check, while 10^3999 is refused with the config."""
    with pytest.raises(ValueError, match=r"a_bound must be below 10\^3999"):
        SweepConfig(a_bound=10 ** 3999)
    rows = run_cell(LocalFieldShape(3, 1, 2, 1, 2), SweepConfig(a_bound=10 ** 3999 - 1))
    assert len(rows) == len(verified_documents) == 2 and all(r["pass"] for r in rows)
    assert max(len(a) for doc in verified_documents for a in doc["psi"]["a"]) == 4000


def test_weights_past_wire_format_fail_their_rows(verified_documents):
    """Weights at d > 1 outgrow the drawn exponents: at a_bound = 10^3999 - 1
    three of four instances of (3, 1, 2, 3) have weights of 4,001 or 4,002
    characters, and each fails its row, naming the first, unverified."""
    rows = run_cell(LocalFieldShape(3, 1, 2, 3, 2),
                    SweepConfig(a_bound=10 ** 3999 - 1, thetas_per_cell=4))
    past = ("weights[2]: more than 4000 characters as a decimal string, "
            "past the wire format's limit")
    assert [(r["pass"], r["violations"]) for r in rows] == [(True, [])] + [(False, [past])] * 3
    assert len(verified_documents) == 1


# 40 instances: two full blocks of run_cell and a part of a third
BLOCK_CELL = LocalFieldShape(41, 1, 1, 1, 40)


def test_lift_failure_inside_block_stays_its_row(monkeypatch):
    """An InfeasibleError and a CertificateError from the lift, each in the
    middle of a block, fail their own rows with today's texts; every other
    row of the cell passes, in b order, and each instance lifts the
    determinant exponents that a run without failures draws."""
    assert 21 % sweep.BLOCK_INSTANCES and 5 % sweep.BLOCK_INSTANCES
    lift, seen = sweep._lift, []
    failures = {}

    def recording(theta_bar, b, psi, shape):
        seen.append((theta_bar.b, psi.a))
        if theta_bar.b in failures:
            raise failures[theta_bar.b]
        return lift(theta_bar, b, psi, shape)

    monkeypatch.setattr(sweep, "_lift", recording)
    config = SweepConfig(thetas_per_cell=None, record="all", seed=4)
    expected = run_cell(BLOCK_CELL, config)
    draws, seen[:] = list(seen), []
    failures.update({5: InfeasibleError("no room at b=5"),
                     21: CertificateError("weights[0]: bad at b=21")})
    rows = run_cell(BLOCK_CELL, config)
    assert seen == draws and [b for b, _ in seen] == list(range(40))
    assert all(r["pass"] and r["violations"] == [] for r in expected)
    assert [r["id"] for r in rows] == [f"{BLOCK_CELL.key},b={b}" for b in range(40)]
    assert {i: (r["pass"], r["violations"]) for i, r in enumerate(rows) if not r["pass"]} == {
        5: (False, ["infeasible: no room at b=5"]), 21: (False, ["weights[0]: bad at b=21"])}
    assert [r for i, r in enumerate(rows) if i not in (5, 21)] == [
        r for i, r in enumerate(expected) if i not in (5, 21)]


def test_run_cell_looks_up_certificate_to_json_at_call_time(monkeypatch):
    """A wrapper patched on the module writes every document of the cell,
    as a tracer's does, and the rows stay as they were."""
    config = SweepConfig(thetas_per_cell=None, record="all")
    expected = run_cell(BLOCK_CELL, config)
    written = []

    def counting(cert):
        written.append(cert.theta_bar.b)
        return certificate_to_json(cert)

    monkeypatch.setattr(sweep, "certificate_to_json", counting)
    assert run_cell(BLOCK_CELL, config) == expected
    assert written == list(range(40))


@pytest.mark.parametrize("N", [86, 1000, 2 ** 40, 2 ** 63 - 1])
def test_sample_past_maxsize_draws_as_random_sample(monkeypatch, N):
    """The draws that _sample makes past sys.maxsize, where range(N) has no
    len(), are random.sample's above its set-size threshold (85 for 16
    draws): forced onto that path, it matches sample draw for draw."""
    monkeypatch.setattr(sweep, "sys", types.SimpleNamespace(maxsize=0))
    rng, expected = random.Random(N), random.Random(N)
    assert sweep._sample(rng, N, 16) == sorted(expected.sample(range(N), 16))
    assert rng.getstate() == expected.getstate()


@pytest.fixture
def digit_calls(monkeypatch):
    """The exponents that digits expands, in order.  The sweep's theta_bar
    table starts and ends empty, so that no test sees another's table."""
    calls = []

    def counted(c):
        calls.append(c.b)
        return digits(c)

    monkeypatch.setattr(sweep, "digits", counted)
    monkeypatch.setattr(lifting, "digits", counted)
    sweep._theta_table.cache_clear()
    yield calls
    sweep._theta_table.cache_clear()


@pytest.mark.parametrize("cell", [LocalFieldShape(3, 1, 2, 1, 2),
                                  LocalFieldShape(3, 2, 1, 2, 8),
                                  LocalFieldShape(2, 1, 2, 3, 1)])
def test_run_cell_expands_digits_once_per_instance(digit_calls, cell):
    """Once per exponent of the cell's field, over all the cells of that
    field run in a row, as the grid runs them: by e, then by t."""
    p, f, d = cell.p, cell.f, cell.d
    q = p ** f
    exponents = q ** d - 1
    config = SweepConfig(thetas_per_cell=None)
    for e in (1, 2):
        for t in (q - 1, p * (q - 1)):
            rows = run_cell(LocalFieldShape(p, f, e, d, t), config)
            assert len(rows) == exponents
            assert all(r["pass"] for r in rows)
    assert digit_calls == list(range(exponents))


def test_sampled_cell_expands_only_its_sample(digit_calls):
    """A sampled cell of a field of 2^16 elements expands the digits of its
    4 theta_bar, not of all 65,535."""
    rows = run_cell(LocalFieldShape(2, 16, 1, 1, 2 ** 16 - 1), SweepConfig(thetas_per_cell=4))
    assert len(rows) == len(digit_calls) == 4
    assert digit_calls == sorted(set(digit_calls))
    assert [r["id"].rsplit("=", 1)[1] for r in rows] == [str(b) for b in digit_calls]


def test_exhaustive_cell_above_table_bound_expands_each_theta_once(digit_calls):
    """A field of more than THETA_TABLE_MAX exponents gets no table, and
    its cell still expands each theta_bar once."""
    cell = LocalFieldShape(4099, 1, 1, 1, 4098)
    assert cell.p - 1 > sweep.THETA_TABLE_MAX
    rows = run_cell(cell, SweepConfig(thetas_per_cell=None, record="failures"))
    assert rows == []
    assert digit_calls == list(range(4098))
    assert sweep._theta_table.cache_info().currsize == 0


def test_record_failures_builds_no_passing_row():
    """Under record="failures", an all-passing cell of 4,098 instances
    peaks far below one row per instance: a row takes about 330 B under
    tracemalloc, and a run_cell that built every row before it dropped the
    passing ones peaked at 1.35 MB on this cell."""
    cell = LocalFieldShape(4099, 1, 1, 1, 4098)
    config = SweepConfig(thetas_per_cell=None, record="failures")
    run_cell(cell, config)  # imports and caches fill before the measurement
    tracemalloc.start()
    try:
        rows = run_cell(cell, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == []
    assert peak < 32 * 4098


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


def test_iter_cells_refuses_grid_above_cap():
    """At p = 2, f = d = 1 and both t, the grid's time is mostly its
    e*(e+1) weights: e_max = 6,000 (12,000 cells, 3.6e7 weights, about 48 s
    predicted) is built, while e_max = 8,000 (about 85 s) and 10^12 are
    refused before any cell is built."""
    one_fd = dict(p_values=(2,), f_max=1, d_max=1, max_field_bits=1, t_with_p=True)
    assert len(iter_cells(SweepConfig(e_max=6000, **one_fd))) == 12000
    for e_max in (8000, 10 ** 12):
        with pytest.raises(ValueError, match="past the work budget"):
            iter_cells(SweepConfig(e_max=e_max, **one_fd))


@pytest.mark.parametrize("cap,what", [("SWEEP_CELLS_MAX", "cells"),
                                      ("SWEEP_INSTANCES_MAX", "instances"),
                                      ("SWEEP_WEIGHTS_MAX", "weights")])
def test_iter_cells_counts_grid_exactly(monkeypatch, cap, what):
    """The counts that iter_cells bounds before building any cell are the
    built grid's: with one second per unit of one kind (the kind that the
    count cap `cap` bounded before the work budget replaced the caps) and
    nothing for the rest, a time budget of the count admits the grid, one
    second less refuses it."""
    config = SweepConfig(p_values=(2, 3), f_max=3, e_max=3, d_max=3, t_with_p=True,
                         thetas_per_cell=5, max_field_bits=6)
    cells = iter_cells(config)
    thetas = [min(c.p ** (c.f * c.d) - 1, 5) for c in cells]
    count = {"cells": len(cells), "instances": sum(thetas),
             "weights": sum(n * c.size_E for n, c in zip(thetas, cells))}[what]
    unit = {"cells": "cells", "instances": "sweep instances", "weights": "lift weights"}[what]
    monkeypatch.setattr(budget, "COSTS", {u: ((10 ** 9 if u == unit else 0), 0)
                                          for u in budget.COSTS})
    monkeypatch.setattr(budget, "TIME_BUDGET_S", count)
    assert iter_cells(config) == cells
    monkeypatch.setattr(budget, "TIME_BUDGET_S", count - 1)
    with pytest.raises(ValueError, match=f"predict {count} s .* work budget of {count - 1} s"):
        iter_cells(config)


def test_iter_cells_requires_grid_units_exactly(monkeypatch):
    """The units that iter_cells holds to the budget before building any
    cell are the built grid's: every cell, instance, weight and kept row
    is work, and each cell, the largest cell's sample, the widest
    instance's weights and the kept rows are held."""
    counted = []
    monkeypatch.setattr(budget, "require", lambda work, held: counted.append((work, held)))
    config = SweepConfig(p_values=(2, 3), f_max=3, e_max=3, d_max=3, t_with_p=True,
                         thetas_per_cell=5, max_field_bits=6)
    cells = iter_cells(config)
    thetas = [min(c.p ** (c.f * c.d) - 1, 5) for c in cells]
    weights = sum(n * c.size_E for n, c in zip(thetas, cells))
    for record, rows in (("all", sum(thetas)), ("failures", 0)):
        counted.clear()
        assert iter_cells(dataclasses.replace(config, record=record)) == cells
        assert counted[-1] == (
            {"cells": len(cells), "sweep instances": sum(thetas), "lift weights": weights,
             "report rows": rows},
            {"cells": len(cells), "sweep instances": max(thetas),
             "lift weights": max(c.size_E for c in cells), "report rows": rows})


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
        chunks = sweep._chunks(cells, [sizes[c.key] for c in cells], n)
        assert all(chunks) and len(chunks) <= n
        assert [c for chunk in chunks for c in chunk] == cells
        counts = [sum(sizes[c.key] for c in chunk) for chunk in chunks]
        assert max(counts) <= sum(sizes.values()) / n + max(sizes.values())


def test_run_chunk_returns_run_cell_lists_unchanged(monkeypatch):
    """A chunk returns the very lists that run_cell returned, in cell order:
    a list subclass that carries more than its rows (a tracer's, across the
    pool's pickle) reaches the parent as it was made."""

    class Rows(list):
        pass

    made = []

    def stub(shape, config):
        made.append(Rows([{"id": shape.key}]))
        return made[-1]

    monkeypatch.setattr(sweep, "run_cell", stub)
    cells = iter_cells(SweepConfig(p_values=(2, 3), f_max=1, e_max=2, d_max=2))
    kept = sweep._run_chunk(cells, SweepConfig())
    assert type(kept) is list and len(kept) == len(cells) == len(made) == 8
    assert all(got is want for got, want in zip(kept, made))
    assert [rows[0]["id"] for rows in kept] == [c.key for c in cells]
