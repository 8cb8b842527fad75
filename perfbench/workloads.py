"""The four benchmark workloads and the loops that drive them.

Every workload builds its inputs from the seed alone.  Three are closed
loops with one client: the next item is sent only after the previous one
returned, and its outcome is checked between items, outside the timed
call.  ``sweep_exhaustive`` instead issues whole ``run_sweep`` passes over
the acceptance-gate grid through the sweep layer's process pool.

Work is counted in fixed units: a batch of items for the closed loops, a
pass over the grid for the sweep.  ``wall_s`` is the mean time of one
unit, and a run executes whole units until its time is up.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import random
import time

# Modules, not names: the tracer patches module attributes, so every call
# below must go through them to be seen.
from cryslift import certio, errors, fields, induction, lifting, sweep, units, verify

NPROC = len(os.sched_getaffinity(0))
# The benchmark's own checks use these references, bound before any tracer
# patches the modules, so that the checks stay out of the trace.
_dumps = certio.dumps
_validate_report = certio.validate_report_schema
PSI_UNIFORMIZER = "psi(varpi_F)"


def _probe_s() -> float:
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(4000):
        q, r = divmod(i * 7919, 101)
        table[r] = table.get(r, 0) + q
        acc ^= hash((q, r))
    return time.perf_counter() - t0


class HostSpeed:
    """Speed of the shared host, from a fixed pure-Python probe.

    Other tenants share the host's cores, and the same work runs up to 1.6
    times slower from one stretch of seconds to the next, on every CPU and
    in every process.  A run cannot choose its stretch, so it measures
    the host alongside the work: the probe runs between units of work,
    never inside a timed call, and ``scale`` converts times measured
    meanwhile into seconds at the reference speed, at which one probe
    takes ``PROBE_REF_S`` (between its times in the fast and the slow
    stretches of a 2.0 GHz Xeon vCPU).
    The probe's mean, not its median, follows the share of a run spent in
    the slow stretches, as the work's own mean does.
    """

    PROBE_REF_S = 0.002
    EVERY_S = 0.25  # probe at least this often during a closed loop

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(_probe_s())

    def scale(self) -> float:
        return self.PROBE_REF_S * len(self.samples) / sum(self.samples)


# Shapes of the wide lift requests: p in {2,3,5}, f <= 2, e <= 12, 2 <= d <= 12.
# A batch holds each shape once (in seeded order), because the cost of a
# lift grows steeply with e*f*d: batches of randomly drawn shapes would
# differ in cost from seed to seed far more than the host's noise.
LIFT_SHAPES = [(p, f, e, d) for p in (2, 3, 5) for f in (1, 2)
               for e in range(1, 13) for d in range(2, 13)]


def _lift_request(rng: random.Random, p: int, f: int, e: int, d: int) -> tuple:
    """A lift request of the given shape with seeded t, theta_bar and
    determinant exponents |a| <= 10, forced through the compatibility
    congruence so that every request is feasible."""
    q = p ** f
    t = rng.choice((q - 1, p * (q - 1)))
    b = rng.randrange(p ** (f * d) - 1)
    bd = fields.digits(fields.MultChar(fields.FiniteFieldSpec(p, f * d), b)).digits
    a = []
    for i0 in range(f):
        block = [rng.randint(-10, 10) for _ in range(e)]
        block[0] += (sum(bd[j] for j in range(i0, f * d, f)) - sum(block)) % (p - 1)
        a.extend(block)
    return p, f, e, d, t, b, tuple(a)


def _lift_document(req: tuple) -> dict:
    p, f, e, d, t, b, a = req
    shape = lifting.LocalFieldShape(p, f, e, d, t)
    theta_bar = fields.MultChar(shape.residue_field_E, b)
    psi = lifting.DetSpec(a, units.UnitExpr.symbol(PSI_UNIFORMIZER))
    return certio.certificate_to_json(lifting.irr_crys_lift(theta_bar, psi, shape))


class ClosedLoop:
    """One client sending items from a seeded pool, one at a time."""

    name = ""
    # Whether times are converted to the reference host speed: only where
    # the probe follows the work, single-process pure-Python loops.  It did
    # not for the numpy kernel of the induction oracle, nor for sweep passes
    # that keep every CPU busy, where the probe can only run between passes.
    host_scaled = True

    def inputs(self, seed: int, smoke: bool) -> dict:
        """{"items": the pool, "batch": items in one fixed unit of work}."""
        raise NotImplementedError

    def call(self, item):
        """The timed request."""
        raise NotImplementedError

    def check(self, item, out) -> tuple[bool, int]:
        """(outcome correct, work units the item completed)."""
        raise NotImplementedError

    def blob(self, out) -> bytes:
        """Bytes of an output that go into the determinism digest."""
        raise NotImplementedError


class LiftWide(ClosedLoop):
    name = "lift_wide"

    def inputs(self, seed, smoke):
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        for _ in range(8):
            shapes = rng.sample(LIFT_SHAPES, 10) if smoke else rng.sample(
                LIFT_SHAPES, len(LIFT_SHAPES))
            items.extend(_lift_request(rng, *shape) for shape in shapes)
        return {"items": items, "batch": len(items) // 8}

    def call(self, item):
        doc = _lift_document(item)
        text = certio.dumps(doc)
        ok, _ = verify.verify_certificate(doc)
        return text, ok

    def check(self, item, out):
        return out[1], 1

    def blob(self, out):
        return out[0].encode()


def _mutate(doc: dict, kind: int, rng: random.Random) -> dict:
    """Mutations that the verifier always detects (criterion 6)."""
    doc = copy.deepcopy(doc)
    if kind in (0, 1):
        i = rng.randrange(len(doc["weights"]))
        doc["weights"][i] = str(int(doc["weights"][i]) + (1 if kind == 0 else -1))
    elif kind == 2:
        i = rng.randrange(len(doc["psi"]["a"]))
        doc["psi"]["a"][i] = str(int(doc["psi"]["a"][i]) + 1)
    else:
        doc["theta_uniformizer"]["sign"] *= -1
    return doc


def _break_schema(doc: dict, kind: int, rng: random.Random) -> dict:
    doc = copy.deepcopy(doc)
    if kind == 0:
        del doc["checks"]
    elif kind == 1:
        doc["weights"][rng.randrange(len(doc["weights"]))] += ".0"
    else:
        doc["theta_uniformizer"]["sign"] = 2
    return doc


class VerifyStream(ClosedLoop):
    """Read direction of certio/verify: parse, schema-check and verify
    pre-serialized certificates, a fixed share of them tampered with."""

    name = "verify_stream"

    def inputs(self, seed, smoke):
        # a batch holds each (f, e, d) of LIFT_SHAPES once, with seeded p:
        # schema validation and verification cost grow with e*f*d
        rng = random.Random(f"{self.name}:{seed}")
        sizes = sorted({shape[1:] for shape in LIFT_SHAPES})
        docs = []
        for _ in range(2):
            batch = rng.sample(sizes, 10) if smoke else rng.sample(sizes, len(sizes))
            docs.extend(_lift_document(_lift_request(rng, rng.choice((2, 3, 5)), *fed))
                        for fed in batch)
        n = len(docs)
        order = list(range(n))
        rng.shuffle(order)
        n_mutated, n_invalid = n // 5, n // 10
        items = [(certio.dumps(doc), "accepted") for doc in docs]
        for k, i in enumerate(order[:n_mutated]):
            items[i] = (certio.dumps(_mutate(docs[i], k % 4, rng)), "rejected")
        for k, i in enumerate(order[n_mutated:n_mutated + n_invalid]):
            items[i] = (certio.dumps(_break_schema(docs[i], k % 3, rng)), "schema_invalid")
        return {"items": items, "batch": n // 2}

    def call(self, item):
        obj = json.loads(item[0])
        try:
            certio.validate_certificate_schema(obj)
        except errors.CertificateError:
            return "schema_invalid"
        ok, _ = verify.verify_certificate(obj)
        return "accepted" if ok else "rejected"

    def check(self, item, out):
        return out == item[1], 1

    def blob(self, out):
        return out.encode() + b"\n"


class InductionGrid(ClosedLoop):
    """verify_det_induction over q in {2,3,4,5,7,8,9}, d <= 6: every b where
    M <= 4000, a seeded sample of b per cell above that."""

    name = "induction_grid"
    host_scaled = False
    q_values = (2, 3, 4, 5, 7, 8, 9)
    d_max = 6
    full_sweep_max_m = 4000
    # Large-M samples per cell per pass, chosen so that the two regimes
    # (per-call overhead at small M, the numpy kernel at large M) each
    # take about half of a pass.
    samples = 20
    passes = 6

    def inputs(self, seed, smoke):
        rng = random.Random(f"{self.name}:{seed}")
        if smoke:
            q_values, d_max, max_m, samples, passes = (2, 3, 4), 4, 100, 2, 2
        else:
            q_values, d_max, max_m = self.q_values, self.d_max, self.full_sweep_max_m
            samples, passes = self.samples, self.passes
        models = [induction.FrobeniusModel(q, d) for q in q_values for d in range(1, d_max + 1)]
        items = []
        for _ in range(passes):
            for model in models:
                if model.M <= max_m:
                    bs = range(model.M)
                else:
                    bs = sorted(rng.sample(range(model.M), samples))
                items.extend((model, b) for b in bs)
        return {"items": items, "batch": len(items) // passes, "full_sweep_max_m": max_m}

    def call(self, item):
        return induction.verify_det_induction(*item)

    def check(self, item, out):
        model = item[0]
        ok = out["pass"] and not out["counterexamples"] and out["checked"] == 2 * model.M
        return ok, out["checked"]

    def blob(self, out):
        return json.dumps(out, sort_keys=True).encode() + b"\n"


def run_closed_loop(wl: ClosedLoop, inputs: dict, seconds: float, tracer=None,
                    batches: int | None = None, speed: HostSpeed | None = None) -> dict:
    """Run whole batches until ``seconds`` have passed (or exactly
    ``batches`` of them).  Latency covers the call alone; the client's
    checking between calls, and the host-speed probe, are not timed."""
    lat: list[float] = []
    idx: list[int] = []
    batch_s: list[float] = []
    work = failed = 0
    first: list = []
    pool, size = inputs["items"], inputs["batch"]
    n_pool = len(pool) // size
    start = probed = time.perf_counter()
    if speed is not None:
        speed.sample()
    k = 0
    while (k < batches) if batches is not None else (
            k == 0 or time.perf_counter() - start < seconds):
        base = (k % n_pool) * size
        busy = 0.0
        for i in range(base, base + size):
            item = pool[i]
            if tracer is not None:
                tracer.item = i
                tracer.enter("bench.item")
            t0 = time.perf_counter()
            try:
                out = wl.call(item)
            except Exception as exc:  # any exception is a wrong outcome
                out = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.exit()
            busy += dt
            lat.append(dt)
            idx.append(i)
            if isinstance(out, Exception):
                failed += 1
                continue
            ok, u = wl.check(item, out)
            work += u
            failed += not ok
            if k == 0:
                first.append(out)
            if speed is not None and time.perf_counter() - probed >= speed.EVERY_S:
                speed.sample()
                probed = time.perf_counter()
        batch_s.append(busy)
        k += 1
    digest = hashlib.sha256()
    for out in first:
        digest.update(wl.blob(out))
    return {
        "lat": lat, "idx": idx, "batch_s": batch_s, "work": work, "attempted": len(lat),
        "failed": failed, "digest": digest.hexdigest(), "batches": k,
    }


class SweepExhaustive:
    """run_sweep over the criterion-4 acceptance grid (every shape, both t,
    every theta_bar, compat-forced determinants, record="failures") with
    the field cap lowered from 2^10 so that a pass fits a run."""

    name = "sweep_exhaustive"
    host_scaled = False
    jobs = NPROC

    def inputs(self, seed, smoke):
        bits = 4 if smoke else 7
        primes = tuple(p for p in range(2, 1022) if fields.is_prime(p))
        base = sweep.SweepConfig(
            p_values=primes, f_max=10, e_max=3, d_max=10, t_with_p=True,
            a_bound=10, thetas_per_cell=None, seed=seed, jobs=self.jobs,
            max_field_bits=bits, record="failures",
        )
        cells = sweep.iter_cells(base)
        expected = sum(c.p ** (c.f * c.d) - 1 for c in cells)
        return {"base": base, "cells": len(cells), "expected": expected}

    @staticmethod
    def config(inputs: dict, k: int, jobs: int) -> sweep.SweepConfig:
        """Pass k: the same grid with its own seed, so that no pass
        repeats the determinant exponents of another."""
        base = inputs["base"]
        return dataclasses.replace(base, seed=base.seed * 1000 + k, jobs=jobs)

    @staticmethod
    def digest(report: dict) -> str:
        """sha256 of the report bytes with config.jobs blanked: the report
        echoes the jobs setting there, so only that field may differ
        between jobs=1 and jobs=nproc."""
        report = {**report, "config": {**report["config"], "jobs": None}}
        return hashlib.sha256(_dumps(report).encode()).hexdigest()

    def run_pass(self, inputs: dict, k: int, jobs: int) -> tuple[float, dict | None, int]:
        """(wall seconds, report or None, wrong outcomes)."""
        t0 = time.perf_counter()
        try:
            report = sweep.run_sweep(self.config(inputs, k, jobs))
        except Exception:  # a crashed pass fails all its instances
            return time.perf_counter() - t0, None, inputs["expected"]
        wall = time.perf_counter() - t0
        totals = report["totals"]
        failed = abs(inputs["expected"] - totals["passed"]) + totals["failed"]
        try:
            _validate_report(report)
        except errors.CertificateError:
            failed = max(failed, 1)
        if report["instances"]:  # record="failures" must leave no rows
            failed = max(failed, 1)
        return wall, report, failed

    def run(self, inputs: dict, seconds: float, passes: int | None = None) -> dict:
        walls: list[float] = []
        failed = 0
        digest = None
        start = time.perf_counter()
        k = 0
        while (k < passes) if passes is not None else (
                k == 0 or time.perf_counter() - start < seconds):
            wall, report, bad = self.run_pass(inputs, k, self.jobs)
            walls.append(wall)
            failed += bad
            if k == 0 and report is not None:
                digest = self.digest(report)
            k += 1
        return {
            "walls": walls, "attempted": k * inputs["expected"], "failed": failed,
            "digest": digest, "passes": k,
        }


WORKLOADS = {
    wl.name: wl
    for wl in (SweepExhaustive(), LiftWide(), VerifyStream(), InductionGrid())
}
