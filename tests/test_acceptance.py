"""Acceptance suite: one test per top-level criterion, each printing a
single pass/fail line with its timing budget.

Run with -s to see the lines for passing criteria as well.
"""

import copy
import os
import random
import time

from cryslift.certio import certificate_to_json
from cryslift.fields import (
    FiniteFieldSpec,
    MultChar,
    digits,
    from_digits,
    is_prime,
)
from cryslift.induction import FrobeniusModel, verify_det_induction
from cryslift.ledger import WeightProfile, shift_for_extension, twist, twist_shout
from cryslift.lifting import DetSpec, LocalFieldShape, irr_crys_lift
from cryslift.sweep import SweepConfig, run_sweep
from cryslift.transport import regular_transport, transport, verify_assignment
from cryslift.units import UnitExpr
from cryslift.verify import verify_certificate


def _report(num, name, ok, elapsed, budget):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {verdict} [{elapsed:.2f}s / budget {budget}s]")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def _primes(limit):
    return [n for n in range(2, limit + 1) if is_prime(n)]


def test_criterion_1_digit_oracle():
    start = time.perf_counter()
    ok = True
    for p in _primes(4096):
        f = 1
        while p ** f <= 4096:
            field = FiniteFieldSpec(p, f)
            q = p ** f
            seen = set()
            for b in range(q - 1):
                dv = digits(MultChar(field, b))
                if from_digits(dv, field).b != b:
                    ok = False
                seen.add(dv.digits)
            # uniqueness: the q-1 canonical vectors biject onto the
            # exponents, and the forbidden all-(p-1) vector never appears
            if len(seen) != q - 1 or tuple([p - 1] * f) in seen:
                ok = False
            f += 1
    _report(1, "digit oracle", ok, time.perf_counter() - start, 10)


def test_criterion_2_assignment_solver():
    start = time.perf_counter()
    rng = random.Random(20260823)
    ok = True
    for _ in range(10_000):
        n, k = rng.randint(1, 6), rng.randint(2, 6)
        a = [rng.randint(-50, 50) for _ in range(n)]
        b = [rng.randint(-50, 50) for _ in range(k)]
        m = rng.randint(1, 12)
        C = rng.randint(0, 100)
        b[-1] += (sum(a) - sum(b)) % m
        sol = regular_transport(a, b, m, C)
        accepted, violations = verify_assignment(sol, a, b, m, C)
        ok = ok and accepted

        b_exact = list(b)
        b_exact[-1] += sum(a) - sum(b_exact)
        accepted, violations = verify_assignment(transport(a, b_exact), a, b_exact)
        ok = ok and accepted
    _report(2, "assignment solver", ok, time.perf_counter() - start, 30)


def test_criterion_3_induction_oracle():
    start = time.perf_counter()
    rng = random.Random(3)
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 9):
        for d in range(1, 7):
            model = FrobeniusModel(q, d)
            if model.M <= 4000:
                bs = range(model.M)
            else:
                bs = sorted(rng.sample(range(model.M), 512))
            for b in bs:
                if not verify_det_induction(model, b)["pass"]:
                    ok = False
    _report(3, "induction oracle", ok, time.perf_counter() - start, 60)


def test_criterion_4_lift_builder():
    start = time.perf_counter()
    config = SweepConfig(
        p_values=tuple(_primes(1021)),
        f_max=10,
        e_max=3,
        d_max=10,
        t_with_p=True,
        a_bound=10,
        thetas_per_cell=None,
        seed=0,
        jobs=max(os.cpu_count() or 1, 1),
        max_field_bits=10,
        record="failures",
    )
    report = run_sweep(config)
    ok = (
        report["totals"]["failed"] == 0
        and report["totals"]["instances"] > 0
        and not report["instances"]
    )
    _report(4, "lift builder", ok, time.perf_counter() - start, 300)


def test_criterion_5_determinant_ledger():
    start = time.perf_counter()
    rng = random.Random(55)
    ok = True
    for _ in range(1000):
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        p = rng.choice([2, 3, 5, 7])
        w1 = tuple(sorted((rng.randint(-20, 20) for _ in range(d1)), reverse=True))
        w2 = tuple(sorted((rng.randint(-20, 20) for _ in range(d2)), reverse=True))
        N, s1, s2, ledger = shift_for_extension(
            WeightProfile((w1,)), WeightProfile((w2,)), p
        )
        if not (
            all(w > 0 for w in s1.all_weights())
            and all(w < 0 for w in s2.all_weights())
            and ledger["det_sum_preserved"]
            and ledger["slightly_less"]
        ):
            ok = False
        if N >= 1:
            bad1 = twist(WeightProfile((w1,)), d2 * (p - 1) * (N - 1))
            bad2 = twist(WeightProfile((w2,)), -d1 * (p - 1) * (N - 1))
            if all(w > 0 for w in bad1.all_weights()) and all(
                w < 0 for w in bad2.all_weights()
            ):
                ok = False  # N was not minimal

    for _ in range(1000):
        d = rng.randint(1, 4)
        t = 2 * rng.randint(1, 3)
        n_embed = rng.randint(1, 3)
        shape = LocalFieldShape(3, 1, n_embed, d, t)
        rho = WeightProfile(
            tuple(
                tuple(sorted((rng.randint(-30, 30) for _ in range(d)), reverse=True))
                for _ in range(n_embed)
            )
        )
        shifts = [rng.randint(-3, 3) * d * t for _ in range(n_embed)]
        rho_x = WeightProfile(
            tuple(
                tuple(w - sh for w in tup) for tup, sh in zip(rho.weights, shifts)
            )
        )
        theta = twist_shout(rho, rho_x, shape)
        rebuilt = tuple(
            tuple(w + ks for w in tup) for tup, ks in zip(rho_x.weights, theta.k)
        )
        if rebuilt != rho.weights or any(ks % t for ks in theta.k):
            ok = False

    for _ in range(1000):
        d = rng.randint(1, 4)
        t = 2 * rng.randint(1, 3)
        shape = LocalFieldShape(3, 1, 1, d, t)
        base = tuple(
            sorted((rng.randint(-30, 30) * d * t for _ in range(d)), reverse=True)
        )
        delta = rng.randint(1, d * t - 1)
        perturbed = base[:-1] + (base[-1] - delta,)
        try:
            twist_shout(WeightProfile((base,)), WeightProfile((perturbed,)), shape)
            ok = False  # must be rejected
        except Exception:
            pass
    _report(5, "determinant ledger", ok, time.perf_counter() - start, 10)


def test_criterion_6_mutation_robustness():
    start = time.perf_counter()
    rng = random.Random(6)
    shapes = [
        (3, 1, 1, 2),
        (2, 1, 2, 3),
        (3, 2, 2, 2),
        (5, 1, 3, 2),
        (2, 2, 1, 2),
        (3, 2, 2, 1),
    ]
    ok = True
    for _ in range(200):
        p, f, e, d = rng.choice(shapes)
        shape = LocalFieldShape(p, f, e, d, p ** f - 1)
        b = rng.randrange(p ** (f * d) - 1)
        theta_bar = MultChar(FiniteFieldSpec(p, f * d), b)
        bd = digits(theta_bar).digits
        a = []
        for i0 in range(f):
            block = [rng.randint(-10, 10) for _ in range(e)]
            target = sum(bd[j] for j in range(i0, f * d, f))
            block[0] += (target - sum(block)) % (p - 1)
            a.extend(block)
        cert = irr_crys_lift(
            theta_bar, DetSpec(tuple(a), UnitExpr.symbol("psi(varpi_F)")), shape
        )
        doc = certificate_to_json(cert)
        if not verify_certificate(doc)[0]:
            ok = False
            continue
        for idx in range(len(doc["weights"])):
            for delta in (1, -1):
                mutated = copy.deepcopy(doc)
                mutated["weights"][idx] = str(int(mutated["weights"][idx]) + delta)
                if verify_certificate(mutated)[0]:
                    ok = False
        for idx in range(len(doc["psi"]["a"])):
            mutated = copy.deepcopy(doc)
            mutated["psi"]["a"][idx] = str(int(mutated["psi"]["a"][idx]) + 1)
            if verify_certificate(mutated)[0]:
                ok = False
        mutated = copy.deepcopy(doc)
        mutated["theta_uniformizer"]["sign"] *= -1
        if verify_certificate(mutated)[0]:
            ok = False
    _report(6, "mutation robustness", ok, time.perf_counter() - start, 60)
