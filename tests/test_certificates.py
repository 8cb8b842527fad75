import ast
import copy
import json
import random
import re
import time
from pathlib import Path

import pytest

import cryslift
from cryslift import cli, lifting
from cryslift.certio import (
    certificate_to_json,
    validate_certificate_schema,
    validate_report_schema,
)
from cryslift.errors import CertificateError
from cryslift.fields import FiniteFieldSpec, MultChar, digits
from cryslift.lifting import DetSpec, LocalFieldShape, irr_crys_lift
from cryslift.units import UnitExpr
from cryslift.verify import _is_prime, verify_certificate

U = UnitExpr.symbol("psi(varpi_F)")


def build_cert(p=3, f=1, e=1, d=2, t=None, b=5, a=(3,)):
    shape = LocalFieldShape(p, f, e, d, t if t is not None else p ** f - 1)
    tb = MultChar(FiniteFieldSpec(p, f * d), b)
    return irr_crys_lift(tb, DetSpec(tuple(a), U), shape)


def random_cert(rng):
    shapes = [(3, 1, 1, 2), (2, 1, 2, 3), (3, 2, 2, 2), (5, 1, 3, 2), (2, 2, 1, 2),
              (3, 1, 2, 1), (5, 2, 3, 1), (7, 1, 1, 1)]
    p, f, e, d = rng.choice(shapes)
    big_q = p ** (f * d)
    b = rng.randrange(big_q - 1)
    tb = MultChar(FiniteFieldSpec(p, f * d), b)
    bd = digits(tb).digits
    a = []
    for i0 in range(f):
        block = [rng.randint(-10, 10) for _ in range(e)]
        target = sum(bd[j] for j in range(i0, f * d, f))
        block[0] += (target - sum(block)) % (p - 1)
        a.extend(block)
    return build_cert(p, f, e, d, None, b, tuple(a))


class TestRoundTrip:
    def test_round_trip_verifies(self):
        cert = build_cert()
        doc = certificate_to_json(cert)
        ok, violations = verify_certificate(doc)
        assert ok, violations

    def test_schema_rejects_garbage(self):
        with pytest.raises(CertificateError):
            validate_certificate_schema({"schema": "lift-certificate/v1"})
        with pytest.raises(CertificateError):
            validate_certificate_schema({"hello": "world"})

    def test_report_schema(self):
        validate_report_schema(
            {
                "schema": "sweep-report/v1",
                "config": {},
                "instances": [{"id": "x", "pass": True, "violations": []}],
                "totals": {"instances": 1, "passed": 1, "failed": 0},
            }
        )
        with pytest.raises(CertificateError):
            validate_report_schema({"schema": "sweep-report/v1"})


class TestMutations:
    """Single-field perturbations that break a recorded identity must be
    caught by the independent verifier."""

    def test_weight_perturbation_caught(self):
        # d = 2, then d = 1, where k = a and det_on_units is the one check
        # that reads the weights
        for cert in (build_cert(), build_cert(3, 1, 2, 1, b=1, a=(1, 2)),
                     build_cert(5, 2, 2, 1, b=7, a=(1, 1, 0, 1))):
            doc = certificate_to_json(cert)
            for idx in range(len(doc["weights"])):
                for delta in (1, -1):
                    mutated = copy.deepcopy(doc)
                    mutated["weights"][idx] = str(int(mutated["weights"][idx]) + delta)
                    ok, violations = verify_certificate(mutated)
                    assert not ok, (cert.shape, idx, delta)
                    assert "identity det_on_units fails on recomputation" in violations

    def test_uniformizer_sign_flip_caught(self):
        doc = certificate_to_json(build_cert())
        mutated = copy.deepcopy(doc)
        mutated["theta_uniformizer"]["sign"] *= -1
        ok, violations = verify_certificate(mutated)
        assert not ok
        assert any("det_at_uniformizer" in v for v in violations)

    def test_determinant_exponent_edit_caught(self):
        doc = certificate_to_json(build_cert())
        mutated = copy.deepcopy(doc)
        mutated["psi"]["a"][0] = str(int(mutated["psi"]["a"][0]) + 1)
        ok, _ = verify_certificate(mutated)
        assert not ok

    def test_recorded_check_flip_caught(self):
        doc = certificate_to_json(build_cert())
        mutated = copy.deepcopy(doc)
        mutated["checks"]["weights_distinct"] = False
        ok, violations = verify_certificate(mutated)
        assert not ok
        assert any("disagrees" in v for v in violations)

    def test_mutation_battery_random_certs(self):
        rng = random.Random(17)
        degrees = set()
        for _ in range(40):
            doc = certificate_to_json(random_cert(rng))
            degrees.add(int(doc["shape"]["d"]))
            ok, violations = verify_certificate(doc)
            assert ok, violations
            # one weight, one exponent, one sign mutation per certificate
            m = copy.deepcopy(doc)
            i = rng.randrange(len(m["weights"]))
            m["weights"][i] = str(int(m["weights"][i]) + rng.choice([1, -1]))
            ok, violations = verify_certificate(m)
            assert not ok
            assert "identity det_on_units fails on recomputation" in violations
            m = copy.deepcopy(doc)
            i = rng.randrange(len(m["psi"]["a"]))
            m["psi"]["a"][i] = str(int(m["psi"]["a"][i]) + 1)
            assert not verify_certificate(m)[0]
            m = copy.deepcopy(doc)
            m["theta_uniformizer"]["sign"] *= -1
            assert not verify_certificate(m)[0]
        assert degrees == {1, 2, 3}

    def test_wrong_weights_at_d1_recorded_and_refused(self, monkeypatch, capsys):
        """At d = 1 the builder's weights are a; a builder that gets them
        wrong records det_on_units: False, and `cryslift lift` exits 4."""
        build = lifting._build_weights

        def off_by_one(b, a, shape):
            k = build(b, a, shape)
            return (k[0] + 1,) + k[1:]

        monkeypatch.setattr(lifting, "_build_weights", off_by_one)
        cert = build_cert(3, 1, 2, 1, b=1, a=(1, 2))
        assert cert.weights == (2, 2)
        assert cert.checks["det_on_units"] is False
        assert [name for name, ok in cert.checks.items() if ok is False] == ["det_on_units"]
        code = cli.main(["lift", "--p", "3", "--f", "1", "--e", "2", "--d", "1", "--t", "2",
                         "--theta-bar", "1", "--a", "1,2"])
        assert code == cli.EXIT_INTERNAL
        assert json.loads(capsys.readouterr().out)["kind"] == "internal-invariant"


def _three_block_doc():
    """A real certificate of p = 3, f = 3, e = 2, d = 3: three i0-blocks,
    each of two Sigma_F fibres of three weights, every check true."""
    p, f, e, d, b = 3, 3, 2, 3, 12345
    bd = digits(MultChar(FiniteFieldSpec(p, f * d), b)).digits
    a = []
    for i0 in range(f):
        block = [2 * i0 + 1, -i0]
        block[0] += (sum(bd[i0::f]) - sum(block)) % (p - 1)
        a += block
    return certificate_to_json(build_cert(p, f, e, d, None, b, tuple(a)))


def _shift(values, i, delta):
    values[i] = str(int(values[i]) + delta)


def _set(values, i, value):
    values[i] = value


# One fault per identity, in the last i0-block, its last Sigma_F fibre
# (weights[-3:]) or its last column (weights[-1]); d = 3, and p - 1 = 2
# makes every +1 change a congruence class.
IDENTITY_FAULTS = {
    # the last block's determinant exponents leave the J-block's class
    "eq_one_compat": lambda doc: _shift(doc["psi"]["a"], -1, 1),
    # the last column's sum leaves its digit's class
    "lifts_theta_bar": lambda doc: _shift(doc["weights"], -1, 1),
    # the last weight repeats the one d places before it, in another fibre
    "weights_distinct": lambda doc: _set(doc["weights"], -1, doc["weights"][-4]),
    # a weight of the last block falls below the block before it
    "block_separation": lambda doc: _set(doc["weights"], -1, "0"),
    # the last fibre repeats a weight
    "regular": lambda doc: _set(doc["weights"], -1, doc["weights"][-2]),
}


class TestEachIdentityCanFail:
    """The verifier recomputes each identity over every block, fibre and
    column: a fault in the last of them, with the recorded checks left as
    built, fails that identity.  A recomputation replaced by True, or one
    that stopped a loop early or read block 0 only, would pass it."""

    def test_untampered_certificate_passes(self):
        doc = _three_block_doc()
        assert all(doc["checks"].values())
        assert verify_certificate(doc) == (True, [])
        doc["checks"] = {}  # none recorded, as the sweep writes them
        assert verify_certificate(doc) == (True, [])

    @pytest.mark.parametrize("name", sorted(IDENTITY_FAULTS))
    def test_fault_fails_identity(self, name):
        doc = _three_block_doc()
        checks = dict(doc["checks"])
        IDENTITY_FAULTS[name](doc)
        ok, violations = verify_certificate(doc)
        assert doc["checks"] == checks
        assert not ok
        assert f"identity {name} fails on recomputation" in violations

    @pytest.mark.parametrize("name", sorted(IDENTITY_FAULTS))
    def test_fault_fails_identity_without_recorded_checks(self, name):
        """With no check recorded, as the sweep writes its documents, the
        verdict rests on the recomputation alone: the same identities fail,
        and nothing else is reported."""
        doc = _three_block_doc()
        IDENTITY_FAULTS[name](doc)
        recorded = verify_certificate(doc)[1]
        doc["checks"] = {}
        ok, violations = verify_certificate(doc)
        assert not ok
        assert f"identity {name} fails on recomputation" in violations
        assert violations == [v for v in recorded if v.startswith("identity ")]
        assert all(re.fullmatch(r"identity \w+ fails on recomputation", v) for v in violations)


class TestVerifierBounds:
    """The verifier returns a verdict quickly on every schema-valid document."""

    def test_huge_degree_rejected_by_length_first(self):
        doc = certificate_to_json(build_cert())
        doc["shape"]["d"] = "30000000"
        validate_certificate_schema(doc)
        started = time.perf_counter()
        ok, violations = verify_certificate(doc)
        assert time.perf_counter() - started < 1.0
        assert not ok and "weights" in violations[0]

    def test_huge_exponents_stay_cheap(self):
        doc = certificate_to_json(build_cert())
        doc["shape"]["t"] = "9" * 4000
        doc["theta_bar"]["b"] = "9" * 4000
        started = time.perf_counter()
        ok, violations = verify_certificate(doc)
        assert time.perf_counter() - started < 1.0
        assert not ok
        assert any("not a multiple" in v for v in violations)
        assert any("outside" in v for v in violations)

    def test_most_unit_factors_stay_cheap(self):
        # the schema's maxItems: 16 factors per unit, here sharing one label
        # with 4000-digit pairwise distinct odd denominators
        rng = random.Random(3)
        factors = [["psi(varpi_F)", "1", str(rng.randrange(10 ** 3999, 10 ** 4000) | 1)]
                   for _ in range(16)]
        doc = certificate_to_json(build_cert())
        doc["psi"]["uniformizer"]["factors"] = factors
        doc["theta_uniformizer"]["factors"] = copy.deepcopy(factors)
        validate_certificate_schema(doc)
        started = time.perf_counter()
        ok, violations = verify_certificate(doc)
        assert time.perf_counter() - started < 0.5
        assert ok, violations
        doc["theta_uniformizer"]["factors"].append(["psi(varpi_F)", "1", "3"])
        with pytest.raises(CertificateError, match="at most 16 factors"):
            validate_certificate_schema(doc)

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))

        assert [n for n in range(-2, 20000) if _is_prime(n)] == [
            n for n in range(-2, 20000) if trial(n)]
        # strong pseudoprimes to several small bases
        assert not _is_prime(3215031751) and not _is_prime(3825123056546413051)

    def test_large_p_is_cheap(self):
        doc = certificate_to_json(build_cert())
        for p, verdict in ((2 ** 61 - 1, None), (2 ** 64 - 59, None),
                           (2 ** 64 - 1, "not prime"), (2 ** 64 + 13, "bound")):
            doc["shape"]["p"] = str(p)
            started = time.perf_counter()
            ok, violations = verify_certificate(doc)
            assert time.perf_counter() - started < 1.0
            assert not ok
            assert (f"p={p}" in violations[0]) is (verdict is not None)
            assert verdict is None or verdict in violations[0]


def _package_imports(module: str) -> set[str]:
    """Every name that src/cryslift/<module>.py imports from the package,
    as "submodule.name", at any depth of the file."""
    tree = ast.parse((Path(cryslift.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.split(".")[0] == "cryslift")
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module or ""
            elif (node.module or "").split(".")[0] == "cryslift":
                base = node.module.partition(".")[2]
            else:
                continue
            names.update(f"{base}.{a.name}".lstrip(".") for a in node.names)
    return names


def test_verifier_and_wire_format_stay_independent_of_the_builder():
    """The verifier re-derives everything with its own arithmetic, and the
    wire-format module needs of the builder only the type that it writes."""
    assert _package_imports("verify") == set()
    assert _package_imports("certio") == {"errors.CertificateError", "lifting.LiftCertificate"}
