"""Fuzzing of the certificate verifier and of ``cryslift verify``.

Every example starts from a real certificate and applies schema-valid
mutations to its shape, the lengths of its lists, the size of its
integers and its unit factors.  The verifier must return a verdict,
``(bool, list of str)``, within a time budget, and the CLI must exit 0 or
3 with the same verdict.  Arbitrary JSON documents must make the CLI exit
0, 2 or 3.
"""

import contextlib
import copy
import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cryslift.certio import (
    MAX_INT_STR_LEN,
    MAX_UNIT_FACTORS,
    certificate_to_json,
    validate_certificate_schema,
)
from cryslift.cli import main
from cryslift.fields import FiniteFieldSpec, MultChar, digits
from cryslift.lifting import DetSpec, LocalFieldShape, irr_crys_lift
from cryslift.units import UnitExpr
from cryslift.verify import _unit_normal, verify_certificate

BUDGET_S = 1.0


def _cert_doc(p, f, e, d, b):
    """A real certificate, determinant exponents forced compatible."""
    shape = LocalFieldShape(p, f, e, d, p ** f - 1)
    theta_bar = MultChar(FiniteFieldSpec(p, f * d), b)
    bd = digits(theta_bar).digits
    a = []
    for i0 in range(f):
        block = [i0 - r for r in range(e)]
        block[0] += (sum(bd[i0::f]) - sum(block)) % (p - 1)
        a.extend(block)
    psi = DetSpec(tuple(a), UnitExpr.symbol("psi(varpi_F)"))
    return certificate_to_json(irr_crys_lift(theta_bar, psi, shape))


CERTS = [_cert_doc(3, 1, 1, 2, 5), _cert_doc(2, 2, 2, 2, 7), _cert_doc(5, 1, 3, 2, 11),
         _cert_doc(5, 1, 1, 1, 2), _cert_doc(3, 2, 2, 3, 400), _cert_doc(7, 1, 2, 4, 999)]

SHAPE_KEYS = ("p", "f", "e", "d", "t")
SPECIAL_INTS = [-3, -1, 0, 1, 2, 3, 4, 5, 7, 8, 9, 24, 2 ** 61 - 1, 2 ** 64 - 59,
                2 ** 64 - 1, 2 ** 64 + 13, 3 * 10 ** 7, 10 ** (MAX_INT_STR_LEN - 1)]


def _digit_string(neg: bool, length: int, digit: int) -> str:
    return ("-" if neg else "") + str(digit) * length


INTS = st.one_of(
    st.sampled_from(SPECIAL_INTS).map(str),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.integers(-(10 ** 300), 10 ** 300).map(str),
    st.builds(_digit_string, st.booleans(), st.integers(1, MAX_INT_STR_LEN - 1),
              st.integers(1, 9)),
)
DENS = st.one_of(
    st.integers(1, 1000),
    st.integers(1, 10 ** 300),
    st.integers(1, MAX_INT_STR_LEN).map(lambda n: 10 ** (n - 1) + 7),
).map(str)
FACTOR = st.tuples(st.sampled_from(["psi(varpi_F)", "eta(varpi_F)", "x", ""]), INTS, DENS)
UNIT = st.fixed_dictionaries({
    "sign": st.sampled_from([1, -1]),
    "factors": st.lists(FACTOR.map(list), max_size=MAX_UNIT_FACTORS),
})
CHECK_NAMES = ["eq_one_compat", "lifts_theta_bar", "det_on_units", "det_at_uniformizer",
               "weights_distinct", "block_separation", "regular", "unknown_check"]


@st.composite
def consistent_shape(draw, doc):
    """A shape with lists of matching lengths, so every identity is
    recomputed rather than the lengths rejected first."""
    p = draw(st.sampled_from([2, 3, 5, 7, 2 ** 61 - 1]))
    f, e, d = (draw(st.integers(1, 4)) for _ in range(3))
    q = p ** f
    doc["shape"] = {"p": str(p), "f": str(f), "e": str(e), "d": str(d),
                    "t": str((q - 1) * draw(st.sampled_from([1, p])))}
    doc["theta_bar"]["b"] = str(draw(st.integers(0, q ** d - 2)))
    doc["psi"]["a"] = [draw(INTS) for _ in range(e * f)]
    doc["weights"] = [draw(INTS) for _ in range(e * f * d)]


@st.composite
def mutated_certificate(draw):
    doc = copy.deepcopy(draw(st.sampled_from(CERTS)))
    for kind in draw(st.lists(st.sampled_from(
            ["shape", "reshape", "resize", "int", "unit", "check"]), min_size=1, max_size=4)):
        if kind == "shape":
            doc["shape"][draw(st.sampled_from(SHAPE_KEYS))] = draw(INTS)
        elif kind == "reshape":
            draw(consistent_shape(doc))
        elif kind == "resize":
            key = draw(st.sampled_from(["weights", "a"]))
            owner = doc if key == "weights" else doc["psi"]
            n = draw(st.integers(1, 40))
            owner[key] = (owner[key] + [draw(INTS) for _ in range(n)])[:n]
        elif kind == "int":
            where = draw(st.sampled_from(["weights", "a", "b", "shape"]))
            if where == "weights":
                doc["weights"][draw(st.integers(0, len(doc["weights"]) - 1))] = draw(INTS)
            elif where == "a":
                doc["psi"]["a"][draw(st.integers(0, len(doc["psi"]["a"]) - 1))] = draw(INTS)
            elif where == "b":
                doc["theta_bar"]["b"] = draw(INTS)
            else:
                doc["shape"][draw(st.sampled_from(SHAPE_KEYS))] = draw(INTS)
        elif kind == "unit":
            if draw(st.booleans()):
                doc["psi"]["uniformizer"] = draw(UNIT)
            else:
                doc["theta_uniformizer"] = draw(UNIT)
        else:
            doc["checks"][draw(st.sampled_from(CHECK_NAMES))] = draw(
                st.sampled_from([True, False, None]))
    return doc


def _cli_verify(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(path)])
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cert.json"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_certificate())
def test_verifier_total_on_schema_valid_mutations(cert_path, doc):
    validate_certificate_schema(doc)
    before = copy.deepcopy(doc)
    started = time.perf_counter()
    ok, violations = verify_certificate(doc)
    assert time.perf_counter() - started < BUDGET_S
    assert doc == before
    assert isinstance(ok, bool) and isinstance(violations, list)
    assert all(isinstance(v, str) for v in violations)
    assert ok is (not violations)
    cert_path.write_text(json.dumps(doc))
    code, out = _cli_verify(cert_path)
    assert code == (0 if ok else 3)
    assert out == {"pass": ok, "violations": violations}


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(doc=st.one_of(
    JSON,
    mutated_certificate().flatmap(lambda doc: st.sampled_from(sorted(doc)).map(
        lambda key: {k: v for k, v in doc.items() if k != key})),
))
def test_cli_verify_exit_codes_on_any_json(cert_path, doc):
    cert_path.write_text(json.dumps(doc))
    code, _ = _cli_verify(cert_path)
    assert code in (0, 2, 3)


def _unit_normal_reference(obj):
    """The verifier's unit normal form with every exponent a Fraction."""
    acc = {}
    for label, num, den in obj["factors"]:
        acc[label] = acc.get(label, Fraction(0)) + Fraction(int(num), int(den))
    return int(obj["sign"]), tuple((label, e) for label, e in sorted(acc.items()) if e != 0)


NUMS = st.one_of(
    st.integers(-5, 5),
    st.integers(-(10 ** 300), 10 ** 300),
    st.integers(10 ** 3999, 10 ** 4000 - 1),
).map(str)
UNIT_DENS = st.sampled_from(["1", "1\n"])
ANY_DENS = st.one_of(UNIT_DENS, st.sampled_from(["2", "3", "6"]), DENS)


def _unit(dens):
    factor = st.tuples(st.sampled_from(["psi(varpi_F)", "eta(varpi_F)", "x"]), NUMS, dens)
    return st.fixed_dictionaries({
        "sign": st.sampled_from([1, -1]),
        "factors": st.lists(factor.map(list), max_size=MAX_UNIT_FACTORS),
    })


@settings(max_examples=300, deadline=None)
@given(obj=st.one_of(_unit(UNIT_DENS), _unit(ANY_DENS)))
@example(obj={"sign": 1, "factors": [["x", "3", "2"], ["x", "1", "2"]]})
@example(obj={"sign": 1, "factors": [["x", "2", "2"]]})
@example(obj={"sign": -1, "factors": [["x", "1", "1\n"], ["y", "4", "1\n"]]})
@example(obj={"sign": 1, "factors": [["x", "3", "1"], ["y", "1", "2"], ["x", "-3", "1"],
                                     ["y", "-1", "2"]]})
@example(obj={"sign": 1, "factors": [["x", "9" * 4000, "1"], ["x", "-" + "9" * 4000, "1"]]})
@example(obj={"sign": -1, "factors": []})
def test_unit_normal_matches_fraction_reference(obj):
    got = _unit_normal(obj)
    assert got == _unit_normal_reference(obj)
    if all(int(den) == 1 for _, _, den in obj["factors"]):
        # integer exponents never reach Fraction
        assert all(type(e) is int for _, e in got[1])


@pytest.mark.parametrize("cert", [CERTS[3], CERTS[0]], ids=["d=1", "d=2"])
@pytest.mark.parametrize("psi_exp, theta_exp", [(("1", "1"), ("1", "2")),
                                                (("1", "2"), ("1", "1")),
                                                (("1", "1"), ("2", "1"))])
def test_det_at_uniformizer_fails_on_exponent_mismatch(cert, psi_exp, theta_exp):
    doc = copy.deepcopy(cert)
    assert verify_certificate(doc)[0]
    doc["psi"]["uniformizer"]["factors"] = [["psi(varpi_F)", *psi_exp]]
    doc["theta_uniformizer"]["factors"] = [["psi(varpi_F)", *theta_exp]]
    validate_certificate_schema(doc)
    ok, violations = verify_certificate(doc)
    assert not ok
    assert "identity det_at_uniformizer fails on recomputation" in violations
