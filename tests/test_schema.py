"""The hand-written schema checks of certio against the schema files.

``jsonschema`` is the oracle here: every verdict of
``validate_certificate_schema`` and ``validate_report_schema`` must equal
its verdict under the normative schema files in ``cryslift/schemas``.
"""

import copy
import json
import pkgutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cryslift
from cryslift.certio import (
    MAX_INT_STR_LEN,
    certificate_to_json,
    check_int_str_len,
    validate_certificate_schema,
    validate_report_schema,
)
from cryslift.errors import CertificateError
from cryslift.fields import FiniteFieldSpec, MultChar, digits
from cryslift.lifting import DetSpec, LocalFieldShape, irr_crys_lift
from cryslift.sweep import SweepConfig, run_sweep
from cryslift.units import UnitExpr


def _oracle(name):
    schema = json.loads(resources.files("cryslift.schemas").joinpath(name).read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


CERT_ORACLE = _oracle("certificate.schema.json")
REPORT_ORACLE = _oracle("report.schema.json")


def _accepts(validate, doc):
    try:
        validate(doc)
    except CertificateError:
        return False
    return True


def _cert_doc(p, f, e, d, b):
    """A real certificate, determinant exponents forced compatible."""
    shape = LocalFieldShape(p, f, e, d, p ** f - 1)
    theta_bar = MultChar(FiniteFieldSpec(p, f * d), b)
    bd = digits(theta_bar).digits
    a = []
    for i0 in range(f):
        block = [1] * e
        block[0] += (sum(bd[j] for j in range(i0, f * d, f)) - e) % (p - 1)
        a.extend(block)
    psi = DetSpec(tuple(a), UnitExpr(1, (("psi(varpi_F)", 3),)))
    return certificate_to_json(irr_crys_lift(theta_bar, psi, shape))


CERTS = [_cert_doc(3, 1, 1, 2, 5), _cert_doc(2, 2, 2, 2, 7), _cert_doc(5, 1, 3, 2, 11),
         _cert_doc(5, 1, 1, 1, 2), {**_cert_doc(2, 1, 2, 3, 3), "self_check": "pass"}]
REPORTS = [run_sweep(SweepConfig(p_values=(2, 3), f_max=1, e_max=1, d_max=2,
                                 thetas_per_cell=2, seed=1))]

# Replacement values: type swaps (bool/int/float/null/containers), the
# pattern and length edge cases of integer strings, and factor arities.
VALUES = [
    None, True, False, 0, 1, -1, 2, 1.0, -1.0, 1.5, float("nan"), float("inf"),
    "", "0", "7", "-12", "-0", "01", "12\n", "12\n\n", "\n12", "1 ", " 1", "٣", "1.0",
    "x", "-", "pass", "fail", "lift-certificate/v1", "sweep-report/v1",
    "9" * MAX_INT_STR_LEN, "9" * (MAX_INT_STR_LEN + 1), "-" + "9" * (MAX_INT_STR_LEN - 1),
    "9" * 5000, [], {}, ["x"], ["x", "1"], ["x", "1", "1"], ["x", "1", "0"],
    ["x", "1", "02"], ["x", "-3", "2", "1"], [1, "1", "1"], {"sign": 1, "factors": []},
]
KEYS = ["schema", "shape", "p", "b", "a", "sign", "factors", "checks", "hypotheses",
        "self_check", "config", "instances", "totals", "id", "pass", "violations",
        "passed", "jobs", "extra"]
_DROP = object()


def _slots(node, path=()):
    """(path of a container, key or index in it) for every value in node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path, key
        if isinstance(child, (dict, list)):
            yield from _slots(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    doc = copy.deepcopy(doc)
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _single_mutants(doc):
    """Every single mutation of doc: each value replaced by each of VALUES
    or dropped, each key of KEYS added to each object, each of VALUES
    appended to each array, each array emptied."""
    slots = list(_slots(doc))
    for path, key in slots:
        for value in VALUES + [_DROP]:
            mutant = copy.deepcopy(doc)
            if value is _DROP:
                del _at(mutant, path)[key]
            else:
                _at(mutant, path)[key] = copy.deepcopy(value)
            yield mutant
    for path in [()] + [path + (key,) for path, key in slots]:
        node = _at(doc, path)
        if isinstance(node, dict):
            for key in KEYS:
                for value in (None, "pass", "1", 1, {}, []):
                    mutant = copy.deepcopy(doc)
                    _at(mutant, path)[key] = value
                    yield mutant
        elif isinstance(node, list):
            for value in VALUES + [_DROP]:
                mutant = copy.deepcopy(doc)
                if value is _DROP:
                    _at(mutant, path).clear()
                else:
                    _at(mutant, path).append(copy.deepcopy(value))
                yield mutant


@pytest.mark.parametrize("kind,index", [("certificate", i) for i in range(len(CERTS))]
                         + [("report", 0)])
def test_single_mutation_verdicts_match_jsonschema(kind, index):
    base, oracle, validate = {
        "certificate": (CERTS, CERT_ORACLE, validate_certificate_schema),
        "report": (REPORTS, REPORT_ORACLE, validate_report_schema),
    }[kind]
    accepted = 0
    for doc in _single_mutants(base[index]):
        verdict = oracle.is_valid(doc)
        assert _accepts(validate, doc) == verdict, doc
        accepted += verdict
    assert accepted > 0


def _containers(node):
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from _containers(child)


@st.composite
def _mutants(draw, bases):
    """A base document with one to three mutations of the kinds that
    _single_mutants enumerates, or a replaced document."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_containers(doc))
        if not nodes or draw(st.integers(0, 49)) == 0:
            return copy.deepcopy(draw(st.sampled_from(VALUES)))
        node = draw(st.sampled_from(nodes))
        value = copy.deepcopy(draw(st.sampled_from(VALUES)))
        op = draw(st.sampled_from(["drop", "add", "replace", "replace", "empty"]))
        slots = list(node) if isinstance(node, dict) else list(range(len(node)))
        if op == "empty":
            node.clear()
        elif op == "add" or not slots:
            if isinstance(node, dict):
                node[draw(st.sampled_from(KEYS))] = value
            else:
                node.append(value if draw(st.booleans()) else copy.deepcopy(
                    node[0] if node else value))
        elif op == "drop":
            del node[draw(st.sampled_from(slots))]
        else:
            node[draw(st.sampled_from(slots))] = value
    return doc


_SETTINGS = settings(max_examples=400, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def test_real_documents_accepted():
    for doc in CERTS:
        assert CERT_ORACLE.is_valid(doc)
        validate_certificate_schema(doc)
    for doc in REPORTS:
        assert REPORT_ORACLE.is_valid(doc)
        validate_report_schema(doc)


@_SETTINGS
@given(_mutants(CERTS))
def test_certificate_verdicts_match_jsonschema(doc):
    assert _accepts(validate_certificate_schema, doc) == CERT_ORACLE.is_valid(doc)


@_SETTINGS
@given(_mutants(REPORTS))
def test_report_verdicts_match_jsonschema(doc):
    assert _accepts(validate_report_schema, doc) == REPORT_ORACLE.is_valid(doc)


CERT = CERTS[0]
W0 = ("weights", 0)
DEN = ("psi", "uniformizer", "factors", 0, 2)


@pytest.mark.parametrize("path,value,accepted", [
    (W0, "12\n", True),  # re.search: "$" matches before a final newline
    (W0, "-0", True),
    (W0, "٣", False),  # a non-ASCII digit
    (W0, "1 ", False),
    (W0, "9" * MAX_INT_STR_LEN, True),
    (W0, "9" * (MAX_INT_STR_LEN + 1), False),
    (W0, 12, False),
    (("theta_uniformizer", "sign"), 1.0, True),
    (("theta_uniformizer", "sign"), -1.0, True),
    (("theta_uniformizer", "sign"), True, False),
    (("theta_uniformizer", "sign"), 2, False),
    (DEN, "0", False),
    (DEN, "01", False),
    (DEN, "10", True),
    (("psi", "uniformizer", "factors", 0), ["x", "1"], False),
    (("psi", "uniformizer", "factors", 0), ["x", "1", "1", "1"], False),
    (("weights",), [], False),
    (("checks", "regular"), None, True),
    (("checks", "regular"), 1, False),
    (("hypotheses",), {"h": "declared"}, True),
    (("hypotheses",), {"h": 1}, False),
    (("self_check",), "fail", True),
    (("self_check",), "ok", False),
    (("extra",), 1, False),
    (("psi", "uniformizer", "factors"), [["x", "1", "1"]] * 16, True),
    (("psi", "uniformizer", "factors"), [["x", "1", "1"]] * 17, False),
    (("theta_uniformizer", "factors"), [["y", "-1", "7"]] * 17, False),
])
def test_certificate_edge_cases(path, value, accepted):
    doc = _set(CERT, path, value)
    assert CERT_ORACLE.is_valid(doc) is accepted
    assert _accepts(validate_certificate_schema, doc) is accepted


@pytest.mark.parametrize("path,value,accepted", [
    (("totals", "passed"), 1.0, True),
    (("totals", "passed"), True, False),
    (("totals", "passed"), 1.5, False),
    (("instances", 0, "extra"), 1, True),  # rows admit extra keys
    (("config", "extra"), [], True),
    (("instances", 0, "violations"), ["x", 1], False),
    (("instances",), {}, False),
    (("extra",), 1, False),
])
def test_report_edge_cases(path, value, accepted):
    doc = _set(REPORTS[0], path, value)
    assert REPORT_ORACLE.is_valid(doc) is accepted
    assert _accepts(validate_report_schema, doc) is accepted


def test_violation_names_json_path():
    with pytest.raises(CertificateError, match=r"at psi\.uniformizer\.factors\[0\]\[2\]:"):
        validate_certificate_schema(_set(CERT, DEN, "0"))
    with pytest.raises(CertificateError, match=r"at top level: missing required key 'checks'"):
        validate_certificate_schema({k: v for k, v in CERT.items() if k != "checks"})
    with pytest.raises(CertificateError, match=r"report schema violation at totals\.failed:"):
        validate_report_schema(_set(REPORTS[0], ("totals", "failed"), "0"))


@pytest.mark.parametrize("value", [0, -7, 10 ** 4000 - 1, 10 ** 4000, -(10 ** 3999 - 1),
                                   -(10 ** 3999), 10 ** 5000, -(10 ** 5000)],
                         ids=["0", "-7", "4000-digits", "10^4000", "-3999-digits", "-10^3999",
                              "10^5000", "-10^5000"])
def test_check_int_str_len_matches_schema_limit(value):
    """Accepts exactly the integers whose decimal strings the schema's
    maxLength admits; 10^5000 is past what str() formats at all."""
    fits = abs(value) < 10 ** 4300 and len(str(value)) <= MAX_INT_STR_LEN
    try:
        check_int_str_len([1, value], "weights")
    except CertificateError as exc:
        assert not fits
        assert str(exc).startswith("weights[1]: more than 4000 characters")
    else:
        assert fits


def _loaded_by_import(statement, *names):
    """Those of names that statement, run in a fresh interpreter, loads."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); " + statement + "; "
            "print(' '.join(sorted(set(sys.argv[2:]) & set(sys.modules))))")
    src = str(Path(cryslift.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code, src, *names], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    return out.split()


def test_import_loads_neither_numpy_nor_jsonschema():
    assert _loaded_by_import("import cryslift.cli", "numpy", "jsonschema") == []


def test_import_loads_no_process_pool():
    """Only run_sweep starts a pool, so only it pays for importing one."""
    assert _loaded_by_import("import cryslift.cli",
                             "multiprocessing", "concurrent.futures.process") == []


def test_verify_import_loads_no_builder_module():
    """The verifier shares no code with the builder, and the package
    namespace imports nothing, so the verifier loads alone."""
    package = ["cryslift",
               *(f"cryslift.{m.name}" for m in pkgutil.iter_modules(cryslift.__path__))]
    assert {"cryslift.lifting", "cryslift.units", "cryslift.cli"} <= set(package)
    assert _loaded_by_import("import cryslift.verify", *package) == ["cryslift", "cryslift.verify"]
