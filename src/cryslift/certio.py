"""JSON wire format for certificates and reports.

This module writes certificates and checks them against their schema;
only the independent verifier (:mod:`cryslift.verify`) reads one back.

All integers serialize as decimal strings so that consumers without
big-integer support cannot silently lose precision.  The canonical
embedding orderings documented in :mod:`cryslift.lifting` are part of
this format.  :func:`dumps` writes every document the package emits:
its bytes are those of ``json.dumps(obj, indent=2, sort_keys=True)``
plus a newline, written by a small recursive writer rather than json's
pure-Python indenting encoder.
"""

from __future__ import annotations

import json
import re

from .errors import CertificateError
from .lifting import LiftCertificate

CERTIFICATE_SCHEMA_ID = "lift-certificate/v1"
REPORT_SCHEMA_ID = "sweep-report/v1"
# maxLength of every integer string in the certificate schema: below the
# 4300-digit limit of int() on strings, so that every schema-valid
# certificate parses
MAX_INT_STR_LEN = 4000
# the integers whose decimal strings stay within MAX_INT_STR_LEN characters
_INT_STR_MIN, _INT_STR_MAX = -10 ** (MAX_INT_STR_LEN - 1), 10 ** MAX_INT_STR_LEN
# maxItems of every unit's factor list: the verifier sums the exponents
# of a unit's factors, which costs quadratic time in their number when
# the denominators are large
MAX_UNIT_FACTORS = 16


def certificate_to_json(cert: LiftCertificate) -> dict:
    return {
        "schema": CERTIFICATE_SCHEMA_ID,
        "shape": cert.shape.to_json(),
        "theta_bar": {"b": str(cert.theta_bar.b)},
        "psi": {
            "a": list(map(str, cert.psi.a)),
            "uniformizer": cert.psi.uniformizer.to_json(),
        },
        "weights": list(map(str, cert.weights)),
        "theta_uniformizer": cert.theta_uniformizer.to_json(),
        "checks": dict(cert.checks),
        "hypotheses": dict(cert.hypotheses),
    }


def check_int_str_len(values, path: str) -> None:
    """Refuse the first integer whose decimal string would be longer than
    MAX_INT_STR_LEN characters, naming it as path[i], without formatting
    it: str() refuses one past 4300 digits with a text that names nothing."""
    for i, v in enumerate(values):
        if not _INT_STR_MIN < v < _INT_STR_MAX:
            raise CertificateError(f"{path}[{i}]: more than {MAX_INT_STR_LEN} characters "
                                   "as a decimal string, past the wire format's limit")


def validate_certificate_schema(obj: dict) -> None:
    """Structural validation only; identity checks live in the verifier.

    Accepts exactly the documents that ``schemas/certificate.schema.json``
    (``lift-certificate/v1``) accepts, checked by hand rather than by a
    generic schema engine.
    """
    try:
        _check_certificate(obj)
    except _Violation as exc:
        raise CertificateError(f"certificate schema violation at {exc}") from None


def validate_report_schema(obj: dict) -> None:
    """Accepts exactly the documents that ``schemas/report.schema.json``
    (``sweep-report/v1``) accepts."""
    try:
        _check_report(obj)
    except _Violation as exc:
        raise CertificateError(f"report schema violation at {exc}") from None


# Hand-written checks of the two schema files.  Types follow JSON Schema
# draft 7 over parsed JSON: "object" is dict, "array" is list, "integer"
# is a non-bool int or an integral float, and enum/const never equate a
# bool with a number.  "pattern" is matched with re.search, so "$" also
# matches before a final newline ("12\n" is an integer string).

_INT_STR = re.compile(r"^-?[0-9]+$")
_DEN_STR = re.compile(r"^[1-9][0-9]*$")
_CERT_REQUIRED = ("schema", "shape", "theta_bar", "psi", "weights",
                  "theta_uniformizer", "checks")
_CERT_KEYS = _CERT_REQUIRED + ("hypotheses", "self_check")
_REPORT_KEYS = ("schema", "config", "instances", "totals")
_SHAPE_KEYS = ("p", "f", "e", "d", "t")
_PSI_KEYS = ("a", "uniformizer")
_UNIT_KEYS = ("sign", "factors")
_TOTALS_KEYS = ("instances", "passed", "failed")


class _Violation(Exception):
    """A schema rule broken at a JSON path such as ``psi.a[3]``."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path or 'top level'}: {reason}")


def _object(obj, path: str, required, allowed=None) -> dict:
    if not isinstance(obj, dict):
        raise _Violation(path, "expected an object")
    for key in required:
        if key not in obj:
            raise _Violation(path, f"missing required key {key!r}")
    if allowed is not None:
        for key in obj:
            if key not in allowed:
                raise _Violation(path, f"unexpected key {key!r}")
    return obj


def _is_int_str(value, pattern: re.Pattern = _INT_STR) -> bool:
    return (isinstance(value, str) and len(value) <= MAX_INT_STR_LEN
            and pattern.search(value) is not None)


def _int_str(value, path: str, pattern: re.Pattern = _INT_STR) -> None:
    if not _is_int_str(value, pattern):
        raise _Violation(path, f"expected a string matching {pattern.pattern} "
                               f"of at most {MAX_INT_STR_LEN} characters")


def _int_str_list(value, path: str) -> None:
    if not isinstance(value, list) or not value:
        raise _Violation(path, "expected a non-empty array")
    for i, item in enumerate(value):
        if not _is_int_str(item):  # the item's path is formatted only on failure
            _int_str(item, f"{path}[{i}]")


def _unit(obj, path: str) -> None:
    _object(obj, path, _UNIT_KEYS, _UNIT_KEYS)
    sign = obj["sign"]
    if isinstance(sign, bool) or sign not in (1, -1):
        raise _Violation(f"{path}.sign", "expected 1 or -1")
    factors = obj["factors"]
    if not isinstance(factors, list):
        raise _Violation(f"{path}.factors", "expected an array")
    if len(factors) > MAX_UNIT_FACTORS:
        raise _Violation(f"{path}.factors", f"expected at most {MAX_UNIT_FACTORS} factors")
    for i, factor in enumerate(factors):
        at = f"{path}.factors[{i}]"
        if not isinstance(factor, list) or len(factor) != 3:
            raise _Violation(at, "expected [label, numerator, denominator]")
        label, num, den = factor
        if not isinstance(label, str):
            raise _Violation(f"{at}[0]", "expected a string")
        _int_str(num, f"{at}[1]")
        _int_str(den, f"{at}[2]", _DEN_STR)


def _check_certificate(obj) -> None:
    _object(obj, "", _CERT_REQUIRED, _CERT_KEYS)
    if obj["schema"] != CERTIFICATE_SCHEMA_ID:
        raise _Violation("schema", f"expected {CERTIFICATE_SCHEMA_ID!r}")
    shape = _object(obj["shape"], "shape", _SHAPE_KEYS, _SHAPE_KEYS)
    for key in _SHAPE_KEYS:
        _int_str(shape[key], f"shape.{key}")
    _int_str(_object(obj["theta_bar"], "theta_bar", ("b",), ("b",))["b"], "theta_bar.b")
    psi = _object(obj["psi"], "psi", _PSI_KEYS, _PSI_KEYS)
    _int_str_list(psi["a"], "psi.a")
    _unit(psi["uniformizer"], "psi.uniformizer")
    _int_str_list(obj["weights"], "weights")
    _unit(obj["theta_uniformizer"], "theta_uniformizer")
    for name, value in _object(obj["checks"], "checks", ()).items():
        if value is not None and not isinstance(value, bool):
            raise _Violation(f"checks.{name}", "expected true, false or null")
    if "hypotheses" in obj:
        for name, value in _object(obj["hypotheses"], "hypotheses", ()).items():
            if not isinstance(value, str):
                raise _Violation(f"hypotheses.{name}", "expected a string")
    if "self_check" in obj and obj["self_check"] not in ("pass", "fail"):
        raise _Violation("self_check", "expected 'pass' or 'fail'")


def _is_integer(value) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _check_report(obj) -> None:
    _object(obj, "", _REPORT_KEYS, _REPORT_KEYS)
    if obj["schema"] != REPORT_SCHEMA_ID:
        raise _Violation("schema", f"expected {REPORT_SCHEMA_ID!r}")
    _object(obj["config"], "config", ())
    instances = obj["instances"]
    if not isinstance(instances, list):
        raise _Violation("instances", "expected an array")
    for i, row in enumerate(instances):
        at = f"instances[{i}]"
        _object(row, at, ("id", "pass"))
        if not isinstance(row["id"], str):
            raise _Violation(f"{at}.id", "expected a string")
        if not isinstance(row["pass"], bool):
            raise _Violation(f"{at}.pass", "expected true or false")
        if "violations" in row:
            violations = row["violations"]
            if not isinstance(violations, list):
                raise _Violation(f"{at}.violations", "expected an array")
            for j, text in enumerate(violations):
                if not isinstance(text, str):
                    raise _Violation(f"{at}.violations[{j}]", "expected a string")
    totals = _object(obj["totals"], "totals", _TOTALS_KEYS, _TOTALS_KEYS)
    for key in _TOTALS_KEYS:
        if not _is_integer(totals[key]):
            raise _Violation(f"totals.{key}", "expected an integer")


# json's own string encoder, the C one where the interpreter has it; with
# indent=2, json.dumps runs its pure-Python encoder, which calls it per string
_encode_str = json.encoder.encode_basestring_ascii


def dumps(obj: dict) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    in about half the time on certificates, whose integer-string lists it
    joins in one call.  It takes a stack frame or two per level of nesting,
    so a value nested deeper than about half the recursion limit, or one
    that contains itself, raises RecursionError (json gets twice as deep,
    and raises ValueError on a cycle)."""
    return _write(obj, "\n") + "\n"


def _write(obj, nl: str) -> str:
    """obj as json writes it at the depth whose line break and indent is nl.
    No value is both a container and a scalar, so the containers can go
    first; json's order matters only among the literals and int."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        try:
            return "{" + inner + ("," + inner).join([
                _encode_str(k) + ": " + (_encode_str(v) if isinstance(v, str)
                                         else _write(v, inner))
                for k, v in sorted(obj.items())]) + nl + "}"
        except TypeError:
            # a key that is not a string, which json converts (or refuses)
            # after sorting; or a value json refuses, which it then raises
            return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        if isinstance(obj[0], str):
            try:  # a list of strings, such as weights and psi.a, in one join
                return "[" + inner + ("," + inner).join(map(_encode_str, obj)) + nl + "]"
            except TypeError:
                pass
        return "[" + inner + ("," + inner).join([_write(v, inner) for v in obj]) + nl + "]"
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    # floats (NaN and the infinities too), and json's TypeError for the rest
    return json.dumps(obj)
