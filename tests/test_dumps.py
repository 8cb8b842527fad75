"""certio.dumps against the call it stands for:
json.dumps(obj, indent=2, sort_keys=True) plus a newline, byte for byte."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from cryslift import cli
from cryslift.certio import certificate_to_json, dumps
from cryslift.errors import InfeasibleError
from cryslift.fields import FiniteFieldSpec, MultChar
from cryslift.lifting import DetSpec, LocalFieldShape, irr_crys_lift
from cryslift.sweep import SweepConfig, run_sweep
from cryslift.units import UnitExpr


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class Row(list):
    pass


class Count(int):
    """json writes int.__repr__ of an int subclass, not its own repr."""

    def __repr__(self):
        return f"Count({int(self)})"


# quotes, backslashes, control characters, non-ASCII and astral characters
# are what the string encoder escapes
TEXT = st.text(max_size=8) | st.sampled_from(['"', "\\", "/", "\n\r\t\x00\x1f\x7f", "é€😀", ""])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers().map(Count),
    st.floats(allow_nan=True, allow_infinity=True), TEXT,
)
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5),
    st.lists(inner, max_size=5).map(tuple),
    st.lists(inner, max_size=5).map(Row),
    st.lists(TEXT, max_size=5),  # the one-join path
    st.dictionaries(TEXT, inner, max_size=5),
), max_leaves=16)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(TEXT, VALUES, max_size=4))
def test_documents_match_json(doc):
    assert dumps(doc) == reference(doc)


@settings(max_examples=100, deadline=None)
@given(VALUES)
def test_any_value_matches_json(value):
    assert dumps(value) == reference(value)


def test_certificates_match_json():
    shape = LocalFieldShape(3, 2, 2, 3, 8)
    docs = []
    for b in range(0, 60, 7):
        for a0 in (1, 2):
            psi = DetSpec((a0, 0, 2, -3), UnitExpr.symbol("psi(varpi_F)"))
            try:
                cert = irr_crys_lift(MultChar(FiniteFieldSpec(3, 6), b), psi, shape)
            except InfeasibleError:
                continue
            docs.append(certificate_to_json(cert))
    assert len(docs) >= 4
    for doc in docs:
        assert dumps(doc) == reference(doc)


def test_sweep_report_matches_json():
    report = run_sweep(SweepConfig(p_values=(2, 3), f_max=2, e_max=2, d_max=2,
                                   thetas_per_cell=3, record="all"))
    assert report["instances"] and dumps(report) == reference(report)


def test_cli_error_document_matches_json(capsys):
    assert cli.main(["transport", "--a", "x", "--b", "1"]) == 2
    out = capsys.readouterr().out
    assert out == reference(json.loads(out))
    doc = {"error": 'bad "quoted" \\ input\né', "kind": "bad-input"}
    assert dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {1: "a", 2: [1]},
    {"outer": {2.5: None, True: 1, 3: "x"}},
    [{None: {False: []}}],
], ids=["int-keys", "nested-mixed-scalar-keys", "in-list"])
def test_non_string_keys_match_json(doc):
    """json converts int, float, bool and None keys to strings after
    sorting them; dumps hands such a dict to json and gets the same."""
    assert dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {1: "a", "b": 2},  # keys that do not sort
    {(1, 2): "a"},  # a key json refuses
    {"a": [1, {2, 3}]},  # a value json refuses
], ids=["unsortable-keys", "tuple-key", "set-value"])
def test_what_json_refuses_raises_type_error(doc):
    with pytest.raises(TypeError):
        reference(doc)
    with pytest.raises(TypeError):
        dumps(doc)


def test_cycle_raises_recursion_error():
    doc = {"a": []}
    doc["a"].append(doc)
    with pytest.raises(RecursionError):
        dumps(doc)
