import copy
import dataclasses
import json
import re
import shlex
import time
from pathlib import Path

import jsonschema
import pytest

from cryslift import cli
from cryslift.cli import main
from cryslift.lifting import DetSpec, irr_crys_lift
from cryslift.transport import verify_assignment
from cryslift.units import UnitExpr


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_digits(capsys):
    code, doc = run_cli(capsys, "digits", "--p", "3", "--f", "2", "--b", "5")
    assert code == 0
    assert doc["digits"] == ["2", "1"]


def test_transport(capsys):
    code, doc = run_cli(capsys, "transport", "--a", "5", "--b", "2,3")
    assert code == 0
    assert doc["matrix"] == [["2", "3"]]


def test_transport_infeasible_exit_3(capsys):
    code, doc = run_cli(capsys, "transport", "--a", "5", "--b", "2,4")
    assert code == 3
    assert doc["kind"] == "infeasible"


def test_malformed_input_exit_2(capsys):
    code, doc = run_cli(capsys, "transport", "--a", "x,y", "--b", "1")
    assert code == 2
    assert doc["kind"] == "bad-input"


@pytest.mark.parametrize("argv, code, kind, error", [
    ("transport --a , --b 1", 2, "bad-input", "row and column sum lists must be nonempty"),
    ("regular --a 1 --b 0,1 --m 0", 2, "bad-input", "modulus m=0 must be >= 1"),
    ("regular --a 1 --b 0,1 --m 1 --C -1", 2, "bad-input",
     "magnitude bound C=-1 must be >= 0"),
    ("regular --a 1 --b 1 --m 1", 3, "infeasible",
     "regular problem needs at least two columns to rebalance"),
    ("regular --a 1 --b 0,0 --m 3", 3, "infeasible",
     "congruence mismatch: sum(a)=1 !≡ sum(b)=0 (mod 3)"),
    ("transport --a 1 --b 2", 3, "infeasible", "total mismatch: sum(a)=1 != sum(b)=2"),
], ids=["empty-sums", "m-below-1", "negative-C", "one-column", "congruence", "total"])
def test_transport_refusals(capsys, argv, code, kind, error):
    """Each refused instance exits with its own code, kind and text."""
    assert run_cli(capsys, *argv.split()) == (code, {"error": error, "kind": kind})


def test_regular(capsys):
    code, doc = run_cli(
        capsys, "regular", "--a", "0", "--b", "0,0", "--m", "3", "--C", "5"
    )
    assert code == 0
    assert doc["matrix"] == [["6", "-6"]]


def test_regular_offsets_then_kept_row(capsys):
    """Row 1's base is distinct and above C, so it is kept as is; row 0's
    offsets +-121 start above its largest entry."""
    code, doc = run_cli(capsys, "regular", "--a", "0,100", "--b", "60,40", "--m", "1")
    assert code == 0
    assert doc == {"matrix": [["121", "-121"], ["60", "40"]]}


def test_regular_5000_rows(capsys):
    """Weights stay small enough to print for 5000 rows of 12 columns and
    15,000 rows of 3: a row-by-row growth factor would pass the wire
    format's 4000 characters long before."""
    for a, b in [([1] * 5000, [0] * 11 + [2]), ([1] * 15000, [0, 0, 0])]:
        code, doc = run_cli(
            capsys, "regular", "--a", ",".join(map(str, a)),
            "--b", ",".join(map(str, b)), "--m", "3", "--C", "5",
        )
        assert code == 0, doc
        entries = [[int(v) for v in row] for row in doc["matrix"]]
        ok, violations = verify_assignment(entries, a, b, 3, 5)
        assert ok, violations[:5]


def test_lift_self_check(capsys):
    code, doc = run_cli(
        capsys, "lift", "--p", "3", "--f", "1", "--e", "1", "--d", "2",
        "--t", "2", "--theta-bar", "5", "--a", "3",
    )
    assert code == 0
    assert doc["self_check"] == "pass"
    assert doc["weights"] == ["2", "1"]


def test_lift_incompatible_exit_3(capsys):
    code, doc = run_cli(
        capsys, "lift", "--p", "3", "--f", "1", "--e", "1", "--d", "2",
        "--t", "2", "--theta-bar", "5", "--a", "4",
    )
    assert code == 3


def test_lift_wrong_exponent_count_exit_2(capsys):
    # |Sigma_F| = e*f = 1, so two determinant exponents are one too many
    code, doc = run_cli(
        capsys, "lift", "--p", "3", "--f", "1", "--e", "1", "--d", "2",
        "--t", "2", "--theta-bar", "5", "--a", "3,0",
    )
    assert code == 2
    assert doc["kind"] == "bad-input" and "expected |Sigma_F| = 1" in doc["error"]


LIFT_ARGV = ["lift", "--p", "3", "--f", "1", "--e", "1", "--d", "2", "--t", "2",
             "--theta-bar", "5", "--a", "3"]


def _patch_lift(monkeypatch, **changes):
    """Makes the builder return its certificate for LIFT_ARGV with changes."""
    def lift(theta_bar, psi, shape):
        return dataclasses.replace(irr_crys_lift(theta_bar, psi, shape), **changes)

    monkeypatch.setattr(cli, "irr_crys_lift", lift)


@pytest.mark.parametrize("weight", [10 ** 4000, -(10 ** 3999), 10 ** 5000],
                         ids=["4001-digits", "4001-chars-negative", "past-str-limit"])
def test_lift_refuses_weight_past_wire_format(capsys, monkeypatch, weight):
    """A weight the schema would refuse is refused before it is formatted,
    even one past the 4300 digits that str() takes."""
    _patch_lift(monkeypatch, weights=(2, weight))
    code, doc = run_cli(capsys, *LIFT_ARGV)
    assert code == 2
    assert doc == {"kind": "bad-input", "error": "weights[1]: more than 4000 characters "
                   "as a decimal string, past the wire format's limit"}


def test_lift_runs_schema_check_before_emitting(capsys, monkeypatch):
    _patch_lift(monkeypatch, psi=DetSpec((10 ** 4000,), UnitExpr.symbol("psi(varpi_F)")))
    code, doc = run_cli(capsys, *LIFT_ARGV)
    assert code == 2 and doc["kind"] == "bad-input"
    assert doc["error"].startswith("certificate schema violation at psi.a[0]: ")


def test_regular_refuses_entry_past_wire_format(capsys):
    """A matrix entry past 4000 characters exits 2 naming it: row sum
    10^4050 gives the entry 10^4050 + 1, 4051 digits."""
    code, doc = run_cli(capsys, "regular", "--a", "1" + "0" * 4050, "--b", "0,0", "--m", "1")
    assert code == 2
    assert doc == {"kind": "bad-input", "error": "matrix[0][0]: more than 4000 characters "
                   "as a decimal string, past the wire format's limit"}


def test_lift_names_large_q_minus_1(capsys):
    """q - 1 = 2^100000 - 1 has 30,103 digits, past what str() formats, and
    3^10000000 - 1 is refused by bit lengths before it is computed."""
    for p, f in [("2", "100000"), ("3", "10000000")]:
        started = time.perf_counter()
        code, doc = run_cli(capsys, "lift", "--p", p, "--f", f, "--e", "1", "--d", "1",
                            "--t", "1", "--theta-bar", "0", "--a", "0")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert doc == {"kind": "bad-input", "error": f"t=1 is not a multiple of q-1={p}^{f}-1"}


# e = 14,000 rows of odd d = 3: weights that doubled per row once passed
# the wire format's 4000 characters
WIDE_LIFT_ARGV = ["lift", "--p", "3", "--f", "1", "--e", "14000", "--d", "3", "--t", "2",
                  "--theta-bar", "0", "--a", ",".join(["0"] * 14000)]


def test_verify_round_trip(capsys, tmp_path):
    for argv in (LIFT_ARGV, WIDE_LIFT_ARGV):
        code, doc = run_cli(capsys, *argv)
        assert code == 0 and doc["self_check"] == "pass", argv[:10]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, result = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert result["pass"]


def test_verify_mutated_exit_3(capsys, tmp_path):
    code, doc = run_cli(
        capsys, "lift", "--p", "3", "--f", "1", "--e", "1", "--d", "2",
        "--t", "2", "--theta-bar", "5", "--a", "3",
    )
    doc["weights"][0] = "3"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, result = run_cli(capsys, "verify", str(path))
    assert code == 3
    assert not result["pass"]


def test_verify_schema_violation_exit_2(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"schema": "lift-certificate/v1"}))
    code, result = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert result["kind"] == "bad-input"


def _lift_doc(capsys):
    code, doc = run_cli(
        capsys, "lift", "--p", "3", "--f", "1", "--e", "1", "--d", "2",
        "--t", "2", "--theta-bar", "5", "--a", "3",
    )
    assert code == 0
    return doc


@pytest.mark.parametrize("path,value,where", [
    # would reach Fraction(num, 0) in the verifier
    (("psi", "uniformizer", "factors", 0, 2), "0", "psi.uniformizer.factors[0][2]"),
    # beyond the 4300-digit limit of int() on strings
    (("weights", 0), "9" * 5000, "weights[0]"),
], ids=["zero-denominator", "5000-digits"])
def test_verify_out_of_schema_integers_exit_2(capsys, tmp_path, path, value, where):
    doc = _lift_doc(capsys)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, result = run_cli(capsys, "verify", str(cert))
    assert code == 2
    assert result["kind"] == "bad-input"
    assert f"at {where}:" in result["error"]


def test_induction(capsys):
    code, doc = run_cli(capsys, "induction", "--q", "3", "--d", "2")
    assert code == 0
    assert doc["pass"]
    assert doc["counterexamples"] == []


@pytest.mark.parametrize("q, d", [(2, 40), (2, 23), (2049, 2), (3, 10 ** 9)])
def test_induction_above_m_limit_exit_2(capsys, q, d):
    started = time.perf_counter()
    code, doc = run_cli(capsys, "induction", "--q", str(q), "--d", str(d), "--b", "1")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert doc["kind"] == "bad-input"
    assert "at most 4194304" in doc["error"]


def test_induction_largest_acceptance_m(capsys):
    # M = 9^6 - 1 = 531440, the largest M of the acceptance grid
    code, doc = run_cli(capsys, "induction", "--q", "9", "--d", "6", "--b", "1")
    assert code == 0
    assert doc["M"] == 531440 and doc["pass"]


def test_twist(capsys):
    code, doc = run_cli(
        capsys, "twist", "--p", "3", "--f", "1", "--e", "1", "--d", "2",
        "--t", "2", "--rho", "[[5,1]]", "--rho-x", "[[1,-3]]",
    )
    assert code == 0
    assert doc["k"] == ["4"]


def test_twist_incongruent_exit_3(capsys):
    code, doc = run_cli(
        capsys, "twist", "--p", "3", "--f", "1", "--e", "1", "--d", "2",
        "--t", "2", "--rho", "[[5,1]]", "--rho-x", "[[4,0]]",
    )
    assert code == 3


@pytest.mark.parametrize("rho, rho_x", [
    ("[[5,1],[5,1],[9,5]]", "[[1,-3],[1,-3],[5,1]]"),  # three rows, |Sigma_F| = 1
    ("[[5,1]]", "[[1,-3],[1,-3]]"),
])
def test_twist_profiles_off_sigma_F_exit_2(capsys, rho, rho_x):
    code, doc = run_cli(
        capsys, "twist", "--p", "3", "--f", "1", "--e", "1", "--d", "2",
        "--t", "2", "--rho", rho, "--rho-x", rho_x,
    )
    assert code == 2
    assert doc["kind"] == "bad-input" and "|Sigma_F| = e*f = 1" in doc["error"]


def test_sweep_deterministic(capsys, tmp_path):
    argv = [
        "sweep", "--p-values", "2,3", "--f-max", "1", "--e-max", "1",
        "--d-max", "2", "--thetas-per-cell", "4", "--seed", "42",
    ]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["totals"]["failed"] == 0
    assert report["totals"]["instances"] == len(report["instances"])


def test_sweep_unwritable_out_exit_2(capsys, tmp_path):
    code, doc = run_cli(capsys, "sweep", "--p-values", "2", "--f-max", "1", "--e-max", "1",
                        "--d-max", "1", "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 2
    assert doc["kind"] == "bad-input" and set(doc) == {"error", "kind"}


def test_sweep_bad_out_fails_before_the_sweep(capsys, monkeypatch, tmp_path):
    def run_sweep(config):
        raise AssertionError("the sweep ran before --out was opened")

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    code, doc = run_cli(capsys, "sweep", "--p-values", "2", "--f-max", "1", "--e-max", "1",
                        "--d-max", "1", "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 2
    assert doc["kind"] == "bad-input" and set(doc) == {"error", "kind"}


def test_sweep_empty_range_rejected(capsys):
    code, doc = run_cli(capsys, "sweep", "--p-values", "")
    assert code == 2


def test_sweep_report_identical_for_any_jobs(capsys, tmp_path):
    argv = [
        "sweep", "--p-values", "2,3", "--f-max", "2", "--e-max", "2",
        "--d-max", "2", "--thetas-per-cell", "3", "--seed", "5",
    ]
    outs = [tmp_path / f"jobs{jobs}.json" for jobs in (1, 2)]
    for jobs, out in zip((1, 2), outs):
        assert main(argv + ["--jobs", str(jobs), "--out", str(out)]) == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_digits_large_prime_is_fast(capsys):
    started = time.perf_counter()
    code, doc = run_cli(capsys, "digits", "--p", str(2 ** 61 - 1), "--f", "1", "--b", "5")
    assert time.perf_counter() - started < 1.0
    assert code == 0 and doc["digits"] == ["5"]


def test_digits_prime_above_2_64_exit_2(capsys):
    code, doc = run_cli(capsys, "digits", "--p", str(2 ** 64 + 13), "--f", "1", "--b", "5")
    assert code == 2 and doc["kind"] == "bad-input"


@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_sweep_checking_nothing_rejected(capsys, value):
    code, _ = run_cli(capsys, "sweep", "--p-values", "2", "--thetas-per-cell", value)
    assert code == 2


@pytest.mark.parametrize("value", ["0", "-1"])
def test_induction_checking_nothing_rejected(capsys, value):
    code, doc = run_cli(capsys, "induction", "--q", "3", "--d", "2", "--full-b-cap", "1",
                        "--samples", value)
    assert code == 2 and doc["kind"] == "bad-input"


@pytest.mark.parametrize("samples", [[], ["--samples", "8"]])
def test_induction_samples_past_m_check_every_b(capsys, samples):
    # M = 8: the default 512 samples, or exactly M of them, are all of C_M
    code, doc = run_cli(capsys, "induction", "--q", "3", "--d", "2", "--full-b-cap", "0",
                        *samples)
    assert code == 0
    assert doc["M"] == doc["b_values_checked"] == 8 and doc["pass"]


def test_sweep_all_thetas(capsys, tmp_path):
    out = tmp_path / "all.json"
    assert main([
        "sweep", "--p-values", "2,3", "--f-max", "1", "--e-max", "1", "--d-max", "2",
        "--thetas-per-cell", "all", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["config"]["thetas_per_cell"] is None
    per_cell = {}
    for row in report["instances"]:
        cell = row["id"].rsplit(",b=", 1)[0]
        per_cell[cell] = per_cell.get(cell, 0) + 1
    expected = {f"p={p},f=1,e=1,d={d},t={p - 1}": p ** d - 1 for p in (2, 3) for d in (1, 2)}
    assert per_cell == expected
    total = sum(expected.values())
    assert report["totals"] == {"instances": total, "passed": total, "failed": 0}


@pytest.mark.parametrize("text,primes", [
    ("2-13", [2, 3, 5, 7, 11, 13]),
    ("5,20-30", [5, 23, 29]),
    ("3 - 7, 2", [2, 3, 5, 7]),
])
def test_sweep_prime_range(capsys, tmp_path, text, primes):
    out = tmp_path / "r.json"
    assert main(["sweep", "--p-values", text, "--f-max", "1", "--e-max", "1",
                 "--d-max", "1", "--thetas-per-cell", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(json.loads(out.read_text())["config"]["p_values"]) == primes


def test_sweep_prime_listed_twice_runs_once(capsys, tmp_path):
    out = tmp_path / "r.json"
    assert main(["sweep", "--p-values", "2-3,3", "--f-max", "1", "--e-max", "1",
                 "--d-max", "1", "--thetas-per-cell", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    ids = [row["id"] for row in report["instances"]]
    assert report["totals"]["instances"] == len(ids) == len(set(ids)) == 3


def test_sweep_prime_range_stops_at_field_cap(capsys, tmp_path):
    # primes above 2^max-field-bits have no cell, so a range skips them
    out = tmp_path / "r.json"
    started = time.perf_counter()
    assert main(["sweep", "--p-values", "2-1000000000000", "--max-field-bits", "4",
                 "--f-max", "1", "--e-max", "1", "--d-max", "1", "--thetas-per-cell", "1",
                 "--out", str(out)]) == 0
    assert time.perf_counter() - started < 5.0
    capsys.readouterr()
    assert json.loads(out.read_text())["config"]["p_values"] == [2, 3, 5, 7, 11, 13]


@pytest.mark.parametrize("text", ["2-100000000000", "2-40000,50000-90000"])
def test_sweep_prime_ranges_past_limit_exit_2(capsys, text):
    started = time.perf_counter()
    code, doc = run_cli(capsys, "sweep", "--p-values", text, "--max-field-bits", "40")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert doc == {"kind": "bad-input", "error": "--p-values ranges span more than 65536 "
                   "integers up to 2^max-field-bits"}


@pytest.mark.parametrize("text", ["24-28", "4", "-3"])
def test_sweep_range_without_primes_exit_2(capsys, text):
    code, _ = run_cli(capsys, "sweep", "--p-values", text)
    assert code == 2


@pytest.mark.parametrize("count,expected", [(16, 0), (17, 2)])
def test_verify_bounds_unit_factors(capsys, tmp_path, count, expected):
    cert = tmp_path / "cert.json"
    _, doc = run_cli(capsys, "lift", "--p", "3", "--f", "1", "--e", "1", "--d", "2",
                        "--t", "2", "--theta-bar", "5", "--a", "3")
    # psi(varpi_F) = prod of count factors x^(1/count); theta's value is its negation
    factors = [["psi(varpi_F)", "1", str(count)]] * count
    doc["psi"]["uniformizer"]["factors"] = copy.deepcopy(factors)
    doc["theta_uniformizer"]["factors"] = copy.deepcopy(factors)
    cert.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", str(cert))
    assert code == expected
    if expected == 0:
        assert out["pass"] is True
    else:
        assert out["kind"] == "bad-input" and "factors" in out["error"]


def test_verify_deeply_nested_json_exit_2(capsys, tmp_path):
    cert = tmp_path / "deep.json"
    cert.write_text("[" * 200_000)
    code, doc = run_cli(capsys, "verify", str(cert))
    assert code == 2
    assert doc["kind"] == "bad-input" and "nested" in doc["error"]


def test_twist_deeply_nested_json_exit_2(capsys):
    code, doc = run_cli(
        capsys, "twist", "--p", "3", "--f", "1", "--e", "1", "--d", "2",
        "--t", "2", "--rho", "[" * 20_000, "--rho-x", "[[1,-3]]",
    )
    assert code == 2
    assert doc["kind"] == "bad-input" and "nested" in doc["error"]


@pytest.mark.parametrize("rho", [
    '[["b","a"]]', "[[5.0,1]]", "[[[1],[0]]]", "[[true,false]]", "5", "[5]", "null",
    '{"a":1}', "[]",
])
def test_twist_profile_not_integer_lists_exit_2(capsys, rho):
    code, doc = run_cli(
        capsys, "twist", "--p", "3", "--f", "1", "--e", "1", "--d", "2",
        "--t", "2", "--rho", rho, "--rho-x", "[[1,-3]]",
    )
    assert code == 2
    assert doc["kind"] == "bad-input"


def _readme_cli_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_cli_examples_exit_0(capsys, tmp_path, monkeypatch):
    """Every command of the README's CLI block runs as written; verify reads
    the certificate that the lift line printed, and the regular line's
    matrix holds only integer strings that the certificate schema accepts."""
    schema = json.loads((Path(cli.__file__).parent / "schemas" /
                         "certificate.schema.json").read_text())
    int_matrix = {"type": "array", "minItems": 1, "items": {
        "type": "array", "minItems": 1, "items": schema["definitions"]["int"]}}
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_commands()
    assert [argv[1] for argv in commands] == [
        "digits", "transport", "regular", "lift", "verify", "induction", "twist", "sweep"]
    cert = next(argv[2] for argv in commands if argv[1] == "verify")
    for argv in commands:
        assert argv[0] == "cryslift"
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, (argv, out)
        if argv[1] == "lift":
            Path(cert).write_text(out)
        elif argv[1] == "regular":
            jsonschema.validate(json.loads(out)["matrix"], int_matrix)
    assert json.loads(Path("report.json").read_text())["totals"]["failed"] == 0

