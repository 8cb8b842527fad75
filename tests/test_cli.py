import copy
import dataclasses
import inspect
import io
import json
import pkgutil
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import cryslift
from cryslift import cli, sweep
from cryslift.cli import main
from cryslift.certio import certificate_to_json
from cryslift.fields import RESIDUE_DEGREE_MAX, MultChar
from cryslift.ledger import CrystCharSpec, twist_shout
from cryslift.lifting import DetSpec, LocalFieldShape, irr_crys_lift
from cryslift.sweep import FIELD_BITS_MAX
from cryslift.transport import verify_assignment
from cryslift.units import UnitExpr


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


SHAPE_ARGV = ["--p", "3", "--f", "1", "--e", "1", "--d", "2", "--t", "2"]
LIFT_ARGV = ["lift", *SHAPE_ARGV, "--theta-bar", "5", "--a", "3"]


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


@pytest.mark.parametrize("argv, error", [
    ("digits --p x --f 1 --b 1", "cryslift digits: argument --p: invalid int value: 'x'"),
    ("digits --p 3 --f 1", "cryslift digits: the following arguments are required: --b"),
    ("verify", "cryslift verify: the following arguments are required: certificate"),
    ("nosuch", "cryslift: argument command: invalid choice: 'nosuch'"),
    ("sweep --record some", "cryslift sweep: argument --record: invalid choice: 'some'"),
    ("digits --p 3 --f 1 --b 1 --x 2", "unrecognized arguments: --x 2"),
], ids=["bad-int", "missing-option", "missing-positional", "unknown-command",
        "bad-choice", "unknown-option"])
def test_argument_errors_print_bad_input(capsys, argv, error):
    """An error that the argument parser finds is malformed input like any
    other: one JSON document on stdout, exit 2, no usage text."""
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    doc = json.loads(out)
    assert set(doc) == {"error", "kind"} and doc["kind"] == "bad-input"
    assert error in doc["error"]


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: cryslift")


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
    code, doc = run_cli(capsys, *LIFT_ARGV)
    assert code == 0
    assert doc["self_check"] == "pass"
    assert doc["weights"] == ["2", "1"]


def test_lift_incompatible_exit_3(capsys):
    code, doc = run_cli(capsys, *LIFT_ARGV[:-1], "4")
    assert code == 3


def test_lift_wrong_exponent_count_exit_2(capsys):
    # |Sigma_F| = e*f = 1, so two determinant exponents are one too many
    code, doc = run_cli(capsys, *LIFT_ARGV[:-1], "3,0")
    assert code == 2
    assert doc["kind"] == "bad-input" and "expected |Sigma_F| = 1" in doc["error"]


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


def test_verify_round_trip(capsys, monkeypatch):
    """What lift prints, verify passes: read from stdin, as by the pipe
    `cryslift lift ... | cryslift verify -`."""
    for argv in (LIFT_ARGV, WIDE_LIFT_ARGV):
        code, doc = run_cli(capsys, *argv)
        assert code == 0 and doc["self_check"] == "pass", argv[:10]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        assert run_cli(capsys, "verify", "-") == (0, {"pass": True, "violations": []})


@pytest.mark.parametrize("checks, code, violations", [
    ({}, 0, []),
    ({"regular": True}, 0, []),
    ({"regular": False}, 3,
     ["recorded check regular=False disagrees with recomputed value True"]),
    ({"regular": True, "extra": True}, 3, ["unknown recorded check 'extra'"]),
], ids=["none", "only-regular", "wrong-value", "unknown-name"])
def test_verify_recorded_checks_may_be_left_out(capsys, tmp_path, checks, code, violations):
    """The verdict rests on recomputation: a certificate may leave out any
    recorded check, but each one it records must agree and be known."""
    _, doc = run_cli(capsys, *LIFT_ARGV)
    doc["checks"] = checks
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "verify", str(path)) == (
        code, {"pass": code == 0, "violations": violations})


def test_verify_mutated_exit_3(capsys, tmp_path):
    _, doc = run_cli(capsys, *LIFT_ARGV)
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


@pytest.mark.parametrize("path,value,where", [
    # would reach Fraction(num, 0) in the verifier
    (("psi", "uniformizer", "factors", 0, 2), "0", "psi.uniformizer.factors[0][2]"),
    # beyond the 4300-digit limit of int() on strings
    (("weights", 0), "9" * 5000, "weights[0]"),
], ids=["zero-denominator", "5000-digits"])
def test_verify_out_of_schema_integers_exit_2(capsys, tmp_path, path, value, where):
    _, doc = run_cli(capsys, *LIFT_ARGV)
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


BUDGET = "past the work budget of 60 s and 256 MB"


def _bad_input(error: str) -> dict:
    return {"kind": "bad-input", "error": error}


def _past_budget(prediction: str) -> dict:
    return _bad_input(f"{prediction}, {BUDGET}")


def test_induction_largest_acceptance_m(capsys):
    # M = 9^6 - 1 = 531440, the largest M of the acceptance grid
    code, doc = run_cli(capsys, "induction", "--q", "9", "--d", "6", "--b", "1")
    assert code == 0
    assert doc["M"] == 531440 and doc["pass"]


def _no_oracle_call(model, b):
    raise AssertionError(f"verify_det_induction called at M = {model.M}, b = {b}")


@pytest.mark.parametrize("argv, prediction", [
    # the default --samples
    ([], "2.147e+09 oracle group elements predict 257.7 s and 167.8 MB"),
    (["--samples", "4194303"], "1.759e+13 oracle group elements predict 2.111e+06 s and 167.8 MB"),
    (["--full-b-cap", "5000000"],
     "1.759e+13 oracle group elements predict 2.111e+06 s and 167.8 MB"),
], ids=["default", "samples", "full-b-cap"])
def test_induction_above_work_cap_exit_2(capsys, monkeypatch, argv, prediction):
    """b values times M = 2^22 - 1 past the time budget is refused (2)
    before any b is checked: unbounded, the default 512 samples would walk
    2.1e9 group elements, about 5 minutes."""
    monkeypatch.setattr(cli, "verify_det_induction", _no_oracle_call)
    started = time.perf_counter()
    code, doc = run_cli(capsys, "induction", "--q", "2", "--d", "22", *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert doc == _past_budget(prediction)


def test_induction_acceptance_cell_within_work_cap(capsys, monkeypatch):
    """The README's criterion-3 loop stays within the cap: its largest
    cell, 512 samples of M = 9^6 - 1, runs every sampled b."""
    checked = []

    def oracle(model, b):
        checked.append(b)
        return {"counterexamples": []}

    monkeypatch.setattr(cli, "verify_det_induction", oracle)
    code, doc = run_cli(capsys, "induction", "--q", "9", "--d", "6",
                        "--full-b-cap", "4000", "--samples", "512")
    assert code == 0
    assert doc["M"] == 531440 and doc["b_values_checked"] == len(set(checked)) == 512


def test_twist(capsys):
    code, doc = run_cli(capsys, "twist", *SHAPE_ARGV, "--rho", "[[5,1]]", "--rho-x", "[[1,-3]]")
    assert code == 0
    assert doc["k"] == ["4"]


def test_twist_incongruent_exit_3(capsys):
    code, doc = run_cli(capsys, "twist", *SHAPE_ARGV, "--rho", "[[5,1]]", "--rho-x", "[[4,0]]")
    assert code == 3


@pytest.mark.parametrize("rho, rho_x", [
    ("[[5,1],[5,1],[9,5]]", "[[1,-3],[1,-3],[5,1]]"),  # three rows, |Sigma_F| = 1
    ("[[5,1]]", "[[1,-3],[1,-3]]"),
])
def test_twist_profiles_off_sigma_F_exit_2(capsys, rho, rho_x):
    code, doc = run_cli(capsys, "twist", *SHAPE_ARGV, "--rho", rho, "--rho-x", rho_x)
    assert code == 2
    assert doc["kind"] == "bad-input" and "|Sigma_F| = e*f = 1" in doc["error"]


def _k_off_by_one(rho, rho_x, shape):
    theta = twist_shout(rho, rho_x, shape)
    return dataclasses.replace(theta, k=(theta.k[0] + 1,) + theta.k[1:])


def _twist_without_congruence(rho, rho_x, shape):
    """twist_shout without its congruence gate: k is the gap over d, a
    multiple of t or not."""
    gaps = [sum(w) - sum(w_x) for w, w_x in zip(rho.weights, rho_x.weights)]
    return CrystCharSpec(tuple(g // shape.d for g in gaps), UnitExpr.symbol("eta"))


@pytest.mark.parametrize("fault, rho_x", [
    (_k_off_by_one, "[[1,-3]]"),  # sum(rho) - sum(rho_x) = 8 = d*4, and k = 5
    (_twist_without_congruence, "[[4,0]]"),  # k = 1 is no multiple of t = 2
], ids=["k-off-by-one", "k-not-multiple-of-t"])
def test_twist_self_check_fails_exit_4(capsys, monkeypatch, fault, rho_x):
    """A wrong twist is caught before it is printed: exit 4, and the one
    document on stdout is the error, with no k in it."""
    monkeypatch.setattr(cli, "twist_shout", fault)
    code, doc = run_cli(capsys, "twist", *SHAPE_ARGV, "--rho", "[[5,1]]", "--rho-x", rho_x)
    assert code == cli.EXIT_INTERNAL
    assert doc == {"error": "twist failed self-check: some k is not "
                            "(sum(rho) - sum(rho_x))/d, or not a multiple of t",
                   "kind": "internal-invariant"}


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


REFUSED_SWEEP_ARGV = ["sweep", "--p-values", "2", "--f-max", "1", "--e-max", "100000000",
                      "--d-max", "1", "--thetas-per-cell", "1"]
# four cells of 1, 3, 2 and 4 instances, run in-process
FAILING_SWEEP_ARGV = ["sweep", "--p-values", "2,3", "--f-max", "1", "--e-max", "1",
                      "--d-max", "2", "--thetas-per-cell", "4"]


@pytest.mark.parametrize("existing", [True, False], ids=["file-exists", "file-missing"])
@pytest.mark.parametrize("fault", ["refused", "fails-mid-grid"])
def test_refused_sweep_keeps_out_file(capsys, monkeypatch, tmp_path, fault, existing):
    """A sweep refused before any cell runs, or one that fails mid-grid,
    leaves --out as it was, and no file where there was none; a sweep that
    runs replaces the whole file with its report."""
    out = tmp_path / "r.json"
    before = b"an earlier report\n" * 1000 if existing else None
    if existing:
        out.write_bytes(before)
    if fault == "refused":
        argv, expected = REFUSED_SWEEP_ARGV, (2, "bad-input")
    else:
        argv, expected = FAILING_SWEEP_ARGV, (4, "internal-invariant")
        verify, calls = sweep.verify_certificate, []

        def failing(doc):
            calls.append(doc)
            if len(calls) == 3:
                raise AssertionError("the verifier broke mid-grid")
            return verify(doc)

        monkeypatch.setattr(sweep, "verify_certificate", failing)
    code, doc = run_cli(capsys, *argv, "--out", str(out))
    assert (code, doc["kind"]) == expected
    assert (out.read_bytes() if out.exists() else None) == before
    if fault != "refused":
        assert len(calls) == 3 and doc["error"] == "the verifier broke mid-grid"
    monkeypatch.undo()
    argv = ["sweep", "--p-values", "2", "--f-max", "1", "--e-max", "1", "--d-max", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv) == 0
    assert out.read_text() == capsys.readouterr().out


def test_sweep_report_failing_its_schema_exit_4(capsys, monkeypatch, tmp_path):
    """No input makes the sweep's report fail its schema, so a report that
    does is an internal invariant breach (exit 4), found before --out is
    emptied."""
    run_sweep = cli.run_sweep

    def bad_pass_flag(config):
        report = run_sweep(config)
        report["instances"][0]["pass"] = 1
        return report

    monkeypatch.setattr(cli, "run_sweep", bad_pass_flag)
    out = tmp_path / "r.json"
    out.write_bytes(b"an earlier report\n")
    code, doc = run_cli(capsys, "sweep", "--p-values", "2", "--f-max", "1", "--e-max", "1",
                        "--d-max", "1", "--out", str(out))
    assert code == 4
    assert doc == {"error": "sweep report failed self-check: report schema violation at "
                            "instances[0].pass: expected true or false",
                   "kind": "internal-invariant"}
    assert out.read_bytes() == b"an earlier report\n"


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


FIELD_BITS_REFUSED = _bad_input(
    f"max_field_bits must be at most {FIELD_BITS_MAX}, so that a cell's t and theta_bar fit "
    "the wire format's 4000 characters")


def test_sweep_max_field_bits_above_cap_exit_2(capsys):
    """One step above the wire format's field cap is refused before 2 is
    raised to it."""
    started = time.perf_counter()
    code, doc = run_cli(capsys, "sweep", "--max-field-bits", str(FIELD_BITS_MAX + 1))
    assert time.perf_counter() - started < 1.0
    assert (code, doc) == (2, FIELD_BITS_REFUSED)


def _run_limited(code: str, *argv: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    """Run code in a child process with 1 GB of address space and cryslift
    on its path, fed stdin; it must end within a second.  Tier-1 runs the
    CLI contract this way, so CI runs the installed entry point only to
    show that it resolves."""
    code = ("import resource, sys; sys.path.insert(0, sys.argv[1]); "
            "resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9)); " + code)
    src = str(Path(cryslift.__file__).resolve().parent.parent)
    started = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code, src, *argv],
                         input=stdin, capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - started < 1.0
    return out


def _run_cli_limited(*argv: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    return _run_limited("from cryslift.cli import main; sys.exit(main(sys.argv[2:]))", *argv,
                        stdin=stdin)


def _square_problem(command: str, n: int, *more: str) -> str:
    """An n x n problem: n row sums of 1, and n column sums that add to n."""
    return " ".join([command, "--a", ",".join(["1"] * n),
                     "--b", ",".join(["0"] * (n - 1) + [str(n)]), *more])


def _lift_cert(change) -> str:
    """The certificate of LIFT_ARGV, as JSON after change(doc)."""
    shape = LocalFieldShape(3, 1, 1, 2, 2)
    psi = DetSpec((3,), UnitExpr.symbol("psi(varpi_F)"))
    doc = certificate_to_json(irr_crys_lift(MultChar(shape.residue_field_E, 5), psi, shape))
    change(doc)
    return json.dumps(doc)


def _row(name: str, argv: str, code: int, doc: dict, stdin: str | None = None):
    """A row of CLI_CONTRACT: argv, fed stdin, exits with code and prints doc."""
    return pytest.param(argv.split(), stdin, code, doc, id=name)


DEGREE_REFUSED = _bad_input("the degree 65537 of the field over F_3 must be at most 65536")

# The CLI's contract, pinned once: each refusal's argv (and stdin), exit
# code and whole stdout document.  The test keeps the name of its first
# fourteen rows, the work refusals.
CLI_CONTRACT = [
    # each of these three exited 1 with a MemoryError traceback when nothing
    # bounded its work
    _row("lift", "lift --p 2 --f 1 --e 2000 --d 65536 --t 1 --theta-bar 0 --a "
         + ",".join(["0"] * 2000),
         2, _past_budget("1.311e+08 lift weights predict 170.4 s and 3.539e+04 MB")),
    _row("transport", _square_problem("transport", 5000),
         2, _past_budget("2.5e+07 matrix entries predict 45 s and 9750 MB")),
    _row("regular", _square_problem("regular", 20000, "--m", "3"),
         2, _past_budget("4e+08 matrix entries predict 720 s and 1.56e+05 MB")),
    # e_max has no bound of its own: 10^8 cells are refused by their prediction
    _row("sweep-cells",
         "sweep --p-values 2 --f-max 1 --e-max 100000000 --d-max 1 --thetas-per-cell 1",
         2, _past_budget("1e+08 cells, 1e+08 sweep instances, 5e+15 lift weights, 1e+08 "
                         "report rows predict 6.5e+09 s and 2.45e+05 MB")),
    # 65,536 cells of one instance each, but sum(e) = 2^31 weights
    _row("sweep-weights",
         "sweep --p-values 2 --f-max 1 --d-max 1 --e-max 65536 --thetas-per-cell 1",
         2, _past_budget("6.554e+04 cells, 6.554e+04 sweep instances, 2.148e+09 lift weights, "
                         "6.554e+04 report rows predict 2798 s and 160.6 MB")),
    # 393 cells of one weight per instance, but 26M instances: the rows of
    # the first six cells under --record all are past the memory budget
    _row("sweep-instances", "sweep --p-values 65537-70000 --max-field-bits 17 --f-max 1 "
         "--e-max 1 --d-max 1 --thetas-per-cell all",
         2, _past_budget("6 cells, 3.933e+05 sweep instances, 3.933e+05 lift weights, "
                         "3.933e+05 report rows predict 13.1 s and 293 MB")),
    _row("p-range", "sweep --p-values 2-100000000000 --max-field-bits 40",
         2, _past_budget("1e+11 integers tested for primality predict 3.8e+05 s and 0 MB")),
    _row("p-ranges-grid", "sweep --p-values 2-40000,50000-90000 --max-field-bits 40",
         2, _past_budget("2.069e+04 cells, 3.308e+05 sweep instances, 9.328e+05 lift weights, "
                         "3.308e+05 report rows predict 13.04 s and 256 MB")),
    # one b of an M whose walk is past the memory budget
    _row("induction-M-2^40", "induction --q 2 --d 40 --b 1",
         2, _past_budget("1.1e+12 oracle group elements predict 1.319e+05 s and 4.398e+07 MB")),
    # 335 MB of arrays for one b
    _row("induction-M-2^23", "induction --q 2 --d 23 --b 1",
         2, _past_budget("8.389e+06 oracle group elements predict 1.007 s and 335.5 MB")),
    # q^d is not computed past 2^1000
    _row("induction-d-10^9", f"induction --q 3 --d {10 ** 9} --b 1",
         2, _past_budget("over 1e300 oracle group elements predict 1.286e+294 s and "
                         "4.286e+296 MB")),
    _row("induction-samples-default", "induction --q 2 --d 22",
         2, _past_budget("2.147e+09 oracle group elements predict 257.7 s and 167.8 MB")),
    _row("induction-samples", "induction --q 2 --d 22 --samples 4194303",
         2, _past_budget("1.759e+13 oracle group elements predict 2.111e+06 s and 167.8 MB")),
    _row("induction-full-b-cap", "induction --q 2 --d 22 --full-b-cap 5000000",
         2, _past_budget("1.759e+13 oracle group elements predict 2.111e+06 s and 167.8 MB")),
    # a residue degree past the cap is refused before p is raised to it
    _row("digits-degree-65537", "digits --p 3 --f 65537 --b 5", 2, DEGREE_REFUSED),
    _row("lift-degree-65537", "lift --p 3 --f 1 --e 1 --d 65537 --t 2 --theta-bar 0 --a 0",
         2, DEGREE_REFUSED),
    # f and d each below the cap, their product f*d above it
    _row("lift-f*d", "lift --p 2 --f 2 --e 1 --d 32769 --t 3 --theta-bar 0 --a 0,0",
         2, _bad_input("the degree 65538 of the field over F_2 must be at most 65536")),
    _row("sweep-field-bits-65537", "sweep --max-field-bits 65537", 2, FIELD_BITS_REFUSED),
    # below the residue degree cap, but p^235 has 4,300 digits: this exited 2
    # with str()'s text only after earlier cells ran
    _row("sweep-field-bits-14400", "sweep --p-values 2305843009213693951 --f-max 1 --e-max 1 "
         "--d-max 235 --thetas-per-cell 1 --max-field-bits 14400", 2, FIELD_BITS_REFUSED),
    # the verifier compares e*f*d with the weights' count before any power of p
    _row("verify-degree-10^12", "verify -", 3, {"pass": False, "violations": [
        "2 weights, expected e*f*d with e=1, f=1, d=1000000000000"]},
        stdin=_lift_cert(lambda doc: doc["shape"].update(d="1000000000000"))),
    _row("verify-no-checks", "verify -", 2, _bad_input(
        "certificate schema violation at top level: missing required key 'checks'"),
        stdin=_lift_cert(lambda doc: doc.pop("checks"))),
]


@pytest.mark.parametrize("argv, stdin, code, doc", CLI_CONTRACT)
def test_work_past_budget_exit_2(argv, stdin, code, doc):
    """Every refusal of CLI_CONTRACT, run as the console script would be,
    in a child process with 1 GB of address space: its exit code and
    document on stdout, nothing on stderr, within a second."""
    out = _run_cli_limited(*argv, stdin=stdin)
    assert (out.returncode, json.loads(out.stdout), out.stderr) == (code, doc, "")


def _run_contract_in_process(capsys, name: str) -> None:
    """The CLI_CONTRACT row name, run through main in this process: the
    same exit code and document, within a second."""
    argv, _, code, doc = next(row for row in CLI_CONTRACT if row.id == name).values
    started = time.perf_counter()
    assert run_cli(capsys, *argv) == (code, doc)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("name", ["induction-M-2^40", "induction-M-2^23", "induction-d-10^9"],
                         ids=["2-40", "2-23", "3-1000000000"])
def test_induction_above_m_limit_exit_2(capsys, name):
    _run_contract_in_process(capsys, name)


@pytest.mark.parametrize("name", ["p-range", "p-ranges-grid"],
                         ids=["2-100000000000", "2-40000,50000-90000"])
def test_sweep_prime_ranges_past_limit_exit_2(capsys, name):
    _run_contract_in_process(capsys, name)


@pytest.mark.parametrize("name", ["digits-degree-65537", "lift-degree-65537", "lift-f*d"],
                         ids=["digits-f", "lift-d", "lift-f*d"])
def test_residue_degree_above_cap_exit_2(capsys, name):
    _run_contract_in_process(capsys, name)


def test_sweep_e_max_above_cell_cap_exit_2(capsys):
    _run_contract_in_process(capsys, "sweep-cells")


@pytest.mark.parametrize("name", ["sweep-weights", "sweep-instances"],
                         ids=["weights", "instances"])
def test_sweep_work_above_cap_exit_2(capsys, name):
    _run_contract_in_process(capsys, name)


@pytest.mark.parametrize("expr, cap", [
    ("FiniteFieldSpec(3, 10 ** 8)", RESIDUE_DEGREE_MAX),
    ("LocalFieldShape(3, 1, 1, 10 ** 8, 2).residue_field_E", RESIDUE_DEGREE_MAX),
    ("run_sweep(SweepConfig(max_field_bits=10 ** 10, p_values=(2,), f_max=1, e_max=1, "
     "d_max=1, thetas_per_cell=1))", FIELD_BITS_MAX),
], ids=["field", "shape-E", "sweep"])
def test_library_refuses_degree_above_cap(expr, cap):
    """The library's own types refuse a degree above RESIDUE_DEGREE_MAX, and
    a sweep a field above FIELD_BITS_MAX bits, before p is raised to it,
    without the CLI."""
    out = _run_limited(
        "from cryslift.fields import FiniteFieldSpec; "
        "from cryslift.lifting import LocalFieldShape; "
        "from cryslift.sweep import SweepConfig, run_sweep\n"
        f"try:\n    {expr}\nexcept ValueError as exc:\n    print(exc); sys.exit(2)")
    assert out.returncode == 2, out.stderr
    assert f"must be at most {cap}" in out.stdout


def test_sweep_max_field_bits_at_cap_runs(capsys, tmp_path):
    out = tmp_path / "r.json"
    assert main(["sweep", "--max-field-bits", str(FIELD_BITS_MAX), "--p-values", "2",
                 "--f-max", "1", "--e-max", "1", "--d-max", "1", "--thetas-per-cell", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["totals"] == {"instances": 1, "passed": 1, "failed": 0}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_field_of_2_64_elements(capsys, tmp_path, jobs):
    """The sampled cells of fields up to 2^64 elements run, though
    range(q - 1) has no len() past 2^63 - 1."""
    out = tmp_path / "r.json"
    assert main(["sweep", "--p-values", "2", "--f-max", "64", "--e-max", "1", "--d-max", "1",
                 "--max-field-bits", "64", "--jobs", jobs, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    # 2^f - 1 thetas at f <= 4, and 16 from f = 5 on
    assert report["totals"] == {"instances": 986, "passed": 986, "failed": 0}
    assert len(report["instances"]) == 986 and all(r["pass"] for r in report["instances"])


def test_sweep_a_bound_past_wire_format_exit_2(capsys):
    code, doc = run_cli(capsys, "sweep", "--a-bound", "1" + "0" * 3999)
    assert code == 2 and doc["kind"] == "bad-input" and "a_bound" in doc["error"]


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


@pytest.mark.parametrize("text", ["24-28", "4", "-3"])
def test_sweep_range_without_primes_exit_2(capsys, text):
    code, _ = run_cli(capsys, "sweep", "--p-values", text)
    assert code == 2


@pytest.mark.parametrize("bits", ["0", "-1"])
def test_sweep_field_bits_below_1_with_range_exit_2(capsys, bits):
    code, doc = run_cli(capsys, "sweep", "--p-values", "2-5", "--max-field-bits", bits)
    assert code == 2
    assert doc == {"kind": "bad-input", "error": "max_field_bits must be >= 1"}


@pytest.mark.parametrize("count,expected", [(16, 0), (17, 2)])
def test_verify_bounds_unit_factors(capsys, tmp_path, count, expected):
    cert = tmp_path / "cert.json"
    _, doc = run_cli(capsys, *LIFT_ARGV)
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
    code, doc = run_cli(capsys, "twist", *SHAPE_ARGV, "--rho", "[" * 20_000, "--rho-x", "[[1,-3]]")
    assert code == 2
    assert doc["kind"] == "bad-input" and "nested" in doc["error"]


@pytest.mark.parametrize("rho", [
    '[["b","a"]]', "[[5.0,1]]", "[[[1],[0]]]", "[[true,false]]", "5", "[5]", "null",
    '{"a":1}', "[]",
])
def test_twist_profile_not_integer_lists_exit_2(capsys, rho):
    code, doc = run_cli(capsys, "twist", *SHAPE_ARGV, "--rho", rho, "--rho-x", "[[1,-3]]")
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


def _readme_layout_rows():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Package layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return [(re.fullmatch(r"\| `(cryslift\.\w+)`", module).group(1), re.findall(r"`(\w+)`", names))
            for module, names, _ in rows]


def test_readme_layout_names_import_from_their_modules():
    """The README's package-layout table, the map of import paths, has one
    row per module of the package, and every name in a row's names column
    imports from that row's module, which defines it."""
    rows = _readme_layout_rows()
    modules = [module for module, _ in rows]
    assert sorted(modules) == sorted(
        f"cryslift.{m.name}" for m in pkgutil.iter_modules(cryslift.__path__))
    for module, names in rows:
        assert names, module
        imported = {}
        exec(f"from {module} import {', '.join(names)}", imported)
        for name in names:
            obj = imported[name]
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module, (module, name)
