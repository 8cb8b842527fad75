"""Command-line interface.

Subcommands mirror the library operations; every command prints a JSON
document on stdout.  Exit codes: 0 success, 2 malformed input, 3
infeasible instance or failed verification, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from . import certio, verify
from .errors import CertificateError, InfeasibleError
from .fields import FiniteFieldSpec, MultChar, digits, is_prime
from .induction import FrobeniusModel, verify_det_induction
from .ledger import WeightProfile, twist_shout
from .lifting import DetSpec, LocalFieldShape, irr_crys_lift
from .sweep import SweepConfig, run_sweep
from .transport import regular_transport, transport, verify_assignment
from .units import UnitExpr

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4

# Largest M = q^d - 1 for `cryslift induction`: the oracle walks C_M per b
# with int64 arrays of M entries, about 160 MB and 1-2 s per b at the limit.
INDUCTION_M_MAX = 2 ** 22

# Most integers that the ranges of `cryslift sweep --p-values` may span: each
# is tested for primality before any cell runs, about 0.5 s for 2^16
# integers near 2^64 and 0.1 s below 2^16.
P_RANGE_MAX = 2 ** 16


def _emit(obj: dict) -> None:
    sys.stdout.write(certio.dumps(obj))


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _p_values(text: str, cap: int) -> list[int]:
    """Comma-separated primes, where LO-HI stands for every prime in [LO, HI]
    up to cap: a larger prime has no cell, since every cell has p <= cap.
    The ranges may span at most P_RANGE_MAX integers together."""
    ps: list[int] = []
    spanned = 0
    for part in text.split(","):
        lo, dash, hi = part.strip().partition("-")
        if dash and lo:
            lo, hi = int(lo), min(int(hi), cap)
            spanned += max(hi - lo + 1, 0)
            if spanned > P_RANGE_MAX:
                raise ValueError(f"--p-values ranges span more than {P_RANGE_MAX} "
                                 "integers up to 2^max-field-bits")
            ps.extend(p for p in range(lo, hi + 1) if is_prime(p))
        elif part.strip():
            ps.append(int(part))
    return ps


def _thetas_per_cell(text: str) -> int | None:
    return None if text == "all" else int(text)


def _json(text: str):
    """Parse user JSON; nesting deeper than the parser's recursion limit is
    malformed input, not an internal error."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _profile(text: str) -> WeightProfile:
    rows = _json(text)
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(type(w) is int for w in row) for row in rows)):
        raise ValueError("a weight profile is a JSON list of lists of integers")
    return WeightProfile(tuple(tuple(row) for row in rows))


def cmd_digits(args: argparse.Namespace) -> int:
    c = MultChar(FiniteFieldSpec(args.p, args.f), args.b)
    d = digits(c)
    _emit({"p": str(args.p), "f": str(args.f), "b": str(args.b),
           "digits": [str(x) for x in d.digits]})
    return EXIT_OK


def _emit_matrix(x: list[list[int]], *problem) -> int:
    ok, violations = verify_assignment(x, *problem)
    if not ok:
        raise AssertionError(f"solver output failed self-check: {violations}")
    for i, row in enumerate(x):
        certio.check_int_str_len(row, f"matrix[{i}]")
    _emit({"matrix": [[str(v) for v in row] for row in x]})
    return EXIT_OK


def cmd_transport(args: argparse.Namespace) -> int:
    a, b = _int_list(args.a), _int_list(args.b)
    return _emit_matrix(transport(a, b), a, b)


def cmd_regular(args: argparse.Namespace) -> int:
    problem = (_int_list(args.a), _int_list(args.b), args.m, args.C)
    return _emit_matrix(regular_transport(*problem), *problem)


def _shape(args: argparse.Namespace) -> LocalFieldShape:
    return LocalFieldShape(args.p, args.f, args.e, args.d, args.t)


def cmd_lift(args: argparse.Namespace) -> int:
    shape = _shape(args)
    theta_bar = MultChar(shape.residue_field_E, args.theta_bar)
    psi = DetSpec(tuple(_int_list(args.a)), UnitExpr.symbol("psi(varpi_F)"))
    cert = irr_crys_lift(theta_bar, psi, shape)
    # a certificate outside its own wire format is refused (exit 2), not
    # emitted: first a weight that str() would refuse, then the schema
    certio.check_int_str_len(cert.weights, "weights")
    doc = certio.certificate_to_json(cert)
    certio.validate_certificate_schema(doc)
    ok, violations = verify.verify_certificate(doc)
    doc["self_check"] = "pass" if ok else "fail"
    if not ok:
        raise AssertionError(f"emitted certificate failed self-check: {violations}")
    _emit(doc)
    return EXIT_OK


def cmd_induction(args: argparse.Namespace) -> int:
    model = FrobeniusModel(args.q, args.d)
    # q >= 2, so a d at or past the limit's bit length puts M above it
    if model.d >= INDUCTION_M_MAX.bit_length() or model.M > INDUCTION_M_MAX:
        raise ValueError(f"M = q^d - 1 must be at most {INDUCTION_M_MAX}")
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.b is not None:
        reports = [verify_det_induction(model, args.b)]
    else:
        import random

        # a sample as large as C_M is all of it
        if model.M <= max(args.full_b_cap, args.samples):
            bs = range(model.M)
        else:
            rng = random.Random(args.seed)
            bs = sorted(rng.sample(range(model.M), args.samples))
        reports = [verify_det_induction(model, b) for b in bs]
    total_bad = sum(len(r["counterexamples"]) for r in reports)
    _emit({
        "q": args.q,
        "d": args.d,
        "M": model.M,
        "b_values_checked": len(reports),
        "counterexamples": [c for r in reports for c in r["counterexamples"]],
        "pass": total_bad == 0,
    })
    return EXIT_OK if total_bad == 0 else EXIT_INFEASIBLE


def cmd_twist(args: argparse.Namespace) -> int:
    theta = twist_shout(_profile(args.rho), _profile(args.rho_x), _shape(args))
    _emit({
        "k": [str(v) for v in theta.k],
        "uniformizer": theta.uniformizer.to_json(),
    })
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        p_values=tuple(_p_values(args.p_values, 2 ** args.max_field_bits)),
        f_max=args.f_max,
        e_max=args.e_max,
        d_max=args.d_max,
        t_with_p=args.t_with_p,
        a_bound=args.a_bound,
        thetas_per_cell=args.thetas_per_cell,
        seed=args.seed,
        jobs=args.jobs,
        max_field_bits=args.max_field_bits,
        record=args.record,
    )
    # --out is opened first, so that a bad path fails before the grid runs
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        started = time.monotonic()
        report = run_sweep(config)
        elapsed = time.monotonic() - started
        certio.validate_report_schema(report)
        out.write(certio.dumps(report))
    # wall-clock stays out of the report file so reports are reproducible
    print(f"sweep finished in {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if report["totals"]["failed"] == 0 else EXIT_INFEASIBLE


def cmd_verify(args: argparse.Namespace) -> int:
    if args.certificate == "-":
        text = sys.stdin.read()
    else:
        with open(args.certificate) as fh:
            text = fh.read()
    obj = _json(text)
    certio.validate_certificate_schema(obj)  # CertificateError -> exit 2
    ok, violations = verify.verify_certificate(obj)
    _emit({"pass": ok, "violations": violations})
    return EXIT_OK if ok else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryslift",
        description="Exact-arithmetic lift certificates: digits, transport, "
        "weights, induction oracle, determinant twists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("digits", help="base-p digit decomposition of a character")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--f", type=int, required=True)
    s.add_argument("--b", type=int, required=True)
    s.set_defaults(func=cmd_digits)

    s = sub.add_parser("transport", help="exact row/column sum matrix")
    s.add_argument("--a", required=True, help="comma-separated row sums")
    s.add_argument("--b", required=True, help="comma-separated column sums")
    s.set_defaults(func=cmd_transport)

    s = sub.add_parser("regular", help="distinct-entry matrix, column sums mod m")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--C", type=int, default=0)
    s.set_defaults(func=cmd_regular)

    shape_args = argparse.ArgumentParser(add_help=False)
    for name in ("p", "f", "e", "d", "t"):
        shape_args.add_argument(f"--{name}", type=int, required=True)

    s = sub.add_parser("lift", parents=[shape_args],
                       help="build and self-verify a lift certificate")
    s.add_argument("--theta-bar", type=int, required=True,
                   help="exponent of the residual character over F_{p^(f*d)}")
    s.add_argument("--a", required=True, help="determinant exponents over Sigma_F")
    s.set_defaults(func=cmd_lift)

    s = sub.add_parser("induction", help="determinant-of-induction oracle")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--b", type=int, default=None)
    s.add_argument("--full-b-cap", type=int, default=4000)
    s.add_argument("--samples", type=int, default=512)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_induction)

    s = sub.add_parser("twist", parents=[shape_args],
                       help="fixed-determinant twist of weight profiles")
    s.add_argument("--rho", required=True, help='JSON, e.g. "[[5,1]]"')
    s.add_argument("--rho-x", required=True, help='JSON, e.g. "[[1,-3]]"')
    s.set_defaults(func=cmd_twist)

    s = sub.add_parser("sweep", help="grid sweep with certificate verification")
    s.add_argument("--p-values", default="2,3,5",
                   help="comma-separated primes; LO-HI means every prime in [LO, HI] "
                   "up to 2^max-field-bits")
    s.add_argument("--f-max", type=int, default=2)
    s.add_argument("--e-max", type=int, default=2)
    s.add_argument("--d-max", type=int, default=3)
    s.add_argument("--t-with-p", action="store_true",
                   help="also sweep t = p*(q-1) in addition to t = q-1")
    s.add_argument("--a-bound", type=int, default=10)
    s.add_argument("--thetas-per-cell", type=_thetas_per_cell, default=16,
                   help="theta_bar exponents sampled per cell, or 'all' for every one")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--max-field-bits", type=int, default=10)
    s.add_argument("--record", choices=["all", "failures"], default="all")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sweep)

    s = sub.add_parser("verify", help="independently verify a certificate JSON")
    s.add_argument("certificate", help="path to certificate file, or - for stdin")
    s.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, json.JSONDecodeError, OSError, CertificateError) as exc:
        _emit({"error": str(exc), "kind": "bad-input"})
        return EXIT_BAD_INPUT
    except InfeasibleError as exc:
        _emit({"error": str(exc), "kind": "infeasible"})
        return EXIT_INFEASIBLE
    except AssertionError as exc:
        _emit({"error": str(exc), "kind": "internal-invariant"})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
