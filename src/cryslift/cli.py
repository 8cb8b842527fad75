"""Command-line interface.

Subcommands mirror the library operations; every command prints a JSON
document on stdout.  Exit codes: 0 success, 2 malformed input, 3
infeasible instance or failed verification, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import random
import stat
import sys
import time

from . import budget, certio, verify
from .errors import CertificateError, InfeasibleError
from .fields import FiniteFieldSpec, MultChar, digits, is_prime
from .induction import FrobeniusModel, verify_det_induction
from .ledger import WeightProfile, twist_shout
from .lifting import DetSpec, LocalFieldShape, irr_crys_lift
from .sweep import FIELD_BITS_MAX, SweepConfig, run_sweep
from .transport import regular_transport, transport, verify_assignment
from .units import UnitExpr

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _emit(obj: dict) -> None:
    sys.stdout.write(certio.dumps(obj))


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _p_values(text: str, bits: int) -> list[int]:
    """Comma-separated primes, where LO-HI stands for every prime in [LO, HI]
    up to 2^bits: a larger prime has no cell, since every cell has p <= 2^bits.
    Every integer of the ranges is tested, within the work budget."""
    ps: list[int] = []
    spanned = 0
    for part in text.split(","):
        lo, dash, hi = part.strip().partition("-")
        if dash and lo:
            lo, hi = int(lo), int(hi)
            # 2^bits only when bits is below hi's bit length, so it is small;
            # a bits below 1 leaves no prime, and SweepConfig refuses it
            if hi.bit_length() > bits:
                hi = min(hi, 2 ** max(bits, 0))
            spanned += max(hi - lo + 1, 0)
            budget.require({"integers tested for primality": spanned}, {})
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


def _solve_matrix(solver, a: list[int], b: list[int], *rest) -> int:
    """Print solver's self-checked matrix for the problem (a, b, *rest)."""
    budget.require({"matrix entries": len(a) * len(b)})
    x = solver(a, b, *rest)
    ok, violations = verify_assignment(x, a, b, *rest)
    if not ok:
        raise AssertionError(f"solver output failed self-check: {violations}")
    for i, row in enumerate(x):
        certio.check_int_str_len(row, f"matrix[{i}]")
    _emit({"matrix": [[str(v) for v in row] for row in x]})
    return EXIT_OK


def cmd_transport(args: argparse.Namespace) -> int:
    return _solve_matrix(transport, _int_list(args.a), _int_list(args.b))


def cmd_regular(args: argparse.Namespace) -> int:
    return _solve_matrix(regular_transport, _int_list(args.a), _int_list(args.b),
                         args.m, args.C)


def _shape(args: argparse.Namespace) -> LocalFieldShape:
    return LocalFieldShape(args.p, args.f, args.e, args.d, args.t)


def cmd_lift(args: argparse.Namespace) -> int:
    # the shape compares t with q-1 by bit lengths first; E's residue field
    # refuses an f*d above RESIDUE_DEGREE_MAX before it computes p^(f*d)
    shape = _shape(args)
    budget.require({"lift weights": shape.size_E})
    theta_bar = MultChar(shape.residue_field_E, args.theta_bar)
    psi = DetSpec(tuple(_int_list(args.a)), UnitExpr.symbol("psi(varpi_F)"))
    cert = irr_crys_lift(theta_bar, psi, shape)
    # a certificate outside its own wire format is refused (exit 2), not
    # emitted: first a weight that str() would refuse, then the schema
    certio.check_int_str_len(cert.weights, "weights")
    doc = certio.certificate_to_json(cert)
    certio.validate_certificate_schema(doc)
    ok, violations = verify.verify_certificate(doc)
    if not ok:
        raise AssertionError(f"emitted certificate failed self-check: {violations}")
    doc["self_check"] = "pass"
    _emit(doc)
    return EXIT_OK


def cmd_induction(args: argparse.Namespace) -> int:
    model = FrobeniusModel(args.q, args.d)
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    # q >= 2: q^d is computed only below 2^1000, where the budget ends long before
    M = model.M if model.d * (model.q.bit_length() - 1) < 1000 else 2 ** 1000
    # one b, all of C_M (a sample as large as C_M is all of it), or a sample
    n_b = 1 if args.b is not None else min(M, args.samples) if M > args.full_b_cap else M
    # each b walks all of C_M with arrays of M entries, freed before the next
    budget.require({"oracle group elements": n_b * M}, {"oracle group elements": M})
    bs = ([args.b] if args.b is not None else range(M) if n_b == M
          else sorted(random.Random(args.seed).sample(range(M), n_b)))
    bad = [c for b in bs for c in verify_det_induction(model, b)["counterexamples"]]
    _emit({"q": args.q, "d": args.d, "M": M, "b_values_checked": len(bs),
           "counterexamples": bad, "pass": not bad})
    return EXIT_INFEASIBLE if bad else EXIT_OK


def cmd_twist(args: argparse.Namespace) -> int:
    rho, rho_x, shape = _profile(args.rho), _profile(args.rho_x), _shape(args)
    theta = twist_shout(rho, rho_x, shape)
    # per embedding, theta makes up the determinant's gap as a t-th power
    if len(theta.k) != len(rho.weights) or any(
            sum(w) != sum(w_x) + shape.d * k or k % shape.t
            for w, w_x, k in zip(rho.weights, rho_x.weights, theta.k)):
        raise AssertionError("twist failed self-check: some k is not "
                             "(sum(rho) - sum(rho_x))/d, or not a multiple of t")
    _emit({
        "k": [str(v) for v in theta.k],
        "uniformizer": theta.uniformizer.to_json(),
    })
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    # each field of the config is the option of its name, --p-values parsed
    options = {f.name: getattr(args, f.name) for f in dataclasses.fields(SweepConfig)}
    config = SweepConfig(**options | {
        "p_values": tuple(_p_values(args.p_values, args.max_field_bits))})
    # --out is opened first, so that a bad path fails before the grid runs,
    # but emptied only to take the report: a refused or failed sweep leaves
    # the file as it was, and removes it if this call created it
    created = bool(args.out) and not os.path.lexists(args.out)
    try:
        with open(args.out, "a") if args.out else contextlib.nullcontext(sys.stdout) as out:
            started = time.monotonic()
            report = run_sweep(config)
            elapsed = time.monotonic() - started
            try:
                certio.validate_report_schema(report)
            except CertificateError as exc:  # the sweep built it: no input is at fault
                raise AssertionError(f"sweep report failed self-check: {exc}") from None
            if args.out and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate(0)  # appends now start at 0; a pipe or device has nothing to empty
            out.write(certio.dumps(report))
    except BaseException:
        if created and os.path.lexists(args.out):  # not when the open failed
            os.remove(args.out)
        raise
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


class _Parser(argparse.ArgumentParser):
    """An argument error is malformed input, reported like any other (its
    subcommand parsers are of this class too)."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    s.add_argument("--max-field-bits", type=int, default=10,
                   help="run the cells with p^(f*d) <= 2^max-field-bits; at most "
                   f"{FIELD_BITS_MAX}")
    s.add_argument("--record", choices=["all", "failures"], default="all")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sweep)

    s = sub.add_parser("verify", help="independently verify a certificate JSON")
    s.add_argument("certificate", help="path to certificate file, or - for stdin")
    s.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help prints its text and exits 0
        return int(exc.code or 0)
    except (ValueError, OSError, CertificateError) as exc:
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
