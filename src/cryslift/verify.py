"""Independent certificate verifier.

Deliberately self-contained: it re-derives every recorded identity from
the raw certificate fields using its own arithmetic (base-p expansion,
congruences, unit-expression algebra) and never calls the solvers that
produced the certificate.  A certificate passes iff every identity holds
and every recorded check value matches the recomputation.

It derives the fibres from the wire format's canonical order on its own,
as slices: the i0-block of psi.a is a[i0*e:(i0+1)*e], the J-block of
theta_bar's digits is b_digits[i0::f], the Sigma_F fibre of s is
k[s*d:(s+1)*d] and the Sigma_E0 fibre of i0 + f*l is the stride-d slice
k[i0*e*d + l:(i0+1)*e*d:d].

The digits and eq_one, which every certificate runs over one to a few
items, are plain loops: on Python 3.11 each comprehension or generator
expression costs a function frame per call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter


# The verifier checks p only below this bound, where Miller-Rabin with
# the bases below is a proof of primality (it is for all n < 3.18e23).
P_BOUND = 2 ** 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_shape_fields = itemgetter("p", "f", "e", "d", "t")
# Distinct shapes, as their five strings, whose parse the verifier keeps: a
# sweep verifies every document of one shape in a row.
SHAPE_CACHE_SIZE = 64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < P_BOUND."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 41 * 41:  # a composite without a prime factor <= 37 is >= 41^2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pow_le(p: int, n: int, bound: int) -> bool:
    """p**n <= bound, without computing p**n when it is far larger."""
    if (p.bit_length() - 1) * n > bound.bit_length():
        return False
    return p ** n <= bound


def _exponent(num: str, den: str) -> int | Fraction:
    """num/den, a plain int when den is 1: ints compare with Fractions by value."""
    den = int(den)
    return int(num) if den == 1 else Fraction(int(num), den)


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _parse_shape(fields: tuple[str, ...]) -> tuple[int, int, int, int, str | None] | str:
    """(p, f, e, d, violation of t or None) from a shape's five strings, or
    the text that refuses the shape.  A pure function of the strings, so
    cached; its cost is bounded by theirs (q = p^f only when q-1 <= t)."""
    p, f, e, d, t = map(int, fields)
    if not p < P_BOUND:
        return f"shape: p={p} is not below the verifier's bound 2^64"
    if not _is_prime(p):
        return f"shape: p={p} is not prime"
    if min(f, e, d, t) < 1:
        return "shape: f, e, d, t must all be >= 1"
    # t is a multiple of q-1 = p^f-1 only if q-1 <= t
    if not _pow_le(p, f, t + 1) or t % (p ** f - 1) != 0:
        return p, f, e, d, f"shape: t={t} not a multiple of q-1 = {p}^{f}-1"
    return p, f, e, d, None


def _unit_normal(obj: dict) -> tuple[int, tuple[tuple[str, int | Fraction], ...]]:
    """Sign and merged, sorted, non-zero exponents of a unit."""
    acc: dict[str, int | Fraction] = {}
    for label, num, den in obj["factors"]:
        acc[label] = acc.get(label, 0) + _exponent(num, den)
    return int(obj["sign"]), tuple(
        (label, e) for label, e in sorted(acc.items()) if e != 0
    )


def verify_certificate(obj: dict) -> tuple[bool, list[str]]:
    """Recompute all recorded identities of a certificate JSON document.

    Returns (pass, violations).  Assumes the document is schema-valid;
    use :func:`cryslift.certio.validate_certificate_schema` first to
    distinguish malformed documents from failed checks.
    """
    # cheapest checks first: no power of p and no digit expansion before
    # the lengths of psi and weights bound f*d by the document's size
    shape = _parse_shape(_shape_fields(obj["shape"]))
    if isinstance(shape, str):
        return False, [shape]
    p, f, e, d, t_violation = shape
    a, k = obj["psi"]["a"], obj["weights"]
    if len(a) != e * f:
        return False, [f"psi has {len(a)} exponents, expected e*f with e={e}, f={f}"]
    if len(k) != e * f * d:
        return False, [f"{len(k)} weights, expected e*f*d with e={e}, f={f}, d={d}"]
    a = list(map(int, a))
    k = list(map(int, k))
    violations = [t_violation] if t_violation else []

    b_exp, n = int(obj["theta_bar"]["b"]), f * d
    if b_exp < 0 or _pow_le(p, n, b_exp + 1):
        violations.append(f"theta_bar exponent {b_exp} outside [0, {p}^{n}-2]")
        return False, violations

    # digits of theta_bar over Sigma_E0
    b_digits = []
    for _ in range(n):
        b_exp, r = divmod(b_exp, p)
        b_digits.append(r)
    m = p - 1

    # eq_one: per unramified block, determinant exponents match the sum
    # of theta_bar's digits over the J-block mod p-1 (the block form is
    # the one equivalent to per-block feasibility; restricted digits are
    # not blockwise congruent to it when carrying crosses blocks)
    eq_one = True
    for i0 in range(f):
        if (sum(a[i0 * e:(i0 + 1) * e]) - sum(b_digits[i0::f])) % m:
            eq_one = False

    if d > 1:
        # exact row sums: weights over each Sigma_F fibre sum to a_sigma
        det_on_units = [sum(k[i:i + d]) for i in range(0, e * f * d, d)] == a
        # column congruences: weights over each Sigma_E0 fibre match the
        # theta_bar digit mod p-1
        w = e * d
        lifts_theta_bar = all([
            (sum(k[i0 * w + l:(i0 + 1) * w:d]) - b_digits[i0 + f * l]) % m == 0
            for i0 in range(f)
            for l in range(d)
        ])
        weights_distinct = len(set(k)) == len(k)
        if f > 1:
            blocks = [[abs(v) for v in k[i0 * w:(i0 + 1) * w]] for i0 in range(f)]
            block_separation = all(max(lo) < min(hi) for lo, hi in zip(blocks, blocks[1:]))
        else:  # one block is separated from no other
            block_separation = True
        regular = all(len(set(k[s * d:(s + 1) * d])) == d for s in range(e * f))
    else:
        # each Sigma_F fibre is the one weight above it
        det_on_units = k == a
        lifts_theta_bar = weights_distinct = block_separation = None
        regular = True

    # eq_three / (five): theta(varpi_E) == (-1)^(d-1) psi(varpi_F) as
    # normalized unit expressions; equal factor lists, as the builder
    # writes them, have equal normal forms
    psi_unit, th_unit = obj["psi"]["uniformizer"], obj["theta_uniformizer"]
    twist_sign = 1 if (d - 1) % 2 == 0 else -1
    det_at_uniformizer = (
        (psi_unit["factors"] == th_unit["factors"]
         or _unit_normal(psi_unit)[1] == _unit_normal(th_unit)[1])
        and int(th_unit["sign"]) == twist_sign * int(psi_unit["sign"])
    )

    recomputed = {
        "eq_one_compat": eq_one,
        "lifts_theta_bar": lifts_theta_bar,
        "det_on_units": det_on_units,
        "det_at_uniformizer": det_at_uniformizer,
        "weights_distinct": weights_distinct,
        "block_separation": block_separation,
        "regular": regular,
    }
    if False in recomputed.values():
        violations += [f"identity {name} fails on recomputation"
                       for name, value in recomputed.items() if value is False]

    recorded = obj["checks"]
    if recorded == recomputed:  # every recorded value agrees, and none is unknown
        return (not violations), violations
    for name, value in recomputed.items():
        if name in recorded and recorded[name] != value:
            violations.append(
                f"recorded check {name}={recorded[name]} disagrees with "
                f"recomputed value {value}"
            )
    for name in recorded:
        if name not in recomputed:
            violations.append(f"unknown recorded check {name!r}")

    return (not violations), violations
