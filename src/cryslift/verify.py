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
"""

from __future__ import annotations

from fractions import Fraction


# The verifier checks p only below this bound, where Miller-Rabin with
# the bases below is a proof of primality (it is for all n < 3.18e23).
P_BOUND = 2 ** 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def _base_p_digits(b: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        b, r = divmod(b, p)
        out.append(r)
    return out


def _unit_normal(obj: dict) -> tuple[int, tuple[tuple[str, int | Fraction], ...]]:
    """Sign and merged, sorted, non-zero exponents of a unit.  Denominator-1
    exponents stay plain ints, which compare with Fractions by value."""
    acc: dict[str, int | Fraction] = {}
    for label, num, den in obj["factors"]:
        den = int(den)
        e = int(num) if den == 1 else Fraction(int(num), den)
        acc[label] = acc.get(label, 0) + e
    return int(obj["sign"]), tuple(
        (label, e) for label, e in sorted(acc.items()) if e != 0
    )


def verify_certificate(obj: dict) -> tuple[bool, list[str]]:
    """Recompute all recorded identities of a certificate JSON document.

    Returns (pass, violations).  Assumes the document is schema-valid;
    use :func:`cryslift.certio.validate_certificate_schema` first to
    distinguish malformed documents from failed checks.
    """
    violations: list[str] = []

    # cheapest checks first: no power of p and no digit expansion before
    # the lengths of psi and weights bound f*d by the document's size
    sh = obj["shape"]
    p, f, e, d, t = (int(sh[x]) for x in ("p", "f", "e", "d", "t"))
    if not p < P_BOUND:
        return False, [f"shape: p={p} is not below the verifier's bound 2^64"]
    if not _is_prime(p):
        return False, [f"shape: p={p} is not prime"]
    if min(f, e, d, t) < 1:
        return False, ["shape: f, e, d, t must all be >= 1"]
    if len(obj["psi"]["a"]) != e * f:
        return False, [f"psi has {len(obj['psi']['a'])} exponents, expected e*f "
                       f"with e={e}, f={f}"]
    if len(obj["weights"]) != e * f * d:
        return False, [f"{len(obj['weights'])} weights, expected e*f*d "
                       f"with e={e}, f={f}, d={d}"]
    a = [int(v) for v in obj["psi"]["a"]]
    k = [int(v) for v in obj["weights"]]

    # t is a multiple of q-1 = p^f-1 only if q-1 <= t
    if not _pow_le(p, f, t + 1) or t % (p ** f - 1) != 0:
        violations.append(f"shape: t={t} not a multiple of q-1 = {p}^{f}-1")

    b_exp = int(obj["theta_bar"]["b"])
    if b_exp < 0 or _pow_le(p, f * d, b_exp + 1):
        violations.append(f"theta_bar exponent {b_exp} outside [0, {p}^{f * d}-2]")
        return False, violations

    # digits of theta_bar over Sigma_E0
    b_digits = _base_p_digits(b_exp, p, f * d)
    m = p - 1

    # eq_one: per unramified block, determinant exponents match the sum
    # of theta_bar's digits over the J-block mod p-1 (the block form is
    # the one equivalent to per-block feasibility; restricted digits are
    # not blockwise congruent to it when carrying crosses blocks)
    eq_one = all(
        (sum(a[i0 * e:(i0 + 1) * e]) - sum(b_digits[i0::f])) % m == 0
        for i0 in range(f)
    )

    # exact row sums: weights over each Sigma_F fibre sum to a_sigma
    det_on_units = all(sum(k[s * d:(s + 1) * d]) == a[s] for s in range(e * f))

    if d > 1:
        # column congruences: weights over each Sigma_E0 fibre match the
        # theta_bar digit mod p-1
        w = e * d
        lifts_theta_bar = all(
            (sum(k[i0 * w + l:(i0 + 1) * w:d]) - b_digits[i0 + f * l]) % m == 0
            for i0 in range(f)
            for l in range(d)
        )
        weights_distinct = len(set(k)) == len(k)
        blocks = [[abs(v) for v in k[i0 * w:(i0 + 1) * w]] for i0 in range(f)]
        block_separation = all(max(lo) < min(hi) for lo, hi in zip(blocks, blocks[1:]))
        regular = all(len(set(k[s * d:(s + 1) * d])) == d for s in range(e * f))
    else:
        lifts_theta_bar = weights_distinct = block_separation = None
        regular = True

    # eq_three / (five): theta(varpi_E) == (-1)^(d-1) psi(varpi_F) as
    # normalized unit expressions
    psi_sign, psi_factors = _unit_normal(obj["psi"]["uniformizer"])
    th_sign, th_factors = _unit_normal(obj["theta_uniformizer"])
    twist_sign = 1 if (d - 1) % 2 == 0 else -1
    det_at_uniformizer = th_factors == psi_factors and th_sign == twist_sign * psi_sign

    recomputed = {
        "eq_one_compat": eq_one,
        "lifts_theta_bar": lifts_theta_bar,
        "det_on_units": det_on_units,
        "det_at_uniformizer": det_at_uniformizer,
        "weights_distinct": weights_distinct,
        "block_separation": block_separation,
        "regular": regular,
    }
    for name, value in recomputed.items():
        if value is False:
            violations.append(f"identity {name} fails on recomputation")

    recorded = obj["checks"]
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
