"""Embedding bookkeeping and weight construction for character lifts.

Setting: F/Q_p with residue degree f and ramification e, E/F unramified
of degree d.  Writing F_0 for the maximal unramified subfield and E_0
for its degree-d unramified extension, the embeddings of E are pairs
(embedding of F, embedding of E_0) agreeing on F_0.  We index everything
canonically:

* Sigma_F0: Frobenius order, i0 = 0..f-1.
* Sigma_E0: Frobenius order, j = 0..fd-1; j restricts to i0 = j mod f.
* Sigma_F: grouped by i0, then ramified index r = 0..e-1; global index
  i0*e + r.
* Sigma_E: grouped by i0, then (r, l) with l = 0..d-1 indexing the
  element i0 + f*l of J_{i0}; global index i0*e*d + r*d + l.

These orderings are part of the certificate wire format, and they make
every block and fibre a slice: the i0-block of psi.a is a[i0*e:(i0+1)*e],
the J-block of theta_bar's digits is b[i0::f], the Sigma_F fibre of s is
the contiguous slice k[s*d:(s+1)*d] of the Sigma_E-indexed weights, and
the Sigma_E0 fibre of j = i0 + f*l is column l of the Sigma_F fibres
above i0, the stride-d slice k[i0*e*d + l:(i0+1)*e*d:d].  LocalFieldShape's
F_blocks, J_blocks and E_blocks (built once per shape) and F_fibres are
the builder's only implementation of this order.

The weight construction solves, per i0-block, a distinct-entry
transportation problem: rows are the e embeddings of F above i0 with
exact sums a_sigma, columns the d embeddings of E_0 above i0 with sums
congruent to the digit b_{tau_0} mod p-1.  Threading the running max
|weight| as the magnitude bound C keeps blocks separated and all e*f*d
weights globally distinct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from .errors import InfeasibleError
from .fields import FiniteFieldSpec, MultChar, digits, is_prime
from .transport import regular_transport
from .units import UnitExpr


@dataclass(frozen=True)
class LocalFieldShape:
    """Combinatorial shadow of F/Q_p plus the unramified extension degree d.

    t is the order of the roots of unity of F; it is an input (the
    combinatorial data cannot determine its p-part) and must be a
    multiple of q-1 = p^f - 1.
    """

    p: int
    f: int
    e: int
    d: int
    t: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        for name in ("f", "e", "d", "t"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} must be >= 1")
        # q = p^f >= 2^lo: bit lengths refuse t < q-1 before a large q is computed
        lo = self.f * (self.p.bit_length() - 1)
        q = self.p ** self.f if lo <= max(63, self.t.bit_length()) else None
        if q is None or self.t % (q - 1) != 0:
            # str() refuses an int past 4300 digits, so a large q-1 is named
            q1 = q - 1 if q is not None and q.bit_length() <= 64 else f"{self.p}^{self.f}-1"
            raise ValueError(f"t={self.t} is not a multiple of q-1={q1}")

    @property
    def residue_field_E(self) -> FiniteFieldSpec:
        return FiniteFieldSpec(self.p, self.f * self.d)

    @cached_property
    def _json(self) -> dict[str, str]:
        return {"p": str(self.p), "f": str(self.f), "e": str(self.e),
                "d": str(self.d), "t": str(self.t)}

    def to_json(self) -> dict[str, str]:
        """The certificate's shape object, formatted once per shape: each
        call returns a fresh copy."""
        return dict(self._json)

    @property
    def key(self) -> str:
        """The sweep's cell key: it seeds the cell and prefixes its row ids."""
        return f"p={self.p},f={self.f},e={self.e},d={self.d},t={self.t}"

    # The canonical order of Sigma_F, Sigma_E0 and Sigma_E: it depends on
    # (f, e, d) only, and every block and fibre of it is a slice.  Its
    # sizes and the slices of every i0 are built once per shape on first
    # use (the sweep pickles its cells to the workers unread); ==, hash
    # and repr ignore them.  The slices come in lists, not tuples: the
    # tuples that lifts freed pinned memory pools, 2.5 MB more peak RSS on
    # the verify_stream benchmark.
    @cached_property
    def size_F(self) -> int:
        return self.e * self.f

    @cached_property
    def size_E(self) -> int:
        return self.e * self.f * self.d

    @cached_property
    def F_blocks(self) -> list[slice]:
        """Sigma_F indices above each i0: the e determinant exponents of the block."""
        return [slice(i0 * self.e, (i0 + 1) * self.e) for i0 in range(self.f)]

    @cached_property
    def J_blocks(self) -> list[slice]:
        """Sigma_E0 indices above each i0: the d digits i0, i0 + f, ... of theta_bar."""
        return [slice(i0, self.f * self.d, self.f) for i0 in range(self.f)]

    @cached_property
    def E_blocks(self) -> list[slice]:
        """Sigma_E indices above each i0."""
        w = self.e * self.d
        return [slice(i0 * w, (i0 + 1) * w) for i0 in range(self.f)]

    def F_fibres(self, k: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The Sigma_F fibres of the Sigma_E-indexed k, as tuples: fibre s
        is k[s*d:(s+1)*d].  Column l of the fibres in F_blocks[i0] is the
        Sigma_E0 fibre of i0 + f*l."""
        # zip takes d items at a time from one iterator: k's d-slices
        return list(zip(*[iter(k)] * self.d))


@dataclass
class DetSpec:
    """A determinant character: unit-part exponents over Sigma_F plus the
    symbolic value at the uniformizer of F.  Not frozen: nothing hashes
    it, and a frozen record cost each sweep instance 0.45 us more."""

    a: tuple[int, ...]
    uniformizer: UnitExpr


@dataclass
class LiftCertificate:
    """Machine-checkable record of a constructed lift.

    checks maps identity names to booleans (or None when d = 1 makes a
    condition inapplicable), and is empty from the sweep's lift;
    hypotheses records input-side promises that are declared, not
    verified.  Not frozen: its dicts are mutable either way, and a frozen
    record cost the sweep 1 us more per certificate.
    """

    shape: LocalFieldShape
    theta_bar: MultChar
    psi: DetSpec
    weights: tuple[int, ...]  # k_tau, indexed by Sigma_E in canonical order
    theta_uniformizer: UnitExpr
    checks: dict = field(default_factory=dict)
    hypotheses: dict = field(default_factory=dict)


def _compat(b: tuple[int, ...], psi: DetSpec, shape: LocalFieldShape) -> bool:
    """Residue compatibility of psi against theta_bar's digits b, in
    exponent form.

    For each unramified block i0 the determinant exponents above i0 must
    sum, mod p-1, to the total of theta_bar's digits over the J-block of
    i0.  Note the block digit sums are *not* in general congruent to the
    digits of theta_bar's restriction to the residue field of F: reducing
    a digit vector to canonical form carries residue between positions
    (replacing digit b_j by b_j - p and b_{j+1} by b_{j+1} + 1 shifts the
    two block sums by -1 and +1 mod p-1).  The block form used here is the
    one that is exactly equivalent to per-block feasibility of the weight
    construction; the two forms agree whenever f = 1 or d = 1.
    """
    if len(psi.a) != shape.size_F:
        raise ValueError(
            f"determinant exponent tuple has length {len(psi.a)}, "
            f"expected |Sigma_F| = {shape.size_F}"
        )
    # p = 2 makes the modulus 1 and the condition vacuous
    m = shape.p - 1
    for F, J in zip(shape.F_blocks, shape.J_blocks):
        if (sum(psi.a[F]) - sum(b[J])) % m:
            return False
    return True


def _build_weights(b: tuple[int, ...], a: tuple[int, ...],
                   shape: LocalFieldShape) -> tuple[int, ...]:
    """Weights from compatible digits b and determinant exponents a, one
    distinct-entry transport per i0-block (k = a when d = 1), unchecked:
    irr_crys_lift's recorded checks are the builder's only check of the
    blocks, and a sweep's lift, which records none, is checked by the
    verifier alone."""
    if shape.d == 1:
        return tuple(a)
    k: list[int] = []
    C, m = 0, shape.p - 1
    for F, J in zip(shape.F_blocks, shape.J_blocks):
        block = list(chain.from_iterable(regular_transport(a[F], b[J], m, C)))
        k += block
        C = max(map(abs, block))  # the next block lies above this one
    return tuple(k)


def _block_separation_holds(k: tuple[int, ...], shape: LocalFieldShape) -> bool:
    blocks = shape.E_blocks
    for lo, hi in zip(blocks, blocks[1:]):
        if max(map(abs, k[lo])) >= min(map(abs, k[hi])):
            return False
    return True


def irr_crys_lift(theta_bar: MultChar, psi: DetSpec, shape: LocalFieldShape) -> LiftCertificate:
    """Full lift certificate: pairwise distinct weights matching psi exactly
    on each Sigma_F fibre and theta_bar's digits mod p-1 on each Sigma_E0
    fibre (d = 1 forces k = a, and neither is then guaranteed), the twisted
    uniformizer value, and the record of every checked identity.

    The uniformizer value of the lifted character is (-1)^(d-1) times the
    determinant's value, per determinant-of-induction.
    """
    if (theta_bar.field.p, theta_bar.field.f) != (shape.p, shape.f * shape.d):
        raise ValueError("theta_bar lives over the wrong residue field")
    b = digits(theta_bar).digits
    cert = _lift(theta_bar, b, psi, shape)
    cert.checks = _recorded_checks(b, cert.weights, psi, shape, cert.theta_uniformizer)
    return cert


def _lift(theta_bar: MultChar, b: tuple[int, ...], psi: DetSpec,
          shape: LocalFieldShape) -> LiftCertificate:
    """The construction of irr_crys_lift from theta_bar's digits b, which
    records no checks: the sweep's verifier recomputes every identity."""
    if not _compat(b, psi, shape):
        raise InfeasibleError("incompatible (theta_bar, psi): no certificate")
    k = _build_weights(b, psi.a, shape)
    unif = psi.uniformizer
    theta_unif = unif if shape.d % 2 == 1 else unif.negate()
    hypotheses = {
        "residual_uniformizer_value": (
            "theta_bar(Art_E(varpi_E)) is assumed congruent to "
            "(-1)^(d-1) * psi(Art_F(varpi_F)); the residual value at the "
            "uniformizer is not part of the character data"
        )
    }
    # positional: keywords cost the dataclass's __init__ a fifth of a microsecond
    return LiftCertificate(shape, theta_bar, psi, k, theta_unif, {}, hypotheses)


def _recorded_checks(b: tuple[int, ...], k: tuple[int, ...], psi: DetSpec,
                     shape: LocalFieldShape, theta_unif: UnitExpr) -> dict:
    """The seven identities of the weights k that _lift built from digits b
    and psi, each recomputed from the raw data: one pass over the Sigma_F
    fibres and one over the Sigma_E0 fibres.  They are the builder's only
    self-check."""
    d, unif = shape.d, psi.uniformizer
    if d > 1:
        fibres = shape.F_fibres(k)
        row_sums_exact = list(map(sum, fibres)) == list(psi.a)
        m = shape.p - 1
        col_congruent = True
        for F, J in zip(shape.F_blocks, shape.J_blocks):
            for s, bj in zip(map(sum, zip(*fibres[F])), b[J]):
                if (s - bj) % m:
                    col_congruent = False
        distinct = len(set(k)) == shape.size_E
        # one block (f = 1) is separated from no other
        separation = shape.f == 1 or _block_separation_holds(k, shape)
        # global distinctness implies distinctness inside every fibre
        regular = distinct or min(map(len, map(set, fibres))) == d
    else:
        # every Sigma_F fibre is the one weight above it
        row_sums_exact = k == tuple(psi.a)
        col_congruent = distinct = separation = None
        regular = True
    # theta(varpi_E) == (-1)^(d-1) * psi(varpi_F), symbolically: the signs
    # are compared, so a sign left unflipped is recorded as failing
    det_at_uniformizer = (theta_unif.sign == (1 if d % 2 else -1) * unif.sign
                          and theta_unif.factors == unif.factors)
    return {
        # _lift raises InfeasibleError where compatibility fails
        "eq_one_compat": True,
        "lifts_theta_bar": col_congruent,
        "det_on_units": row_sums_exact,
        "det_at_uniformizer": det_at_uniformizer,
        "weights_distinct": distinct,
        "block_separation": separation,
        "regular": regular,
    }
