"""Multiplicative characters of finite fields via discrete-log exponents.

A character of F_q^x (q = p^f) is stored purely as an exponent b with
0 <= b <= q-2 relative to a fixed (but unnamed) generator embedding.
No roots of unity are ever materialized: every identity we need reduces
to exponent congruences mod q-1.  The f embeddings of F_q into the
coefficient field are indexed by Frobenius powers: the i-th embedding
sends x to sigma_0(x^(p^i)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt


# Primality is decided below PRIME_BOUND only: by a sieve table below
# _SIEVE_LIMIT, and above it by Miller-Rabin with the bases below, which
# is a proof of primality for all n < 3.18e23.
PRIME_BOUND = 2 ** 64
_SIEVE_LIMIT = 2 ** 16
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _sieve(n: int) -> bytearray:
    table = bytearray([1]) * n
    table[:2] = b"\0\0"
    for i in range(2, isqrt(n - 1) + 1):
        if table[i]:
            table[i * i::i] = bytes(len(range(i * i, n, i)))
    return table


_SMALL_PRIME = bytes(_sieve(_SIEVE_LIMIT))


def is_prime(n: int) -> bool:
    """Deterministic primality test; raises ValueError for n >= 2^64."""
    if n < _SIEVE_LIMIT:
        return n >= 2 and _SMALL_PRIME[n] == 1
    if n >= PRIME_BOUND:
        raise ValueError(
            f"primality is decided only below 2^64, not for a {n.bit_length()}-bit n"
        )
    if any(n % a == 0 for a in _MR_BASES):
        return False
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


@dataclass(frozen=True)
class FiniteFieldSpec:
    """The field with p^f elements, given by the pair (p, f)."""

    p: int
    f: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.f < 1:
            raise ValueError(f"f={self.f} must be >= 1")

    @property
    def q(self) -> int:
        return self.p ** self.f


@dataclass(frozen=True)
class MultChar:
    """A multiplicative character x -> sigma_0(x)^b of field^x."""

    field: FiniteFieldSpec
    b: int

    def __post_init__(self) -> None:
        if not 0 <= self.b <= self.field.q - 2:
            raise ValueError(
                f"exponent b={self.b} outside canonical range [0, {self.field.q - 2}]"
            )


@dataclass(frozen=True)
class DigitVector:
    """Base-p digits (b_0, ..., b_{f-1}) of a character exponent.

    Canonical form forbids the all-(p-1) vector: that would encode
    q-1, which is 0 in the exponent group, and would break uniqueness.
    """

    digits: tuple[int, ...]
    modulus: int

    def __post_init__(self) -> None:
        p = self.modulus
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if not self.digits:
            raise ValueError("empty digit vector")
        for d in self.digits:
            if not 0 <= d <= p - 1:
                raise ValueError(f"digit {d} outside [0, {p - 1}]")
        if all(d == p - 1 for d in self.digits):
            raise ValueError("all digits equal p-1: non-canonical form")

    def value(self) -> int:
        """The exponent sum(digits_i * p^i)."""
        acc = 0
        for d in reversed(self.digits):
            acc = acc * self.modulus + d
        return acc


def digits(c: MultChar) -> DigitVector:
    """Base-p digit decomposition of a character exponent.

    The f digits express the character as a product of Frobenius-twisted
    powers of the generator embedding.
    """
    p, f = c.field.p, c.field.f
    b = c.b
    ds = []
    for _ in range(f):
        b, r = divmod(b, p)
        ds.append(r)
    return DigitVector(tuple(ds), p)


def from_digits(d: DigitVector, field: FiniteFieldSpec) -> MultChar:
    """Inverse of :func:`digits`; rejects non-canonical digit vectors."""
    if d.modulus != field.p:
        raise ValueError(f"digit modulus {d.modulus} != field characteristic {field.p}")
    if len(d.digits) != field.f:
        raise ValueError(f"expected {field.f} digits, got {len(d.digits)}")
    return MultChar(field, d.value())


def restrict(c: MultChar, subfield: FiniteFieldSpec) -> MultChar:
    """Restrict a character of F_{q^d}^x to the subfield F_q^x.

    Since x^q = x on the subfield, the restricted exponent is b mod q-1.
    """
    if subfield.p != c.field.p:
        raise ValueError("subfield has different characteristic")
    if c.field.f % subfield.f != 0:
        raise ValueError(
            f"F_{{{subfield.p}^{subfield.f}}} is not a subfield of "
            f"F_{{{c.field.p}^{c.field.f}}}"
        )
    return MultChar(subfield, c.b % (subfield.q - 1))


def norm_exponent(q: int, d: int) -> int:
    """Exponent of the norm map from F_{q^d}^x to F_q^x: 1 + q + ... + q^(d-1)."""
    if q < 2 or d < 1:
        raise ValueError("need q >= 2 and d >= 1")
    return (q ** d - 1) // (q - 1)
