"""Formal unit expressions: sign * prod(label_i ^ e_i) with exact rational e_i.

Labels are opaque symbols ("psi(varpi_F)", "eta(varpi_F)", ...).  Rational
exponents make d-th roots exact: root(u, d)**d normalizes back to u.
The sign lives outside the formal product so that the (-1)^(d-1) twist
of determinant-of-induction stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property


@dataclass(frozen=True)
class UnitExpr:
    sign: int = 1
    factors: tuple[tuple[str, Fraction], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        # normalize: merge equal labels, drop zero exponents, sort
        merged: dict[str, Fraction] = {}
        for label, e in self.factors:
            merged[label] = merged[label] + Fraction(e) if label in merged else Fraction(e)
        norm = tuple(
            (label, e) for label, e in sorted(merged.items()) if e != 0
        )
        object.__setattr__(self, "factors", norm)

    @staticmethod
    def symbol(label: str) -> "UnitExpr":
        return UnitExpr(1, ((label, Fraction(1)),))

    def __mul__(self, other: "UnitExpr") -> "UnitExpr":
        return UnitExpr(self.sign * other.sign, self.factors + other.factors)

    def __pow__(self, e: int | Fraction) -> "UnitExpr":
        e = Fraction(e)
        if self.sign == -1:
            if e.denominator != 1:
                raise ValueError("fractional power of a negative unit is not modeled")
            sign = -1 if e.numerator % 2 else 1
        else:
            sign = 1
        return UnitExpr(sign, tuple((l, f * e) for l, f in self.factors))

    def negate(self) -> "UnitExpr":
        return self._negation

    # Built once per unit on first use, as the sweep writes and negates one
    # unit for every instance; ==, hash and repr ignore them.
    @cached_property
    def _negation(self) -> "UnitExpr":
        # the factors are already normal: share them, skip __post_init__
        neg = object.__new__(UnitExpr)
        object.__setattr__(neg, "sign", -self.sign)
        object.__setattr__(neg, "factors", self.factors)
        return neg

    @cached_property
    def _json_factors(self) -> tuple[tuple[str, str, str], ...]:
        return tuple((label, str(e.numerator), str(e.denominator))
                     for label, e in self.factors)

    def root(self, d: int) -> "UnitExpr":
        """Formal d-th root; only principal (sign +1) units have one."""
        if d < 1:
            raise ValueError(f"root degree d={d} must be >= 1")
        if self.sign != 1:
            raise ValueError("no d-th root of a non-principal (sign -1) unit")
        return UnitExpr(1, tuple((l, e / d) for l, e in self.factors))

    def to_json(self) -> dict:
        """The wire format's unit object: a fresh dict and lists per call."""
        return {"sign": self.sign, "factors": list(map(list, self._json_factors))}
