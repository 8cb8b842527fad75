"""Determinant-of-induction oracle on finite metacyclic groups.

The group is G = C_M x| <phi> with M = q^d - 1 and phi of order d acting
on the cyclic part by x -> q*x (Frobenius at the residue level).  A
character of H = C_M with exponent b induces a d-dimensional monomial
representation of G; its determinant can be computed exactly as a sign
times an exponent mod M.  The oracle checks two identities:

* on H, det rho agrees with the character composed with the norm
  y -> y * (1 + q + ... + q^(d-1));
* at any element h*phi projecting to a generator of G/H, det rho picks
  up the sign (-1)^(d-1) against the character of the d-th power.

Group elements are pairs (h, s) with h mod M, s mod d and product
(h1, s1)(h2, s2) = (h1 + q^s1 * h2, s1 + s2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import norm_exponent


@dataclass(frozen=True)
class FrobeniusModel:
    q: int
    d: int

    def __post_init__(self) -> None:
        if self.q < 2 or self.d < 1:
            raise ValueError("need q >= 2 and d >= 1")

    @property
    def M(self) -> int:
        return self.q ** self.d - 1

    def mul(self, g1: tuple[int, int], g2: tuple[int, int]) -> tuple[int, int]:
        h1, s1 = g1
        h2, s2 = g2
        return (h1 + pow(self.q, s1, self.M) * h2) % self.M, (s1 + s2) % self.d

    def power(self, g: tuple[int, int], n: int) -> tuple[int, int]:
        acc = (0, 0)
        for _ in range(n):
            acc = self.mul(acc, g)
        return acc


@dataclass(frozen=True)
class MonomialMatrix:
    """Monomial matrix with root-of-unity entries, as (perm, exponents).

    Entry at (perm[j], j) is zeta^exps[j] with zeta a fixed primitive
    M-th root of unity; all other entries are zero.
    """

    perm: tuple[int, ...]
    exps: tuple[int, ...]
    M: int

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        assert self.M == other.M and len(self.perm) == len(other.perm)
        perm = tuple(self.perm[other.perm[j]] for j in range(len(self.perm)))
        exps = tuple(
            (other.exps[j] + self.exps[other.perm[j]]) % self.M
            for j in range(len(self.perm))
        )
        return MonomialMatrix(perm, exps, self.M)


@dataclass(frozen=True)
class MonomialRep:
    """The induced representation of G = C_M x| <phi> from exponent b on C_M."""

    model: FrobeniusModel
    b: int

    def __post_init__(self) -> None:
        if not 0 <= self.b < self.model.M:
            raise ValueError(f"b={self.b} outside [0, {self.model.M})")

    def matrix(self, g: tuple[int, int]) -> MonomialMatrix:
        """rho(h, s) = rho(h, 0) * rho(0, 1)^s."""
        q, d, M = self.model.q, self.model.d, self.model.M
        h, s = g[0] % M, g[1] % d
        mat = MonomialMatrix(
            tuple(range(d)),
            tuple(self.b * pow(q, i, M) * h % M for i in range(d)),
            M,
        )
        # phi permutes the induced basis cyclically; phi^d = 1 in the
        # model so the wrap entry is theta(1), exponent 0
        phi = MonomialMatrix(tuple((i - 1) % d for i in range(d)), (0,) * d, M)
        for _ in range(s):
            mat = mat * phi
        return mat

    def character_exponent(self, h: int) -> int:
        return self.b * h % self.model.M


def induce(model: FrobeniusModel, b: int) -> MonomialRep:
    """Monomial model of the representation induced from exponent b."""
    return MonomialRep(model, b)


def _perm_sign(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_of(rep: MonomialRep, element: tuple[int, int]) -> tuple[int, int]:
    """Exact determinant of rho(element): (sign, exponent mod M)."""
    mat = rep.matrix(element)
    return _perm_sign(mat.perm), sum(mat.exps) % rep.model.M


def verify_det_induction(model: FrobeniusModel, b: int,
                         use_numpy: bool = True) -> dict:
    """Check both determinant identities over all of H = C_M.

    Returns a report dict with counterexample lists (expected empty).
    The bulk arithmetic is vectorized; correctness of the vectorized
    exponent formula against the monomial matrices is covered by the
    object-level tests.
    """
    q, d, M = model.q, model.d, model.M
    rep = induce(model, b)
    nexp = norm_exponent(q, d)
    sign_gamma = -1 if (d - 1) % 2 else 1
    counterexamples: list[dict] = []

    if use_numpy and M > 1 and (M - 1) * (M - 1) * d < 2 ** 62:
        # imported here, its only use, so that importing cryslift does
        # not load numpy
        import numpy as np

        h = np.arange(M, dtype=np.int64)
        # det rho(h, 0): sum over i of the diagonal exponents b*q^i*h
        diag_sum = np.zeros(M, dtype=np.int64)
        for i in range(d):
            diag_sum = (diag_sum + (b * pow(q, i, M) % M) * h) % M
        expected = b % M * (nexp % M * h % M) % M
        bad = np.nonzero(diag_sum != expected)[0]
        for hv in bad[:10]:
            counterexamples.append(
                {"where": "H", "h": int(hv), "det_exp": int(diag_sum[hv]),
                 "expected": int(expected[hv])}
            )
        # det rho(h*phi) = (-1)^(d-1) theta((h*phi)^d); the d-cycle
        # contributes sign (-1)^(d-1) and the same exponent sum, while
        # (h*phi)^d = (nexp*h, 0) in the group
        gamma_exp = diag_sum  # column relabeling does not change the sum
        theta_pow = b % M * (nexp % M * h % M) % M
        bad = np.nonzero(gamma_exp != theta_pow)[0]
        for hv in bad[:10]:
            counterexamples.append(
                {"where": "generators", "h": int(hv),
                 "det_exp": int(gamma_exp[hv]), "expected": int(theta_pow[hv])}
            )
    else:
        for hv in range(M):
            sign, exp = det_of(rep, (hv, 0))
            want = rep.character_exponent(nexp * hv % M)
            if sign != 1 or exp != want:
                counterexamples.append(
                    {"where": "H", "h": hv, "det": [sign, exp],
                     "expected": [1, want]}
                )
            if d > 1:
                sign, exp = det_of(rep, (hv, 1))
                gd = model.power((hv, 1), d)
                assert gd[1] == 0
                want = rep.character_exponent(gd[0])
                if sign != sign_gamma or exp != want:
                    counterexamples.append(
                        {"where": "generators", "h": hv, "det": [sign, exp],
                         "expected": [sign_gamma, want]}
                    )

    # sign of det rho at h*phi is independent of h: spot-check via the
    # actual monomial matrix at a few h
    if d > 1 and M > 1:
        for hv in {0, 1, M - 1}:
            sign, _ = det_of(rep, (hv % M, 1))
            if sign != sign_gamma:
                counterexamples.append(
                    {"where": "generators-sign", "h": hv, "sign": sign,
                     "expected": sign_gamma}
                )

    return {
        "q": q,
        "d": d,
        "M": M,
        "b": b,
        "checked": 2 * M,
        "counterexamples": counterexamples,
        "pass": not counterexamples,
    }
