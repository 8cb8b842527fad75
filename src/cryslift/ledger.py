"""Symbolic bookkeeping of determinants and crystalline-character twists.

Weight profiles are pure integer data: for each embedding of F a
descending d-tuple of Hodge-Tate weights.  The operations here are the
cyclotomic-shift step used to separate two profiles before an extension
(all weights of one positive, all of the other negative, with the
matching determinant shifts cancelling) and the fixed-determinant twist
that recovers one profile from another congruent one via a character
with exponents k(eta)/d and a formal d-th root at the uniformizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleError
from .lifting import LocalFieldShape
from .units import UnitExpr


@dataclass(frozen=True)
class CrystCharSpec:
    """A crystalline character: unit-part exponents over Sigma_F and a
    symbolic value at the uniformizer (the pure power character has
    value 1 there)."""

    k: tuple[int, ...]
    uniformizer: UnitExpr


@dataclass(frozen=True)
class WeightProfile:
    """Per-embedding descending weight tuples of a d-dimensional
    representation."""

    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("profile needs at least one embedding")
        d = len(self.weights[0])
        for tup in self.weights:
            if len(tup) != d or d == 0:
                raise ValueError("all embeddings must carry the same dimension >= 1")
            if any(tup[i] < tup[i + 1] for i in range(d - 1)):
                raise ValueError(f"weights {tup} are not descending")

    @property
    def dim(self) -> int:
        return len(self.weights[0])

    @property
    def regular(self) -> bool:
        return all(
            all(t[i] > t[i + 1] for i in range(len(t) - 1)) for t in self.weights
        )

    def det_exponents(self) -> tuple[int, ...]:
        return tuple(sum(t) for t in self.weights)

    def all_weights(self):
        return (w for t in self.weights for w in t)


def twist(profile: WeightProfile, m: int) -> WeightProfile:
    """Tensor by a character of weight m: every weight shifts by m."""
    return WeightProfile(tuple(tuple(w + m for w in t) for t in profile.weights))


def shift_for_extension(
    p1: WeightProfile,
    p2: WeightProfile,
    p: int,
) -> tuple[int, WeightProfile, WeightProfile, dict]:
    """Smallest N making p1 + d2(p-1)N all-positive and p2 - d1(p-1)N
    all-negative; cyclotomic convention: weight 1 per twist.

    The least N with c*N > x is x // c + 1, so N is read off the smallest
    weight of p1 and the largest of p2.  The ledger records the
    determinant shifts +-d1*d2*(p-1)*N, which cancel, so the product of
    the shifted determinants is unchanged.
    """
    if p < 2:
        raise ValueError(f"p={p} must be at least 2")
    if len(p1.weights) != len(p2.weights):
        raise ValueError(f"profiles have {len(p1.weights)} and {len(p2.weights)} "
                         "embeddings; both need the same")
    d1, d2 = p1.dim, p2.dim
    step = p - 1
    N = max(0, -min(p1.all_weights()) // (d2 * step) + 1,
            max(p2.all_weights()) // (d1 * step) + 1)
    if N >= 1:
        prev_ok = all(
            w + d2 * step * (N - 1) > 0 for w in p1.all_weights()
        ) and all(w - d1 * step * (N - 1) < 0 for w in p2.all_weights())
        assert not prev_ok, "N is not minimal"
    p1_shifted = twist(p1, d2 * step * N)
    p2_shifted = twist(p2, -d1 * step * N)
    det_shift = d1 * d2 * step * N
    ledger = {
        "N": N,
        "cyclotomic_step": step,
        "det_shift_1": det_shift,
        "det_shift_2": -det_shift,
        "det_sum_preserved": tuple(
            s1 + s2
            for s1, s2 in zip(p1_shifted.det_exponents(), p2_shifted.det_exponents())
        )
        == tuple(
            s1 + s2 for s1, s2 in zip(p1.det_exponents(), p2.det_exponents())
        ),
        "slightly_less": _slightly_less(p1_shifted, p2_shifted),
    }
    assert ledger["det_sum_preserved"]
    return N, p1_shifted, p2_shifted, ledger


def _slightly_less(p1: WeightProfile, p2: WeightProfile) -> bool:
    """Convention-dependent separation predicate.

    Per embedding, every weight of p1 strictly above every weight of p2,
    which is "below" once the cyclotomic-weight sign convention is
    flipped and is the reading consistent with the
    all-positive/all-negative split.
    """
    return all(
        min(t1) > max(t2) for t1, t2 in zip(p1.weights, p2.weights)
    )


def twist_shout(
    rho_weights: WeightProfile,
    rho_x_weights: WeightProfile,
    shape: LocalFieldShape,
) -> CrystCharSpec:
    """Fixed-determinant twist: the character theta with rho_x (x) theta
    matching rho's determinant.

    Requires the positionwise congruence of the two profiles mod d*t;
    the per-embedding weight gap k(eta) is then divisible by d*t, theta
    gets exponents k(eta)/d (a t-th power), and its uniformizer value is
    the formal d-th root of eta's.
    """
    d = shape.d
    t = shape.t
    if rho_weights.dim != d or rho_x_weights.dim != d:
        raise ValueError(f"both profiles must have dimension d={d}")
    n = shape.size_F
    if len(rho_weights.weights) != n or len(rho_x_weights.weights) != n:
        raise ValueError(f"both profiles must have |Sigma_F| = e*f = {n} embeddings")
    dt = d * t
    for s, (t1, t2) in enumerate(zip(rho_weights.weights, rho_x_weights.weights)):
        for i, (w1, w2) in enumerate(zip(t1, t2)):
            if (w1 - w2) % dt != 0:
                raise InfeasibleError(
                    f"weight congruence mod {dt} fails at embedding {s}, "
                    f"slot {i}: {w2} !≡ {w1}"
                )
    k_eta = tuple(
        sum(t1) - sum(t2)
        for t1, t2 in zip(rho_weights.weights, rho_x_weights.weights)
    )
    for s, v in enumerate(k_eta):
        assert v % dt == 0, f"dt={dt} must divide k(eta)={v} at embedding {s}"
    k = tuple(v // d for v in k_eta)
    for s, v in enumerate(k):
        assert v % t == 0, f"theta's exponent {v} at embedding {s} is not a t-th power"
    # determinant identity at data level
    det_rho = rho_weights.det_exponents()
    det_rho_x = rho_x_weights.det_exponents()
    assert all(
        dx + d * ks == dr for dx, ks, dr in zip(det_rho_x, k, det_rho)
    ), "determinant exponents do not balance"
    return CrystCharSpec(k, UnitExpr.symbol("eta(varpi_F)").root(d))
