"""Integer transportation with exact row sums and (optionally modular) column sums.

Two solvers:

* :func:`transport` builds a matrix with exact row and column sums by
  induction on the rows (first remaining row dumps its total into the
  first column, last row absorbs the remainder).

* :func:`regular_transport` additionally makes all entries pairwise
  distinct with magnitude above a threshold C, at the price of relaxing
  column sums to congruences mod m.  Each row is built directly as
  base + m*y: the base is the exact :func:`transport` solution for column
  targets congruent to b, and y is a vector of offsets summing to zero,
  so row sums stay exact and column sums stay in their classes mod m.
  The offsets of all rows are distinct slots of one progression, spaced
  to keep the whole matrix distinct and starting high enough to put every
  entry above C.  Magnitudes grow additively in the rows, and at most
  double per call.

Both are deterministic closed forms, with no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import InfeasibleError


@dataclass(frozen=True)
class TransportInstance:
    """Row sums a, column sums b, optional modulus m and magnitude bound C.

    m is None for the exact problem (column sums hit b on the nose);
    m >= 1 switches to the regular problem (column sums mod m, entries
    distinct, |entry| > C).
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    m: int | None = None
    C: int = 0

    def __post_init__(self) -> None:
        if not self.a or not self.b:
            raise ValueError("row and column sum lists must be nonempty")
        if self.m is None:
            if sum(self.a) != sum(self.b):
                raise InfeasibleError(
                    f"total mismatch: sum(a)={sum(self.a)} != sum(b)={sum(self.b)}"
                )
        else:
            if self.m < 1:
                raise ValueError(f"modulus m={self.m} must be >= 1")
            if self.C < 0:
                raise ValueError(f"magnitude bound C={self.C} must be >= 0")
            if len(self.b) < 2:
                raise InfeasibleError(
                    "regular problem needs at least two columns to rebalance"
                )
            if (sum(self.a) - sum(self.b)) % self.m != 0:
                raise InfeasibleError(
                    f"congruence mismatch: sum(a)={sum(self.a)} !≡ "
                    f"sum(b)={sum(self.b)} (mod {self.m})"
                )

    @property
    def regular(self) -> bool:
        return self.m is not None


@dataclass
class AssignmentMatrix:
    """A solved instance together with its entries (rows x cols)."""

    instance: TransportInstance
    entries: list[list[int]]


def _exact_rows(a: list[int], b: list[int]) -> list[list[int]]:
    """Row i < n-1 places its whole total a_i in column 0; the last row is
    whatever remains of b.  (Induction with lowest-index tie-breaks.)"""
    last = list(b)
    last[0] -= sum(a[:-1])
    zeros = [0] * (len(b) - 1)
    return [[x] + zeros for x in a[:-1]] + [last]


def transport(a: list[int], b: list[int]) -> AssignmentMatrix:
    """Exact transportation: row sums a, column sums b, sum(a) == sum(b)."""
    return AssignmentMatrix(TransportInstance(tuple(a), tuple(b)), _exact_rows(a, b))


def _offsets(k: int, T: int, s: int) -> list[int]:
    """k >= 2 offsets summing to zero, each of magnitude >= T, pairwise
    at least s apart (given 2T >= s): pairs +-(T + s*t), and for odd k a
    closing triple (U, U + s, -(2U + s)) continuing the progression."""
    pairs = (k - 3) // 2 if k % 2 else k // 2
    y = [v for t in range(pairs) for v in (T + s * t, -(T + s * t))]
    if k % 2:
        U = T + s * pairs
        y += [U, U + s, -(2 * U + s)]
    return y


def regular_transport(a: list[int], b: list[int], m: int, C: int) -> AssignmentMatrix:
    """Distinct-entry transportation: exact row sums, column sums mod m.

    Entries are pairwise distinct across the whole matrix and satisfy
    |x_ij| > C.  Row i is base_i + m*y_i, its offsets y_i the slots
    i*w .. i*w + w - 1 (w = (k+1)//2) of one progression T, T + s, ...
    With B = max|base|, s = 2B//m + 1 makes m*s > 2B, so offsets s apart
    keep entries distinct.  Only the last base row lacks k-1 zeros; it is
    kept (y = 0) when distinct and above C.  T = (P + B)//m + 1, with P
    its largest |entry| if kept and C if not, makes m*T - B > P.  For odd
    k, T >= s*w*(n-1) puts every closing offset -(2U + s) beyond the pair
    lane.  So |x_ij| <= 2*max(C, B) + (2n(k+1) + 3)*(2B + m): additive in
    the rows, at most a factor 2 over C per call.
    """
    inst = TransportInstance(tuple(a), tuple(b), m, C)
    n, k = len(a), len(b)

    # Exact column targets congruent to b: keep b_j for j < k-1, dump the
    # correction into the last column (stays in its residue class mod m).
    rows = _exact_rows(a, list(b[:-1]) + [sum(a) - sum(b[:-1])])
    last = rows[-1]
    top = max(map(abs, last))
    kept = len(set(last)) == k and min(map(abs, last)) > C
    B = max(top, max(map(abs, a[:-1]), default=0))
    s, w = 2 * B // m + 1, (k + 1) // 2
    T = ((top if kept else C) + B) // m + 1
    if k % 2:
        T = max(T, s * w * (n - 1))
    entries = [[x + m * o for x, o in zip(base, _offsets(k, T + s * w * i, s))]
               for i, base in enumerate(rows[:-1] if kept else rows)]
    if kept:
        entries.append(last)
    return AssignmentMatrix(inst, entries)


def verify_assignment(M: AssignmentMatrix) -> tuple[bool, list[str]]:
    """Check every mode-appropriate invariant; list each violation found."""
    inst = M.instance
    x = M.entries
    n, k = len(inst.a), len(inst.b)
    if len(x) != n or set(map(len, x)) != {k}:
        return False, [f"shape mismatch: expected {n}x{k}"]

    # the texts are formatted only for a failing family, in scan order; the
    # sums are lists, as tuple(map(...)) resizes and fills tuple free lists
    violations: list[str] = []
    rows, cols = list(map(sum, x)), list(map(sum, zip(*x)))
    if rows != list(inst.a):
        violations += [f"row {i} sums to {s}, expected {ai}"
                       for i, (s, ai) in enumerate(zip(rows, inst.a)) if s != ai]
    if not inst.regular:
        if cols != list(inst.b):
            violations += [f"column {j} sums to {s}, expected {bj}"
                           for j, (s, bj) in enumerate(zip(cols, inst.b)) if s != bj]
        return (not violations), violations
    m, C = inst.m, inst.C
    violations += [f"column {j} sums to {s} !≡ {bj} (mod {m})"
                   for j, (s, bj) in enumerate(zip(cols, inst.b)) if (s - bj) % m]
    flat = list(chain.from_iterable(x))
    if len(set(flat)) != n * k:
        violations.append("entries are not pairwise distinct")
    if min(map(abs, flat)) <= C:
        violations += [f"|x[{i}][{j}]| = {abs(v)} <= C = {C}"
                       for i, row in enumerate(x) for j, v in enumerate(row) if abs(v) <= C]
    return (not violations), violations
