"""Integer transportation with exact row sums and (optionally modular) column sums.

Two solvers:

* :func:`transport` builds a matrix with exact row and column sums by
  induction on the rows (first remaining row dumps its total into the
  first column, last row absorbs the remainder).

* :func:`regular_transport` additionally makes all entries pairwise
  distinct with magnitude above a threshold C, at the price of relaxing
  column sums to congruences mod m.  Entries of later rows dominate
  earlier rows in absolute value, which is what makes global
  distinctness and downstream block separation work.

Both are deterministic: all tie-breaks are lowest-index, and every
rebalancing step uses the smallest multiplier N that clears its
constraints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

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
    trace: list[dict] = field(default_factory=list)


def transport(a: list[int], b: list[int]) -> AssignmentMatrix:
    """Exact transportation: row sums a, column sums b, sum(a) == sum(b).

    Row i < n-1 places its whole total a_i in column 0; the last row is
    whatever remains of b.  (Induction with lowest-index tie-breaks.)
    """
    inst = TransportInstance(tuple(a), tuple(b))
    n, k = len(a), len(b)
    rows: list[list[int]] = []
    rem = list(b)
    for i in range(n - 1):
        row = [a[i]] + [0] * (k - 1)
        rem[0] -= a[i]
        rows.append(row)
    rows.append(rem)
    return AssignmentMatrix(inst, rows)


def _all_distinct(xs: list[int]) -> bool:
    return len(set(xs)) == len(xs)


def _fix_row_duplicates(row: list[int], m: int) -> list[tuple[int, int, int]]:
    """Make row entries pairwise distinct by +-m*N swaps; returns the moves.

    Each move takes the lowest-index duplicate pair (j, k) and the smallest
    N >= 1 that moves both entries to values absent from the row.  No move
    creates a duplicate, so j only advances.
    """
    count = Counter(row)
    moves = []
    for j, v in enumerate(row):
        if count[v] < 2:
            continue
        k = row.index(v, j + 1)
        N = 1
        while count.get(v + m * N) or count.get(v - m * N):
            N += 1
        row[j], row[k] = v + m * N, v - m * N
        count[v] -= 2
        count[row[j]] = count[row[k]] = 1
        moves.append((j, k, N))
    return moves


def _raise_row_magnitude(row: list[int], m: int, threshold: int) -> tuple[int, int]:
    """Push all |entries| strictly above threshold, preserving the row sum.

    Adds m*(k-1)*N to the largest entry (lowest index on ties) and
    subtracts m*N from every other entry, for the smallest N that works.
    Distinctness is preserved: non-pivot entries shift uniformly and the
    pivot only grows away from them.
    """
    k = len(row)
    j0 = row.index(max(row))
    # The smallest admissible N is found by jumping: the pivot grows and
    # every other entry shrinks monotonically in N, so a violated
    # constraint at N pins an exact lower bound for any larger valid N.
    # Distinctness never rules out an N: non-pivots shift uniformly and
    # pivot - other = (row[j0] - row[j]) + m*k*N > 0 for N >= 1, while
    # N = 0 leaves the (already distinct) row unchanged.
    # Among violated non-pivots the largest entry pins the largest bound.
    others = row[:j0] + row[j0 + 1:]
    N = 0
    while True:
        need = N
        if abs(row[j0] + m * (k - 1) * N) <= threshold:
            need = max(need, N + 1, -(-(threshold + 1 - row[j0]) // (m * (k - 1))))
        hit = [x for x in others if abs(x - m * N) <= threshold]
        if hit:
            need = max(need, N + 1, -(-(max(hit) + threshold + 1) // m))
        if need == N:
            cand = [
                row[j] + m * (k - 1) * N if j == j0 else row[j] - m * N
                for j in range(k)
            ]
            assert min(map(abs, cand)) > threshold and _all_distinct(cand)
            row[:] = cand
            return j0, N
        N = need


def regular_transport(
    a: list[int],
    b: list[int],
    m: int,
    C: int,
    trace: bool = False,
) -> AssignmentMatrix:
    """Distinct-entry transportation: exact row sums, column sums mod m.

    Entries are pairwise distinct across the whole matrix and satisfy
    |x_ij| > C; moreover max|row i| < min|row i+1| (block separation).
    """
    inst = TransportInstance(tuple(a), tuple(b), m, C)
    n, k = len(a), len(b)

    # Exact column targets congruent to b: keep b_j for j < k-1, dump the
    # correction into the last column (stays in its residue class mod m).
    b_prime = list(b[:-1]) + [sum(a) - sum(b[:-1])]
    base = transport(a, b_prime)
    rows = base.entries

    result = AssignmentMatrix(inst, rows)

    def snapshot() -> dict:
        return {
            "row_sums": [sum(r) for r in rows],
            "col_residues": [sum(rows[i][j] for i in range(n)) % m for j in range(k)],
        }

    prev_max = C
    for i in range(n):
        before = snapshot() if trace else None
        moves = _fix_row_duplicates(rows[i], m)
        j0, N = _raise_row_magnitude(rows[i], m, prev_max)
        prev_max = max(abs(x) for x in rows[i])
        if trace:
            result.trace.append(
                {
                    "row": i,
                    "duplicate_moves": moves,
                    "pivot": j0,
                    "magnitude_N": N,
                    "before": before,
                    "after": snapshot(),
                }
            )
    return result


def verify_assignment(M: AssignmentMatrix) -> tuple[bool, list[str]]:
    """Check every mode-appropriate invariant; list each violation found."""
    inst = M.instance
    x = M.entries
    violations: list[str] = []
    n, k = len(inst.a), len(inst.b)
    if len(x) != n or any(len(r) != k for r in x):
        return False, [f"shape mismatch: expected {n}x{k}"]

    for i in range(n):
        s = sum(x[i])
        if s != inst.a[i]:
            violations.append(f"row {i} sums to {s}, expected {inst.a[i]}")

    if not inst.regular:
        for j, col in enumerate(zip(*x)):
            s = sum(col)
            if s != inst.b[j]:
                violations.append(f"column {j} sums to {s}, expected {inst.b[j]}")
    else:
        m = inst.m
        for j, col in enumerate(zip(*x)):
            s = sum(col)
            if (s - inst.b[j]) % m != 0:
                violations.append(
                    f"column {j} sums to {s} !≡ {inst.b[j]} (mod {m})"
                )
        flat = [v for row in x for v in row]
        if not _all_distinct(flat):
            violations.append("entries are not pairwise distinct")
        for i in range(n):
            for j in range(k):
                if abs(x[i][j]) <= inst.C:
                    violations.append(f"|x[{i}][{j}]| = {abs(x[i][j])} <= C = {inst.C}")
    return (not violations), violations
