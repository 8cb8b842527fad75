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

Both are deterministic closed forms, with no search, and return the
matrix as a list of rows.  :func:`verify_assignment` checks a matrix
against the problem it is given.
"""

from __future__ import annotations

from itertools import chain

from .errors import InfeasibleError


def _check(a: list[int], b: list[int], m: int | None = None, C: int = 0) -> None:
    """Refuse a malformed or infeasible instance: row sums a, column sums b,
    m None for the exact problem (column sums hit b on the nose) or m >= 1
    for the regular one (column sums mod m, entries distinct, |entry| > C)."""
    if not a or not b:
        raise ValueError("row and column sum lists must be nonempty")
    if m is None:
        if sum(a) != sum(b):
            raise InfeasibleError(f"total mismatch: sum(a)={sum(a)} != sum(b)={sum(b)}")
        return
    if m < 1:
        raise ValueError(f"modulus m={m} must be >= 1")
    if C < 0:
        raise ValueError(f"magnitude bound C={C} must be >= 0")
    if len(b) < 2:
        raise InfeasibleError("regular problem needs at least two columns to rebalance")
    if (sum(a) - sum(b)) % m != 0:
        raise InfeasibleError(
            f"congruence mismatch: sum(a)={sum(a)} !≡ sum(b)={sum(b)} (mod {m})"
        )


def _last_row(a: list[int], b: list[int]) -> list[int]:
    """The last row of the exact base: row i < n-1 places its whole total
    a_i in column 0, and the last row is whatever remains of b.
    (Induction with lowest-index tie-breaks.)"""
    last = list(b)
    last[0] -= sum(a[:-1])
    return last


def _exact_rows(a: list[int], b: list[int]) -> list[list[int]]:
    """The exact base: row i < n-1 is a_i then zeros, then _last_row."""
    zeros = [0] * (len(b) - 1)
    return [[x] + zeros for x in a[:-1]] + [_last_row(a, b)]


def transport(a: list[int], b: list[int]) -> list[list[int]]:
    """Exact transportation: row sums a, column sums b, sum(a) == sum(b)."""
    _check(a, b)
    return _exact_rows(a, b)


def _offsets(k: int, T: int, s: int) -> list[int]:
    """k >= 2 offsets summing to zero, each of magnitude >= T, pairwise
    at least s apart (given 2T >= s): pairs +-(T + s*t), and for odd k a
    closing triple (U, U + s, -(2U + s)) continuing the progression."""
    pairs = (k - 3) // 2 if k % 2 else k // 2
    y = [v for u in range(T, T + s * pairs, s) for v in (u, -u)]
    if k % 2:
        U = T + s * pairs
        y += [U, U + s, -(2 * U + s)]
    return y


def regular_transport(a: list[int], b: list[int], m: int, C: int) -> list[list[int]]:
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
    _check(a, b, m, C)
    n, k = len(a), len(b)

    # Exact column targets congruent to b: keep b_j for j < k-1, dump the
    # correction into the last column (stays in its residue class mod m).
    last = _last_row(a, [*b[:-1], sum(a) - sum(b[:-1])])
    top = max(map(abs, last))
    kept = len(set(last)) == k and min(map(abs, last)) > C
    B = max([top, *map(abs, a[:-1])])
    s, w = 2 * B // m + 1, (k + 1) // 2
    T = ((top if kept else C) + B) // m + 1
    if k % 2:
        T = max(T, s * w * (n - 1))
    # the offsets scale with T and s: m*y is the offsets of m*T and m*s;
    # base row i < n-1 is a_i then zeros, so its row is y with a_i added
    T, s = m * T, m * s
    entries = []
    for i, x in enumerate(a[:-1]):
        row = _offsets(k, T + s * w * i, s)
        row[0] += x
        entries.append(row)
    if not kept:
        last = [x + o for x, o in zip(last, _offsets(k, T + s * w * (n - 1), s))]
    entries.append(last)
    return entries


def verify_assignment(x: list[list[int]], a: list[int], b: list[int],
                      m: int | None = None, C: int = 0) -> tuple[bool, list[str]]:
    """Check x against the problem (a, b, m, C), exact when m is None;
    list each violation found.  A refused problem raises as the solvers do."""
    _check(a, b, m, C)
    n, k = len(a), len(b)
    if len(x) != n or set(map(len, x)) != {k}:
        return False, [f"shape mismatch: expected {n}x{k}"]

    # the texts are formatted only for a failing family, in scan order; the
    # sums are lists, as tuple(map(...)) resizes and fills tuple free lists
    violations: list[str] = []
    rows, cols = list(map(sum, x)), list(map(sum, zip(*x)))
    if rows != list(a):
        violations += [f"row {i} sums to {s}, expected {ai}"
                       for i, (s, ai) in enumerate(zip(rows, a)) if s != ai]
    if m is None:
        if cols != list(b):
            violations += [f"column {j} sums to {s}, expected {bj}"
                           for j, (s, bj) in enumerate(zip(cols, b)) if s != bj]
        return (not violations), violations
    violations += [f"column {j} sums to {s} !≡ {bj} (mod {m})"
                   for j, (s, bj) in enumerate(zip(cols, b)) if (s - bj) % m]
    flat = list(chain.from_iterable(x))
    if len(set(flat)) != n * k:
        violations.append("entries are not pairwise distinct")
    if min(map(abs, flat)) <= C:
        violations += [f"|x[{i}][{j}]| = {abs(v)} <= C = {C}"
                       for i, row in enumerate(x) for j, v in enumerate(row) if abs(v) <= C]
    return (not violations), violations
