import hashlib
import json
import random
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from cryslift.errors import InfeasibleError
from cryslift.transport import regular_transport, transport, verify_assignment


class TestTransport:
    def test_single_row(self):
        assert transport([5], [2, 3]) == [[2, 3]]

    def test_lowest_index_tie_break(self):
        assert transport([1, 2], [3, 0]) == [[1, 0], [2, 0]]

    def test_zero_instance(self):
        assert transport([0, 0], [0, 0]) == [[0, 0], [0, 0]]

    def test_total_mismatch_rejected(self):
        with pytest.raises(InfeasibleError):
            transport([1], [2])

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    )
    def test_sums_property(self, a, b):
        b = b[:-1] + [sum(a) - sum(b[:-1])]  # force feasibility
        sol = transport(a, b)
        assert [sum(row) for row in sol] == a
        assert [sum(col) for col in zip(*sol)] == b
        ok, violations = verify_assignment(sol, a, b)
        assert ok, violations


class TestRegularTransport:
    def test_witness_instance(self):
        sol = regular_transport([0], [0, 0], 3, 5)
        assert sol == [[6, -6]]

    def test_trivial_modulus(self):
        sol = regular_transport([7], [3, 4], 1, 0)
        ok, violations = verify_assignment(sol, [7], [3, 4], 1, 0)
        assert ok, violations

    def test_two_by_two(self):
        sol = regular_transport([4, 6], [1, 1], 2, 0)
        ok, violations = verify_assignment(sol, [4, 6], [1, 1], 2, 0)
        assert ok, violations

    def test_single_column_rejected(self):
        with pytest.raises(InfeasibleError):
            regular_transport([5], [5], 3, 0)

    def test_congruence_mismatch_rejected(self):
        with pytest.raises(InfeasibleError):
            regular_transport([1], [0, 0], 3, 0)

    def test_determinism(self):
        a, b = [3, -7, 2], [1, 4, 5]  # sums -2 and 10 agree mod 3
        first = regular_transport(a, b, 3, 10)
        second = regular_transport(a, b, 3, 10)
        assert first == second

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
        st.lists(st.integers(-50, 50), min_size=2, max_size=6),
        st.integers(1, 12),
        st.integers(0, 100),
    )
    def test_checker_accepts_solver_property(self, a, b, m, C):
        b = b[:-1] + [b[-1] + (sum(a) - sum(b)) % m]  # force congruence
        sol = regular_transport(a, b, m, C)
        ok, violations = verify_assignment(sol, a, b, m, C)
        assert ok, violations


_ints = st.one_of(st.integers(-10, 10), st.integers(-10**6, 10**6))


@st.composite
def regular_instances(draw):
    """(a, b, m, C) with up to 13 columns, |a_i|, |b_j|, C up to 10^6 and
    b's last entry moved into the class that makes the instance feasible."""
    k = draw(st.integers(2, 13))
    a = draw(st.lists(_ints, min_size=1, max_size=6))
    b = draw(st.lists(_ints, min_size=k, max_size=k))
    m = draw(st.one_of(st.integers(1, 12), st.integers(1, 1000)))
    C = draw(st.one_of(st.integers(0, 20), st.integers(0, 10**6)))
    b[-1] += (sum(a) - sum(b)) % m
    return a, b, m, C


def _base(a, b):
    """The exact transport solution that regular_transport offsets."""
    return transport(a, b[:-1] + [sum(a) - sum(b[:-1])])


class TestRegularConstruction:
    """Each invariant of the base + m*offsets rows, on its own."""

    @settings(max_examples=200, deadline=None)
    @given(regular_instances())
    def test_row_sums_exact(self, inst):
        a, b, m, C = inst
        assert [sum(row) for row in regular_transport(a, b, m, C)] == a

    @settings(max_examples=200, deadline=None)
    @given(regular_instances())
    def test_column_sums_congruent(self, inst):
        a, b, m, C = inst
        cols = zip(*regular_transport(a, b, m, C))
        assert all((sum(col) - bj) % m == 0 for col, bj in zip(cols, b))

    @settings(max_examples=200, deadline=None)
    @given(regular_instances())
    def test_globally_distinct(self, inst):
        a, b, m, C = inst
        flat = [x for row in regular_transport(a, b, m, C) for x in row]
        assert len(set(flat)) == len(flat) == len(a) * len(b)

    @settings(max_examples=200, deadline=None)
    @given(regular_instances())
    def test_above_C(self, inst):
        a, b, m, C = inst
        assert all(abs(x) > C for row in regular_transport(a, b, m, C) for x in row)

    @settings(max_examples=200, deadline=None)
    @given(regular_instances())
    def test_magnitude_bound(self, inst):
        """|entry| <= 2*max(C, B) + (2n(k+1) + 3)*(2B + m), B the largest
        |entry| of the base: linear in the row count n."""
        a, b, m, C = inst
        n, k = len(a), len(b)
        B = max(abs(x) for row in _base(a, b) for x in row)
        bound = 2 * max(C, B) + (2 * n * (k + 1) + 3) * (2 * B + m)
        assert all(abs(x) <= bound for row in regular_transport(a, b, m, C) for x in row)

    @settings(max_examples=200, deadline=None)
    @example(([4, -6], [1, 1, 4], 4, 7))
    @example(([0, 100], [60, 40], 1, 0))
    @given(regular_instances())
    def test_offsets_rebuild_entries(self, inst):
        """entries == base + m*offsets, with every offset vector summing
        to 0 (a kept row has offsets 0)."""
        a, b, m, C = inst
        sol = regular_transport(a, b, m, C)
        assert len(sol) == len(a)
        for row, base in zip(sol, _base(a, b)):
            assert all((x - x0) % m == 0 for x, x0 in zip(row, base))
            assert sum((x - x0) // m for x, x0 in zip(row, base)) == 0

    def test_odd_k_offsets(self):
        assert regular_transport([0], [0] * 5, 1, 0) == [[1, -1, 2, 3, -5]]


# instances (a, b, m, C) that the solvers refuse, with the exception raised
REFUSED = [
    (([], [1], None, 0), ValueError, "row and column sum lists must be nonempty"),
    (([1], [0, 1], 0, 0), ValueError, "modulus m=0 must be >= 1"),
    (([1], [0, 1], 1, -1), ValueError, "magnitude bound C=-1 must be >= 0"),
    (([1], [1], 1, 0), InfeasibleError,
     "regular problem needs at least two columns to rebalance"),
    (([1], [0, 0], 3, 0), InfeasibleError, "congruence mismatch: sum(a)=1 !≡ sum(b)=0 (mod 3)"),
    (([1], [2], None, 0), InfeasibleError, "total mismatch: sum(a)=1 != sum(b)=2"),
]


@pytest.mark.parametrize("problem, exc, text", REFUSED,
                         ids=["empty-sums", "m-below-1", "negative-C", "one-column",
                              "congruence", "total"])
def test_refused_instances_raise_before_solving_or_verifying(problem, exc, text):
    """The solver and the verifier refuse an instance alike, before any
    arithmetic: m = 0 raises ValueError, not ZeroDivisionError."""
    a, b, m, C = problem
    with pytest.raises(exc) as solved:
        transport(a, b) if m is None else regular_transport(a, b, m, C)
    x = [[1] + [0] * (len(b) - 1) for _ in a]  # of the right shape
    with pytest.raises(exc) as verified:
        verify_assignment(x, a, b, m, C)
    assert str(solved.value) == str(verified.value) == text


def test_submodule_is_not_shadowed():
    """The package exports no function named transport, so cryslift.transport
    is the submodule."""
    import cryslift
    import cryslift.transport as t

    assert isinstance(cryslift.transport, types.ModuleType) and t is cryslift.transport
    assert t.regular_transport([0], [0, 0], 3, 5) == [[6, -6]]
    assert t.transport([5], [2, 3]) == [[2, 3]]


class TestVerifyAssignment:
    def test_rejects_duplicate_entries_in_regular_mode(self):
        ok, violations = verify_assignment([[1, 1]], [2], [1, 1], 1, 0)
        assert not ok
        assert any("distinct" in v for v in violations)

    def test_rejects_wrong_row_sum(self):
        ok, violations = verify_assignment([[2, 3], [0, 0]], [4, 1], [2, 3])
        assert not ok
        assert any("row" in v for v in violations)

    def test_rejects_magnitude_violation(self):
        ok, violations = verify_assignment([[3, -1]], [2], [1, 1], 2, 5)
        assert not ok
        assert any("C" in v for v in violations)

    def test_rejects_wrong_column_sums(self):
        ok, violations = verify_assignment([[3, 0], [2, 0]], [3, 2], [2, 3])
        assert not ok
        assert violations == ["column 0 sums to 5, expected 2", "column 1 sums to 0, expected 3"]

    def test_violation_texts_in_scan_order(self):
        """Rows, then columns, then distinctness, then magnitudes."""
        ok, violations = verify_assignment([[7, 7], [-7, 2]], [1, 0], [0, 1], 3, 5)
        assert not ok
        assert violations == [
            "row 0 sums to 14, expected 1",
            "row 1 sums to -5, expected 0",
            "column 1 sums to 9 !≡ 1 (mod 3)",
            "entries are not pairwise distinct",
            "|x[1][1]| = 2 <= C = 5",
        ]

    def test_shape_mismatch(self):
        ok, violations = verify_assignment([[1, 0]], [1], [1])
        assert not ok

    @pytest.mark.parametrize("small", [0, 1, 3])
    def test_magnitude_violations_match_a_full_scan(self, small):
        """With and without entries of magnitude <= C, the magnitude
        violations are those of a scan over every entry, listed last."""
        rng = random.Random(small)
        matrices = [([[-5, 5]], 5), ([[6, -6]], 5), ([[0, 1]], 0)]
        for _ in range(300):
            n, k, C = rng.randint(1, 5), rng.randint(2, 5), rng.randint(0, 50)
            x = [[rng.choice((-1, 1)) * rng.randint(C + 1, C + 60) for _ in range(k)]
                 for _ in range(n)]
            for _ in range(small):
                x[rng.randrange(n)][rng.randrange(k)] = rng.randint(-C, C)
            matrices.append((x, C))
        for x, C in matrices:
            a, b = list(map(sum, x)), list(map(sum, zip(*x)))
            ok, violations = verify_assignment(x, a, b, 3, C)
            full_scan = [f"|x[{i}][{j}]| = {abs(v)} <= C = {C}"
                         for i, row in enumerate(x) for j, v in enumerate(row) if abs(v) <= C]
            assert [v for v in violations if v.startswith("|x[")] == full_scan
            assert violations[len(violations) - len(full_scan):] == full_scan
            assert ok == (not violations)


def test_seeded_random_closure():
    rng = random.Random(7)
    for _ in range(500):
        n, k = rng.randint(1, 6), rng.randint(2, 6)
        a = [rng.randint(-50, 50) for _ in range(n)]
        b = [rng.randint(-50, 50) for _ in range(k)]
        m = rng.randint(1, 12)
        C = rng.randint(0, 100)
        b[-1] += (sum(a) - sum(b)) % m
        sol = regular_transport(a, b, m, C)
        ok, violations = verify_assignment(sol, a, b, m, C)
        assert ok, (a, b, m, C, violations)

        b_exact = list(b)
        b_exact[-1] += sum(a) - sum(b_exact)
        sol = transport(a, b_exact)
        ok, violations = verify_assignment(sol, a, b_exact)
        assert ok, (a, b_exact, violations)


# sha256 over regular_transport's entries on _pinned_instances: any drift in
# the closed form (base, offsets, kept last row) changes it
TRANSPORT_DIGEST = "5e9b6ce7dd4c5b2eb513ca1945c1f8d556d950debe33490d3fe80ab8910b1f8b"


def _pinned_instances():
    """2100 seeded instances: n <= 12, 2 <= k <= 12, C in {0, 5, 1000}, and
    entries small or large enough for the last base row to be kept or not."""
    rng = random.Random(14)
    for C in (0, 5, 1000):
        for _ in range(700):
            n, k = rng.randint(1, 12), rng.randint(2, 12)
            hi = rng.choice((10, 3000))
            a = [rng.randint(-hi, hi) for _ in range(n)]
            b = [rng.randint(-hi, hi) for _ in range(k)]
            m = rng.randint(1, 12)
            b[-1] += (sum(a) - sum(b)) % m
            yield a, b, m, C


def test_regular_transport_bytes_pinned():
    digest = hashlib.sha256()
    cases = set()
    for a, b, m, C in _pinned_instances():
        entries = regular_transport(a, b, m, C)
        cases.add((C, len(b) % 2, entries[-1] == _base(a, b)[-1]))
        digest.update(json.dumps(entries).encode())
    # every C, odd and even k, the last base row kept and offset
    assert len(cases) == 12
    assert digest.hexdigest() == TRANSPORT_DIGEST
