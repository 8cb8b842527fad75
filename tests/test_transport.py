import random

import pytest
from hypothesis import given, settings, strategies as st

from cryslift.errors import InfeasibleError
from cryslift.transport import (
    AssignmentMatrix,
    TransportInstance,
    _fix_row_duplicates,
    _raise_row_magnitude,
    regular_transport,
    transport,
    verify_assignment,
)


class TestTransport:
    def test_single_row(self):
        assert transport([5], [2, 3]).entries == [[2, 3]]

    def test_lowest_index_tie_break(self):
        assert transport([1, 2], [3, 0]).entries == [[1, 0], [2, 0]]

    def test_zero_instance(self):
        assert transport([0, 0], [0, 0]).entries == [[0, 0], [0, 0]]

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
        assert [sum(row) for row in sol.entries] == a
        assert [sum(col) for col in zip(*sol.entries)] == b
        ok, violations = verify_assignment(sol)
        assert ok, violations


class TestRegularTransport:
    def test_witness_instance(self):
        sol = regular_transport([0], [0, 0], 3, 5)
        assert sol.entries == [[6, -6]]

    def test_trivial_modulus(self):
        sol = regular_transport([7], [3, 4], 1, 0)
        ok, violations = verify_assignment(sol)
        assert ok, violations

    def test_two_by_two(self):
        sol = regular_transport([4, 6], [1, 1], 2, 0)
        ok, violations = verify_assignment(sol)
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
        assert first.entries == second.entries

    def test_block_separation_between_rows(self):
        sol = regular_transport([5, 5, 5], [1, 2, 0], 3, 2)
        rows = sol.entries
        for i in range(len(rows) - 1):
            assert max(abs(v) for v in rows[i]) < min(abs(v) for v in rows[i + 1])

    def test_trace_preserves_sums(self):
        sol = regular_transport([4, -6], [1, 1, 4], 4, 7, trace=True)
        assert sol.trace
        for event in sol.trace:
            assert event["before"]["row_sums"] == event["after"]["row_sums"]
            assert event["before"]["col_residues"] == event["after"]["col_residues"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
        st.lists(st.integers(-50, 50), min_size=2, max_size=6),
        st.integers(1, 12),
        st.integers(0, 100),
    )
    def test_checker_accepts_solver_property(self, a, b, m, C):
        b = b[:-1] + [b[-1] + (sum(a) - sum(b)) % m]  # force congruence
        sol = regular_transport(a, b, m, C, trace=True)
        ok, violations = verify_assignment(sol)
        assert ok, violations
        for event in sol.trace:
            assert event["before"]["row_sums"] == event["after"]["row_sums"]
            assert event["before"]["col_residues"] == event["after"]["col_residues"]


def _fix_row_duplicates_reference(row, m):
    """The quadratic rescan: after every move, search the lowest-index
    duplicate pair afresh and rebuild the set of the other entries."""
    moves = []
    while len(set(row)) != len(row):
        j, k = next(
            (j, k)
            for j in range(len(row))
            for k in range(j + 1, len(row))
            if row[j] == row[k]
        )
        others = set(row[:j] + row[j + 1 : k] + row[k + 1 :])
        N = 1
        while (
            row[j] + m * N in others
            or row[k] - m * N in others
            or row[j] + m * N == row[k] - m * N
        ):
            N += 1
        row[j] += m * N
        row[k] -= m * N
        moves.append((j, k, N))
    return moves


def _raise_row_magnitude_reference(row, m, threshold):
    """The entry-by-entry scan for the smallest admissible N."""
    k = len(row)
    j0 = row.index(max(row))
    N = 0
    while True:
        need = N
        if abs(row[j0] + m * (k - 1) * N) <= threshold:
            need = max(need, N + 1, -(-(threshold + 1 - row[j0]) // (m * (k - 1))))
        for j in range(k):
            if j != j0 and abs(row[j] - m * N) <= threshold:
                need = max(need, N + 1, -(-(row[j] + threshold + 1) // m))
        if need == N:
            row[:] = [
                row[j] + m * (k - 1) * N if j == j0 else row[j] - m * N
                for j in range(k)
            ]
            return j0, N
        N = need


class TestRowMovesMatchReference:
    """The incremental row fixes make exactly the moves of the plain
    rescans they replace."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=12), st.integers(1, 6))
    def test_fix_row_duplicates(self, row, m):
        expected = list(row)
        expected_moves = _fix_row_duplicates_reference(expected, m)
        assert _fix_row_duplicates(row, m) == expected_moves
        assert row == expected
        assert len(set(row)) == len(row)

    def test_fix_row_duplicates_all_equal(self):
        row = [0] * 12
        expected = list(row)
        assert _fix_row_duplicates(row, 1) == _fix_row_duplicates_reference(expected, 1)
        assert row == expected

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(st.integers(-60, 60), min_size=2, max_size=12, unique=True),
        st.integers(1, 6),
        st.integers(0, 100),
    )
    def test_raise_row_magnitude(self, row, m, threshold):
        expected = list(row)
        assert _raise_row_magnitude(row, m, threshold) == _raise_row_magnitude_reference(
            expected, m, threshold)
        assert row == expected


class TestVerifyAssignment:
    def test_rejects_duplicate_entries_in_regular_mode(self):
        inst = TransportInstance((2,), (1, 1), m=1, C=0)
        ok, violations = verify_assignment(AssignmentMatrix(inst, [[1, 1]]))
        assert not ok
        assert any("distinct" in v for v in violations)

    def test_rejects_wrong_row_sum(self):
        inst = TransportInstance((4, 1), (2, 3))
        ok, violations = verify_assignment(AssignmentMatrix(inst, [[2, 3], [0, 0]]))
        assert not ok
        assert any("row" in v for v in violations)

    def test_rejects_magnitude_violation(self):
        inst = TransportInstance((2,), (1, 1), m=2, C=5)
        ok, violations = verify_assignment(AssignmentMatrix(inst, [[3, -1]]))
        assert not ok
        assert any("C" in v for v in violations)

    def test_shape_mismatch(self):
        inst = TransportInstance((1,), (1,))
        ok, violations = verify_assignment(AssignmentMatrix(inst, [[1, 0]]))
        assert not ok


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
        ok, violations = verify_assignment(sol)
        assert ok, (a, b, m, C, violations)

        b_exact = list(b)
        b_exact[-1] += sum(a) - sum(b_exact)
        sol = transport(a, b_exact)
        ok, violations = verify_assignment(sol)
        assert ok, (a, b_exact, violations)
