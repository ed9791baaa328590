"""Tests for exact rational linear algebra.

The LP feasibility routine is checked against a self-contained brute-force
oracle (enumeration of candidate basic solutions with a local Gaussian
solve), so the two implementations share no code beyond Fraction itself.
Each integer kernel is also checked for identical output against the one
``Fraction`` kernel it replaced, kept in ``oracles.py``:

- ``rref``, ``rank``, ``nullspace_basis`` and ``_integer_nullspace`` against
  ``oracles.rref`` and ``oracles.nullspace_basis``, on integer, rational and
  float matrices with the empty matrix and repeated, scaled and zero rows,
  repr for repr (``rank`` against the oracle's pivot count);
- ``lp_feasible`` against ``oracles.lp_feasible``, down to the basic point,
  on integer, rational and float systems with rows that tie in the ratio
  test.

Both kernels run one row step, ``_reduce``, which keeps each row a positive
multiple of its true row; its branches are checked against the ``Fraction``
Gauss-Jordan step. ``RowReducer``, ``solve_unique`` and
``scale_to_integers`` live in ``oracles.py`` now; their unit tests stay
here. Both kernels take and return integers, so the cases with Fractions or
floats reach them through ``oracles.fraction_lp`` and ``_integer_rows``;
the integer contracts themselves (the ``(u, denom)`` point, both branches
of ``_reduce``, an elimination pivot other than 1, the unpadded tableau)
have their own tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from pathlib import Path

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crnkit import linalg
from crnkit.core import parse_network, reaction_vectors
from crnkit.linalg import (
    _eliminate,
    _integer_nullspace,
    _integer_rows,
    _primitive,
    lp_feasible,
    nullspace_basis,
    rank,
    rref,
)
from oracles import RowReducer, fraction_lp, scale_to_integers, solve_unique

DATA = Path(__file__).parent / "data"


def _gauss_solve(columns: list[list[Fraction]], target: list[Fraction]) -> list[Fraction] | None:
    """Solve sum_j c_j columns[j] = target for independent columns, or None.

    Plain forward elimination + back substitution, written independently of
    the library routines on purpose: it is the oracle's solver.
    """
    m = len(target)
    k = len(columns)
    aug = [[columns[j][i] for j in range(k)] + [target[i]] for i in range(m)]
    pivot_rows: list[int] = []
    row = 0
    for col in range(k):
        pr = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if pr is None:
            return None  # dependent columns; caller filters these out
        aug[row], aug[pr] = aug[pr], aug[row]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                f = aug[i][col] / aug[row][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        pivot_rows.append(row)
        row += 1
    for i in range(row, m):
        if aug[i][-1] != 0:
            return None
    return [aug[i][-1] / aug[i][i] for i in range(k)]


def brute_force_feasible(a_eq, b_eq) -> bool:
    """Oracle for existence of u >= 0 with A u = b.

    If the system is feasible it has a basic feasible solution whose support
    is a linearly independent set of columns, so enumerating all column
    subsets of size <= m and solving exactly is complete.
    """
    m = len(a_eq)
    n = len(a_eq[0]) if m else 0
    if all(Fraction(x) == 0 for x in b_eq):
        return True
    cols = [[Fraction(a_eq[i][j]) for i in range(m)] for j in range(n)]
    target = [Fraction(x) for x in b_eq]
    for size in range(1, min(m, n) + 1):
        for subset in combinations(range(n), size):
            sol = _gauss_solve([cols[j] for j in subset], target)
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


# ---------------------------------------------------------------------------
# frozen hand-computed cases
# ---------------------------------------------------------------------------


def test_rref_invertible_matrix_reduces_to_identity():
    reduced, pivots = rref([[2, 4, -2], [4, 9, -3], [-2, -3, 7]])
    assert pivots == [0, 1, 2]
    assert reduced == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_rref_rank_deficient_matrix():
    reduced, pivots = rref([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert pivots == [0, 1]
    assert reduced == [
        [1, 0, -1],
        [0, 1, 2],
        [0, 0, 0],
    ]
    assert rank([[1, 2, 3], [2, 4, 6], [1, 1, 1]]) == 2


def test_nullspace_canonical_basis():
    basis = nullspace_basis([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert basis == [[Fraction(1), Fraction(-2), Fraction(1)]]


def test_nullspace_of_full_rank_matrix_is_empty():
    assert nullspace_basis([[1, 0], [0, 1]]) == []
    assert rank([]) == 0
    assert nullspace_basis([]) == []


def test_solve_unique_hand_case():
    assert solve_unique([[1, 0], [1, 1]], [3, 2]) == [Fraction(1), Fraction(2)]
    assert solve_unique([[1, 0]], [0, 1]) is None


def test_row_reducer_tracks_span():
    acc = RowReducer(2)
    assert acc.add([1, 2])
    assert not acc.add([2, 4])
    assert acc.rank == 1
    assert acc.contains([3, 6])
    assert not acc.contains([0, 1])
    assert acc.add([0, 1])
    assert acc.rank == 2


def test_scale_to_integers():
    assert scale_to_integers([Fraction(1, 2), Fraction(1, 3), Fraction(0)]) == [3, 2, 0]
    assert scale_to_integers([Fraction(-2), Fraction(4)]) == [-1, 2]
    assert scale_to_integers([Fraction(0), Fraction(0)]) == [0, 0]


def test_lp_feasible_hand_cases():
    assert fraction_lp([[1, 1]], [1]) == [1, 0]
    assert fraction_lp([[1, 1]], [-1]) is None
    assert fraction_lp([[0, 0]], [1]) is None
    assert fraction_lp([[1], [1]], [1, 2]) is None
    assert fraction_lp([[1, -1]], [0]) is not None
    assert fraction_lp([[1, 0], [0, 1]], [2, 3]) == [Fraction(2), Fraction(3)]
    assert fraction_lp([[0, 0]], [0]) == [Fraction(0), Fraction(0)]
    assert fraction_lp([], []) == []


def test_lp_feasible_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        lp_feasible([[1, 2]], [1, 5])
    with pytest.raises(ValueError):
        lp_feasible([[1, 2], [1]], [1, 1])
    with pytest.raises(ValueError):
        lp_feasible([[1, 2], [3, 4]], [1])
    with pytest.raises(ValueError):
        lp_feasible([], [0])


def test_rref_rejects_a_ragged_matrix():
    with pytest.raises(ValueError):
        rref([[1, 2], [3]])


@pytest.mark.parametrize("kernel", [rref, rank, nullspace_basis, _integer_nullspace])
def test_eliminating_kernels_reject_a_ragged_matrix(kernel):
    for ragged in ([[1, 2], [3]], [[Fraction(1, 2)], [1, 0]], [[0.5, 1], [2]]):
        with pytest.raises(ValueError):
            kernel(ragged)


def test_lp_feasible_requires_pivoting():
    # x - y = -2 with x, y >= 0 needs y in the basis, not just artificials.
    point = fraction_lp([[1, -1]], [-2])
    assert point is not None
    assert point[0] - point[1] == -2
    assert all(x >= 0 for x in point)


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

small_entries = st.integers(min_value=-4, max_value=4)


def matrices(max_rows: int = 4, max_cols: int = 5, entries=small_entries):
    return st.integers(min_value=1, max_value=max_cols).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n),
            min_size=1,
            max_size=max_rows,
        )
    )


@given(matrices())
def test_nullspace_vectors_are_in_kernel_and_count_matches_rank(mat):
    n = len(mat[0])
    basis = nullspace_basis(mat)
    assert rank(mat) + len(basis) == n
    for vec in basis:
        for row in mat:
            assert sum(a * x for a, x in zip(row, vec)) == 0


@given(matrices())
def test_rref_is_idempotent(mat):
    reduced, pivots = rref(mat)
    again, pivots2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots


@given(matrices())
def test_row_reducer_matches_rank(mat):
    acc = RowReducer(len(mat[0]))
    for row in mat:
        acc.add(row)
    assert acc.rank == rank(mat)


@settings(max_examples=150)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=m,
                    max_size=m,
                ),
                st.lists(st.integers(-4, 4), min_size=m, max_size=m),
            )
        )
    )
)
def test_lp_feasible_agrees_with_brute_force(case):
    a_eq, b_eq = case
    point = fraction_lp(a_eq, b_eq)
    assert (point is not None) == brute_force_feasible(a_eq, b_eq)
    if point is not None:
        assert all(x >= 0 for x in point)
        for row, rhs in zip(a_eq, b_eq):
            assert sum(a * x for a, x in zip(row, point)) == rhs


@given(
    matrices(max_rows=4, max_cols=3),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_solve_unique_roundtrip(mat, coeffs):
    # Interpret mat's rows as column vectors of length n.
    columns = mat
    dim = len(columns[0])
    coeffs = coeffs[: len(columns)] + [0] * max(0, len(columns) - len(coeffs))
    target = [
        sum(Fraction(c) * Fraction(col[i]) for c, col in zip(coeffs, columns))
        for i in range(dim)
    ]
    got = solve_unique(columns, target)
    assert got is not None
    rebuilt = [
        sum(c * Fraction(col[i]) for c, col in zip(got, columns)) for i in range(dim)
    ]
    assert rebuilt == target


# ---------------------------------------------------------------------------
# differential suites: identical output to the Fraction kernels in oracles.py
# ---------------------------------------------------------------------------

rational_entries = st.one_of(
    small_entries, st.fractions(min_value=-4, max_value=4, max_denominator=6)
)
float_entries = st.one_of(
    small_entries, st.floats(min_value=-4, max_value=4, allow_subnormal=False, width=32)
)


@st.composite
def lp_systems(draw, entries):
    """``(A, b)``, often with a row repeated at twice its scale.

    The repeated row makes the ratio test tie, and a zero right-hand side
    makes a pivot degenerate, so Bland's tie-break on the basis index is
    exercised as well as the plain minimum ratio.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    a_eq = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=4))
    b_eq = draw(st.lists(st.one_of(st.just(0), entries), min_size=len(a_eq), max_size=len(a_eq)))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=len(a_eq) - 1))
        a_eq.append([2 * x for x in a_eq[k]])
        b_eq.append(2 * b_eq[k])
    return a_eq, b_eq


def _assert_identical(got, want):
    # repr tells Fraction(2, 1) from 2, so equal reprs mean equal values and types
    assert repr(got) == repr(want)


@settings(max_examples=300)
@given(lp_systems(small_entries))
def test_lp_feasible_matches_fraction_oracle_on_integers(case):
    _assert_identical(fraction_lp(*case), oracles.lp_feasible(*case))


@settings(max_examples=300)
@given(lp_systems(rational_entries))
def test_lp_feasible_matches_fraction_oracle_on_rationals(case):
    _assert_identical(fraction_lp(*case), oracles.lp_feasible(*case))


@settings(max_examples=200)
@given(lp_systems(float_entries))
def test_lp_feasible_matches_fraction_oracle_on_floats(case):
    _assert_identical(fraction_lp(*case), oracles.lp_feasible(*case))


@st.composite
def edge_matrices(draw, entries):
    """Up to 5 rows of 1-6 columns, the empty matrix included, with a row
    often repeated or scaled, a zero row put in, or every entry zero."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=5))
    if rows and draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        scale = draw(st.sampled_from((1, -1, 2)))
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), [scale * x for x in rows[k]])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), [0] * n)
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        rows = [[0] * n for _ in rows]
    return rows


def _assert_elimination_is_the_fraction_oracles(mat):
    # every eliminating kernel: rref, rank, and both nullspaces, the integer
    # one as the Fraction basis scaled to coprime integers
    want = oracles.rref(mat)
    _assert_identical(rref(mat), want)
    assert rank(mat) == len(want[1])
    basis = oracles.nullspace_basis(mat)
    _assert_identical(nullspace_basis(mat), basis)
    _assert_identical(_integer_nullspace(_integer_rows(mat)), [scale_to_integers(v) for v in basis])


@settings(max_examples=300)
@given(edge_matrices(small_entries))
@example([])
@example([[0]])
@example([[0, 0], [0, 0]])
@example([[5]])
@example([[0], [2], [-4]])
@example([[2, 4, 6], [1, 2, 3]])
@example([[0, 0, 3], [0, 0, 0], [0, 2, 1]])
@example([[-2, 4], [-2, 4], [0, 0]])
def test_rref_matches_fraction_oracle_on_integers(mat):
    _assert_elimination_is_the_fraction_oracles(mat)


@settings(max_examples=300)
@given(edge_matrices(rational_entries))
def test_rref_matches_fraction_oracle_on_rationals(mat):
    _assert_elimination_is_the_fraction_oracles(mat)


@settings(max_examples=200)
@given(edge_matrices(float_entries))
def test_rref_matches_fraction_oracle_on_floats(mat):
    _assert_elimination_is_the_fraction_oracles(mat)


@settings(max_examples=300)
@given(matrices(max_rows=5, max_cols=6, entries=rational_entries))
def test_primitive_rows_match_the_scaled_fraction_rref(mat):
    # the witness search's row basis: the elimination's rows are the RREF's,
    # scaled to coprime integers, and the rows after them are zero
    reduced, pivots = _eliminate(_integer_rows(mat))
    want, want_pivots = oracles.rref(mat)
    assert pivots == want_pivots
    assert reduced[: len(pivots)] == [scale_to_integers(want[k]) for k in range(len(pivots))]
    assert not any(any(row) for row in reduced[len(pivots):])


def test_primitive_divides_by_the_gcd():
    assert _primitive([4, -6, 0]) == [2, -3, 0]
    assert _primitive([-1, 2]) == [-1, 2]
    assert _primitive([0, 0]) == [0, 0]
    assert _primitive([]) == []


def test_kernels_take_float_entries_at_their_exact_value():
    for mat in ([[0.5, 1]], [[0.1, 3], [Fraction(1, 3), 2.5]], [[1.0, 2], [2, 4.0]]):
        want = oracles.rref(mat)
        _assert_identical(rref(mat), want)
        assert rank(mat) == len(want[1])
    for a_eq, b_eq in (([[1.0]], [2]), ([[0.5, -1]], [0.25]), ([[1, 1]], [-0.5])):
        _assert_identical(fraction_lp(a_eq, b_eq), oracles.lp_feasible(a_eq, b_eq))
    assert fraction_lp([[1.0]], [2]) == [2]


def test_lp_feasible_breaks_a_ratio_tie_like_the_oracle():
    # Degenerate: two rows tie at ratio 0 in the ratio test. Leaving on the
    # higher basis index instead of the lower one ends at another vertex,
    # (0, 1/2, 1/2, 1/2), so this case pins Bland's tie-break.
    a_eq = [[0, 0, 1, -1], [0, 1, 0, 1], [-1, -1, 1, 0]]
    b_eq = [0, 1, 0]
    _assert_identical(fraction_lp(a_eq, b_eq), oracles.lp_feasible(a_eq, b_eq))
    assert fraction_lp(a_eq, b_eq) == [1, 0, 1, 1]


# --- the integer kernels' own contracts ---------------------------------------


@settings(max_examples=300)
@given(st.one_of(lp_systems(st.integers(-3, 3)), lp_systems(rational_entries)))
@example(([[2, 1], [1, 1]], [3, 2]))  # a pivot of 2
@example(([[1, 1], [2, 2]], [1, 2]))  # both rows tie in the ratio test
@example(([[0, 0, 1, -1], [0, 1, 0, 1], [-1, -1, 1, 0]], [0, 1, 0]))  # a tie at ratio 0
@example(([[2, 1], [4, 2]], [1, 3]))  # infeasible after a pivot of 2
@example(  # infeasible, on four rows of six columns
    (
        [[3, 4, 5, 4, 1, 1], [-1, -1, 3, -1, 4, 1], [-3, -5, -5, -3, 1, 5], [-5, -2, -3, 3, -2, 5]],
        [0, -5, 0, 0],
    )
)
def test_integer_lp_point_is_the_fraction_oracles(case):
    # entries in -3..3 and rationals give pivots other than 1, so both
    # _reduce branches run, and a row repeated at twice its scale makes the
    # ratio test tie
    solution = lp_feasible(*oracles.integer_system(*case))
    want = oracles.lp_feasible(*case)
    if want is None:
        assert solution is None
        return
    u, denom = solution
    assert denom > 0 and all(type(x) is int for x in u)
    assert [Fraction(x, denom) for x in u] == want


def _pivots_taken(monkeypatch):
    """Record the pivot of every ``_reduce`` call."""
    taken = []
    reduce = linalg._reduce

    def recording(rows, r, col):
        taken.append(rows[r][col])
        reduce(rows, r, col)

    monkeypatch.setattr(linalg, "_reduce", recording)
    return taken


def test_lp_with_unit_pivots_only(monkeypatch):
    taken = _pivots_taken(monkeypatch)
    # the second row is negated to make b >= 0; both pivots are 1, so no row
    # is divided and both pivot rows keep their true scale
    assert lp_feasible([[1, 1, 0], [0, -1, 1]], [2, -1]) == ([1, 1, 0], 1)
    assert taken == [1, 1]
    assert oracles.lp_feasible([[1, 1, 0], [0, -1, 1]], [2, -1]) == [1, 1, 0]


def test_lp_with_a_pivot_of_two(monkeypatch):
    taken = _pivots_taken(monkeypatch)
    # the pivot of 2 leaves its row at twice its true row, and the unit pivot
    # after it keeps that scale, so the point comes over 2
    assert lp_feasible([[2, 1], [1, 1]], [3, 2]) == ([2, 2], 2)
    assert taken == [2, 1]
    assert oracles.lp_feasible([[2, 1], [1, 1]], [3, 2]) == [1, 1]
    taken.clear()
    assert lp_feasible([[2, 1]], [3]) == ([3, 0], 2)
    assert taken == [2]
    assert oracles.lp_feasible([[2, 1]], [3]) == [Fraction(3, 2), 0]


def test_pivot_branches_are_positive_multiples_of_the_fraction_step():
    # pivot 1: row - f*pivot_row; otherwise p*row - f*pivot_row over its gcd,
    # and a row with a zero in the pivot column is left alone. Every row is a
    # positive multiple of the Fraction Gauss-Jordan step's, pivot_row / p
    # for the pivot row and row - (f/p)*pivot_row for the others, so both
    # scale to the same coprime integers.
    for rows, r, col, want in (
        ([[1, 2, 3], [4, 5, 6], [0, 7, 8]], 0, 0, [[1, 2, 3], [0, -3, -6], [0, 7, 8]]),
        ([[2, 1, 3], [1, 1, 2], [0, 4, 6]], 0, 0, [[2, 1, 3], [0, 1, 1], [0, 4, 6]]),
        ([[4, 2, 6], [2, 3, 4], [0, 2, 4]], 1, 1, [[4, 0, 5], [2, 3, 4], [-1, 0, 1]]),
    ):
        pivot_row = [Fraction(x, rows[r][col]) for x in rows[r]]
        step = [
            pivot_row if i == r else [a - row[col] * b for a, b in zip(row, pivot_row)]
            for i, row in enumerate(rows)
        ]
        linalg._reduce(rows, r, col)
        assert rows == want
        assert [scale_to_integers(row) for row in rows] == [scale_to_integers(row) for row in step]


def _steps_taken(monkeypatch):
    """Record the tableau and pivot column of every ``_reduce`` call; the
    tableau list is updated in place, so the last one ends as the final one."""
    steps = []
    reduce = linalg._reduce

    def recording(rows, r, col):
        steps.append((rows, col))
        reduce(rows, r, col)

    monkeypatch.setattr(linalg, "_reduce", recording)
    return steps


def test_infeasible_lp_ends_on_an_unpadded_tableau(monkeypatch):
    # one pivot of 2 leaves two artificials basic, 0 and 2, with b != 0; the
    # final tableau is [A | I | b], with no padding column
    steps = _steps_taken(monkeypatch)
    assert lp_feasible([[-1], [2], [0]], [3, 2, 3]) is None
    assert [col for _, col in steps] == [0]
    tableau = steps[-1][0]
    assert tableau[:3] == [[0, 2, 1, 0, 8], [2, 0, 1, 0, 2], [0, 0, 0, 1, 3]]
    assert all(len(row) == 1 + 3 + 1 for row in tableau)


def test_infeasible_lp_lets_an_artificial_enter_again(monkeypatch):
    a_eq = [[1, 0, -2, -2, -1], [0, -2, 1, 2, 3], [3, -3, 0, 2, 0], [2, 2, -1, 0, 1]]
    b_eq = [-2, 4, -4, 4]
    steps = _steps_taken(monkeypatch)
    assert lp_feasible(a_eq, b_eq) is None
    # artificial 2 (column 5 + 2) leaves the basis and comes back
    assert [col for _, col in steps] == [1, 0, 2, 3, 4, 7]


def test_eliminate_pivots_on_two_like_the_fraction_rref():
    # toy-a's reaction vectors with 2 A -> B first: the first pivot is -2,
    # made 2 by the sign flip, and the second is 1, whose step leaves the
    # first row even, so the closing _primitive halves it
    net = parse_network((DATA / "toy-a.crn").read_text(encoding="utf-8"))
    vectors = reaction_vectors(net)
    rows = [list(row) for row in zip(vectors[3], *vectors[:3], vectors[4])]
    reduced, pivots = _eliminate(rows)
    want, want_pivots = oracles.rref(rows)
    assert pivots == want_pivots == [0, 1]
    assert reduced == [scale_to_integers(row) for row in want]
    assert reduced == [[1, 0, 0, 1, -1], [0, 1, -1, 1, -1]]
