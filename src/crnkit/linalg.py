"""Exact linear algebra over the rationals.

Everything downstream that makes a structural claim (ranks, deficiencies,
decompositions, concordance verdicts) goes through this module, so every
result here is exact — no floating point, no tolerances. The two hot kernels,
`rref` and `lp_feasible`, pivot fraction-free on an integer matrix that
carries one shared denominator (Bareiss elimination), and convert to
`fractions.Fraction` only when they return. Entries may be integers,
Fractions or floats; a float is read at its exact binary value. Matrices
are plain lists of lists; sizes in this package are small (tens of
rows/columns), so clarity wins over vectorization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Scalar = int | Fraction
Matrix = list[list[Fraction]]


def _integer_rows(rows: Sequence[Sequence[Scalar]]) -> list[Sequence[int]]:
    """``rows`` as integers, every entry multiplied by one positive common denominator.

    Integer rows are returned as they are, without wrapping each entry in a
    Fraction; the kernels below only ever replace rows, never write into one.
    Any other entry (a float too) is taken at its exact value, ``Fraction(x)``.
    """
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    if all(type(x) is int for row in rows for x in row):
        return list(rows)
    rows = [[x if type(x) is int else Fraction(x) for x in row] for row in rows]
    denom = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (denom // x.denominator) for x in row] for row in rows]


def _pivot(rows: list[Sequence[int]], r: int, col: int, denom: int) -> None:
    """One fraction-free Gauss-Jordan step on ``rows[r][col]`` (Bareiss).

    ``rows`` holds ``denom`` times the current tableau. Afterwards it holds
    ``rows[r][col]`` times the tableau pivoted on that entry: ``rows[r]`` is
    unchanged, and every other row becomes ``(p*row - f*pivot_row) / denom``.
    Each entry is then a minor of the starting integer matrix, so the
    division is exact.
    """
    pivot_row = rows[r]
    p = pivot_row[col]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[col]
        if f:
            rows[i] = [(p * a - f * b) // denom for a, b in zip(row, pivot_row)]
        elif p != denom:
            rows[i] = [p * a // denom for a in row]


def _eliminate(rows: Sequence[Sequence[Scalar]]) -> tuple[list[Sequence[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of ``rows``.

    Returns ``(R, pivots, denom)``: ``R / denom`` is the reduced row echelon
    form, with ``R`` integer and ``denom`` nonzero but of either sign, and
    ``pivots`` lists the pivot column of each nonzero row, in order.
    """
    mat = _integer_rows(rows)
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    denom = 1
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        pivot_row = next((i for i in range(row, nrows) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        _pivot(mat, row, col, denom)
        denom = mat[row][col]
        pivots.append(col)
    return mat, pivots, denom


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.

    Returns:
        ``(R, pivots)`` where ``R`` is the RREF and ``pivots`` lists the pivot
        column of each nonzero row, in order.
    """
    mat, pivots, denom = _eliminate(rows)
    zero = Fraction(0)  # an RREF is mostly zeros; share one instead of building each
    return [[Fraction(x, denom) if x else zero for x in values] for values in mat], pivots


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank of a matrix (0 for an empty one)."""
    return len(_eliminate(rows)[1])


def _scaled_nullspace(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """``(V, denom)`` with ``V / denom`` the rows of ``nullspace_basis(rows)``.

    Read off the integer elimination: free column ``f`` gives the integer
    vector ``denom * e_f - sum_k R[k][f] * e_(pivots[k])``.
    """
    if not rows:
        return [], 1
    mat, pivots, denom = _eliminate(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = denom
        for k, p in enumerate(pivots):
            vec[p] = -mat[k][f]
        basis.append(vec)
    return basis, denom


def nullspace_basis(rows: Sequence[Sequence[Scalar]]) -> list[list[Fraction]]:
    """Canonical basis of the right nullspace ``{v : A v = 0}``.

    One basis vector per free column, in increasing column order; each has a 1
    in its free coordinate and zeros in every other free coordinate, which
    makes the basis unique for a given column order.
    """
    basis, denom = _scaled_nullspace(rows)
    return [[Fraction(x, denom) for x in vec] for vec in basis]


def _primitive(vector: Sequence[int], denom: int) -> list[int]:
    """``vector / denom`` scaled by a positive rational to coprime integers,
    without building a Fraction: ``vector`` divided by its gcd, carrying
    ``denom``'s sign."""
    common = gcd(*vector)
    if denom < 0:
        common = -common
    return [v // common for v in vector] if common not in (0, 1) else list(vector)


def _integer_nullspace(rows: Sequence[Sequence[Scalar]]) -> list[list[int]]:
    """``nullspace_basis(rows)`` with each vector scaled to coprime integers."""
    basis, denom = _scaled_nullspace(rows)
    return [_primitive(vec, denom) for vec in basis]


def lp_feasible(
    a_eq: Sequence[Sequence[Scalar]],
    b_eq: Sequence[Scalar],
    *,
    farkas: list[int] | None = None,
) -> list[Fraction] | None:
    """Find ``u >= 0`` with ``A u = b``, or None if the system is infeasible.

    Phase-1 simplex with Bland's rule, so termination is guaranteed and
    verdicts are exact. Returns one feasible point (a basic one), not
    anything optimal — callers only need feasibility witnesses.

    When the system is infeasible and ``farkas`` is a list, the list is
    filled with an integer Farkas vector ``y``: ``yᵀA <= 0`` and ``yᵀb > 0``
    hold exactly for the caller's ``A`` and ``b``. It is read off the final
    phase-1 duals, with the sign of each row the kernel negated to make
    ``b_i >= 0`` put back. A feasible system leaves ``farkas`` as it was.

    Raises:
        ValueError: if ``A`` is ragged or ``b`` does not have one entry per
            row of ``A``.
    """
    nrows = len(a_eq)
    if len(b_eq) != nrows:
        raise ValueError(f"b_eq has {len(b_eq)} entries for {nrows} rows of a_eq")
    if nrows == 0:
        return []
    # One common denominator for all of [A | b]: scaling rows apart would
    # reweight the artificials in the phase-1 objective and change pivots.
    rows = _integer_rows([[*row, rhs] for row, rhs in zip(a_eq, b_eq)])
    ncols = len(rows[0]) - 1
    width = ncols + nrows

    # Tableau [A | I | b] with b >= 0; artificial variables start basic.
    tableau: list[Sequence[int]] = []
    for i, row in enumerate(rows):
        sign = -1 if row[-1] < 0 else 1
        line = [sign * x for x in row[:-1]] + [0] * nrows + [sign * row[-1]]
        line[ncols + i] = 1
        tableau.append(line)
    # Reduced costs for minimizing the sum of artificials (all basic costs 1),
    # kept as the last row so that every pivot updates them too.
    obj = [-sum(column) for column in zip(*tableau)]
    obj[ncols:width] = [0] * nrows
    tableau.append(obj)
    basis = list(range(ncols, width))
    # ``tableau`` holds denom times the true tableau; denom > 0 because every
    # pivot is, so signs and ratios read the same off either.
    denom = 1

    while True:
        obj = tableau[nrows]
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        # Ratio test, ties to the lowest basic index (Bland). Both a_ie and a_le
        # are positive, so b_i/a_ie < b_l/a_le is compared cross-multiplied.
        leaving = None
        for i in range(nrows):
            coef = tableau[i][entering]
            if coef > 0:
                if leaving is None:
                    leaving = i
                    continue
                lhs = tableau[i][-1] * tableau[leaving][entering]
                rhs = tableau[leaving][-1] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:  # pragma: no cover - phase-1 objective is bounded
            raise RuntimeError("unbounded phase-1 LP")
        _pivot(tableau, leaving, entering, denom)
        denom = tableau[leaving][entering]
        basis[leaving] = entering

    infeasibility = sum(tableau[i][-1] for i in range(nrows) if basis[i] >= ncols)
    if infeasibility != 0:
        if farkas is not None:
            # y_i = s_i * (denom - obj[ncols + i]), s_i = -1 for a negated row.
            # With duals pi of the negated rows, the true reduced cost under
            # artificial i is 1 - pi_i. At the optimum every structural reduced
            # cost -piᵀA_j is >= 0 and piᵀb is the positive infeasibility; denom
            # times pi is integer and keeps those signs.
            farkas[:] = [
                (denom - obj[ncols + i]) * (-1 if rows[i][-1] < 0 else 1) for i in range(nrows)
            ]
        return None
    solution = [Fraction(0)] * ncols
    for i, var in enumerate(basis):
        if var < ncols:
            solution[var] = Fraction(tableau[i][-1], denom)
    return solution
