"""Exact linear algebra over the rationals.

Everything downstream that makes a structural claim (ranks, deficiencies,
decompositions, concordance verdicts) goes through this module, so every
result here is exact — no floating point, no tolerances. Both kernels take
integer matrices, return integers and run one row step, ``_reduce``, which
keeps each row a positive multiple of its true row: a step divides a row by
its gcd after a pivot other than 1 and leaves a row with a zero in the
pivot column as it is. ``_eliminate``, behind ``rref``, ``rank`` and the
nullspaces, is Gauss-Jordan elimination that returns its rows primitive
(coprime integers). ``lp_feasible`` is a phase-1 simplex on such a tableau
and returns its point as integers over one denominator. ``rref``, ``rank``
and ``nullspace_basis`` also take Fractions and floats (a float at its exact
binary value); the first and last return ``fractions.Fraction``s. Matrices
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
    if all(type(x) is int for row in rows for x in row):
        return list(rows)
    rows = [[x if type(x) is int else Fraction(x) for x in row] for row in rows]
    # a list: CPython's tuple free lists hoard the resized tuple of a generator
    denom = lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (denom // x.denominator) for x in row] for row in rows]


def _primitive(vector: Sequence[int]) -> list[int]:
    """``vector`` divided by the gcd of its entries, so they are coprime."""
    common = gcd(*vector)
    return [v // common for v in vector] if common > 1 else list(vector)


def _reduce(rows: list[Sequence[int]], r: int, col: int) -> None:
    """One Gauss-Jordan step on the pivot ``rows[r][col] > 0``, in both kernels.

    Every other row with a nonzero entry ``f`` in column ``col`` becomes
    ``row - f*pivot_row`` when the pivot is 1, and ``p*row - f*pivot_row``
    divided by its gcd otherwise; the rest are left as they are. A row that
    was a positive multiple of its true row stays one, and a positive
    multiple keeps the signs, the zeros and the ratios within a row.
    """
    pivot_row = rows[r]
    p = pivot_row[col]
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            if p == 1:
                rows[i] = [a - f * b for a, b in zip(row, pivot_row)]
            else:
                rows[i] = _primitive([p * a - f * b for a, b in zip(row, pivot_row)])


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[list[Sequence[int]], list[int]]:
    """Gauss-Jordan elimination of the integer ``rows`` by ``_reduce`` steps.

    Returns ``(R, pivots)``: ``pivots`` lists the pivot column of each
    nonzero row, in order, and row ``k < len(pivots)`` of ``R`` is row ``k``
    of the reduced row echelon form scaled to coprime integers, positive at
    its pivot; the rows after those are zero. A pivot row is negated when
    its pivot is negative, so every row stays a positive multiple of its row
    of the reduced form, and the pivot rows are made primitive at the end.
    """
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    mat = list(rows)
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for found in range(r, nrows):
            if mat[found][col]:
                break
        else:
            continue
        pivot_row = mat[found]
        if pivot_row[col] < 0:
            pivot_row = [-a for a in pivot_row]
        mat[found] = mat[r]
        mat[r] = pivot_row
        _reduce(mat, r, col)
        pivots.append(col)
    mat[: len(pivots)] = [_primitive(row) for row in mat[: len(pivots)]]
    return mat, pivots


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.

    Returns:
        ``(R, pivots)`` where ``R`` is the RREF and ``pivots`` lists the pivot
        column of each nonzero row, in order.
    """
    mat, pivots = _eliminate(_integer_rows(rows))
    scales = [row[col] for row, col in zip(mat, pivots)] + [1] * (len(mat) - len(pivots))
    zero = Fraction(0)  # an RREF is mostly zeros; share one instead of building each
    reduced = [[Fraction(x, p) if x else zero for x in values] for values, p in zip(mat, scales)]
    return reduced, pivots


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank of a matrix (0 for an empty one)."""
    return len(_eliminate(_integer_rows(rows))[1])


def _nullspace(rows: Sequence[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """``(f, v)`` for each vector of ``nullspace_basis(rows)``, ``rows`` integer:
    ``f`` is its free column and ``v`` the vector scaled to coprime integers,
    ``v[f] > 0``.

    Free column ``f`` gives ``e_f - sum_k (R[k][f] / R[k][pivots[k]]) e_(pivots[k])``
    for the primitive rows ``R``, here times the lcm of the pivots it divides by.
    """
    if not rows:
        return []
    mat, pivots = _eliminate(rows)
    ncols = len(rows[0])
    pivot_rows = list(zip(mat, pivots))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        # a list: CPython's tuple free lists hoard the resized tuple of a generator
        scale = lcm(*[row[col] for row, col in pivot_rows if row[f]])
        vec = [0] * ncols
        vec[f] = scale
        for row, col in pivot_rows:
            if row[f]:
                vec[col] = -row[f] * (scale // row[col])
        basis.append((f, _primitive(vec)))
    return basis


def nullspace_basis(rows: Sequence[Sequence[Scalar]]) -> list[list[Fraction]]:
    """Canonical basis of the right nullspace ``{v : A v = 0}``.

    One basis vector per free column, in increasing column order; each has a 1
    in its free coordinate and zeros in every other free coordinate, which
    makes the basis unique for a given column order.
    """
    return [[Fraction(x, vec[f]) for x in vec] for f, vec in _nullspace(_integer_rows(rows))]


def _integer_nullspace(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """``nullspace_basis(rows)`` of integer ``rows``, each vector scaled to coprime integers."""
    return [vec for _, vec in _nullspace(rows)]


def lp_feasible(a_eq: Sequence[Sequence[int]], b_eq: Sequence[int]) -> tuple[list[int], int] | None:
    """Find ``u >= 0`` with ``A u = b``, or None if the system is infeasible.

    Phase-1 simplex with Bland's rule, so termination is guaranteed and
    verdicts are exact. Returns one feasible point (a basic one), not
    anything optimal — callers only need feasibility witnesses — as
    ``(u, denom)``: the point is ``u / denom``, integer numerators over the
    lcm of the basic pivot entries. ``A`` and ``b`` must be integers, and
    nothing here checks or scales them: a caller with rational entries
    scales ``[A | b]`` by one common denominator first (as the tests'
    ``oracles.fraction_lp`` does), since scaling rows apart would reweight
    the artificials in the phase-1 objective.

    Raises:
        ValueError: if ``A`` is ragged or ``b`` does not have one entry per
            row of ``A``.
    """
    nrows = len(a_eq)
    if len(b_eq) != nrows:
        raise ValueError(f"b_eq has {len(b_eq)} entries for {nrows} rows of a_eq")
    if nrows == 0:
        return [], 1
    ncols = len(a_eq[0])
    width = ncols + nrows

    # Tableau [A | I | b] with b >= 0; artificial variables start basic.
    tableau: list[Sequence[int]] = []
    for i, (row, rhs) in enumerate(zip(a_eq, b_eq)):
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        line = ([-x for x in row] if rhs < 0 else list(row)) + [0] * nrows + [abs(rhs)]
        line[ncols + i] = 1
        tableau.append(line)
    # Reduced costs for minimizing the sum of artificials (all basic costs 1),
    # kept as the last row so that every pivot updates them too; it is some
    # positive multiple of them, and Bland's rule reads only their signs.
    obj = [-sum(column) for column in zip(*tableau)]
    obj[ncols:width] = [0] * nrows
    tableau.append(obj)
    basis = list(range(ncols, width))

    while True:
        obj = tableau[nrows]
        for entering in range(width):
            if obj[entering] < 0:
                break
        else:
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
        _reduce(tableau, leaving, entering)
        basis[leaving] = entering

    # Row r is a positive multiple of its row of B⁻¹[A | I | b], so the LP
    # is infeasible exactly when a basic artificial's row has b != 0.
    if any(row[-1] for row, var in zip(tableau, basis) if var >= ncols):
        return None
    basic = [(i, var) for i, var in enumerate(basis) if var < ncols]
    # a list: CPython's tuple free lists hoard the resized tuple of a generator
    denom = lcm(*[tableau[i][var] for i, var in basic])
    u = [0] * ncols
    for i, var in basic:
        u[var] = tableau[i][-1] * (denom // tableau[i][var])
    return u, denom
