"""Reference kernels for the differential tests.

``rref`` and ``lp_feasible`` are the original ``fractions.Fraction``
versions: every entry is a Fraction and every pivot divides. The library's
kernels pivot on integers with a shared denominator instead; they must
return exactly what these return, down to the chosen basic point, since the
concordance search and the golden files depend on which witness comes back
(``test_linalg.py``).

``mass_action_rhs`` and ``equilibrium_residual`` are the original binary64
versions, which coerce every rate constant to ``float``. The library's one
evaluator keeps the number type of its input; on floats it must return
exactly what these return, since the ``equilibria`` golden files print
their results (``test_kinetics.py``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from crnkit.core import Network

Scalar = int | Fraction
Matrix = list[list[Fraction]]


def to_matrix(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    """Copy ``rows`` into a rectangular Fraction matrix."""
    out = [[Fraction(x) for x in row] for row in rows]
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.

    Returns:
        ``(R, pivots)`` where ``R`` is the RREF and ``pivots`` lists the pivot
        column of each nonzero row, in order.
    """
    mat = to_matrix(rows)
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pivot_row = next((i for i in range(row, nrows) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for i in range(nrows):
            if i != row and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
    return mat, pivots


def lp_feasible(
    a_eq: Sequence[Sequence[Scalar]], b_eq: Sequence[Scalar]
) -> list[Fraction] | None:
    """Find ``u >= 0`` with ``A u = b``, or None if the system is infeasible.

    Phase-1 simplex on exact rationals with Bland's rule, so termination is
    guaranteed and verdicts are exact. Returns one feasible point (a basic
    one), not anything optimal — callers only need feasibility witnesses.
    """
    nrows = len(a_eq)
    ncols = len(a_eq[0]) if nrows else 0
    if nrows == 0:
        return [Fraction(0)] * ncols

    # Tableau [A | I | b] with b >= 0; artificial variables start basic.
    tableau: Matrix = []
    for i in range(nrows):
        row = [Fraction(x) for x in a_eq[i]] + [Fraction(0)] * nrows + [Fraction(b_eq[i])]
        if row[-1] < 0:
            row = [-x for x in row]
        row[ncols + i] = Fraction(1)
        tableau.append(row)
    basis = list(range(ncols, ncols + nrows))
    width = ncols + nrows

    # Reduced costs for minimizing the sum of artificials (all basic costs 1).
    obj = [Fraction(0)] * (width + 1)
    for j in range(width + 1):
        col_sum = sum(tableau[i][j] for i in range(nrows))
        cost = Fraction(1) if ncols <= j < width else Fraction(0)
        obj[j] = cost - col_sum

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best: Fraction | None = None
        for i in range(nrows):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:  # pragma: no cover - phase-1 objective is bounded
            raise RuntimeError("unbounded phase-1 LP")
        pivot_val = tableau[leaving][entering]
        tableau[leaving] = [x / pivot_val for x in tableau[leaving]]
        for i in range(nrows):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [a - factor * b for a, b in zip(tableau[i], tableau[leaving])]
        if obj[entering] != 0:
            factor = obj[entering]
            obj = [a - factor * b for a, b in zip(obj, tableau[leaving])]
        basis[leaving] = entering

    infeasibility = sum(tableau[i][-1] for i in range(nrows) if basis[i] >= ncols)
    if infeasibility != 0:
        return None
    solution = [Fraction(0)] * ncols
    for i, var in enumerate(basis):
        if var < ncols:
            solution[var] = tableau[i][-1]
    return solution


def _reaction_rates(
    net: Network, k: Mapping[str, float], x: Mapping[str, float]
) -> list[float]:
    labels = [rxn.label for rxn in net.reactions]
    if any(label is None for label in labels):
        raise ValueError("every reaction needs a label to pair with a rate constant")
    missing = [label for label in labels if label not in k]
    if missing:
        raise ValueError(f"missing rate constant for {missing[0]}")
    extra = sorted(set(k) - set(labels))
    if extra:
        raise ValueError(f"unknown rate constant {extra[0]}")
    for name in net.species:
        if name not in x:
            raise ValueError(f"missing concentration for {name}")
        if not x[name] > 0:
            raise ValueError(f"concentration of {name} must be positive")
    rates = []
    for rxn in net.reactions:
        value = float(k[rxn.label])
        if not value > 0:
            raise ValueError(f"rate constant for {rxn.label} must be positive")
        for name, coeff in rxn.reactant:
            value *= x[name] ** coeff
        rates.append(value)
    return rates


def mass_action_rhs(
    net: Network, k: Mapping[str, float], x: Mapping[str, float]
) -> dict[str, float]:
    """The species-formation rate f(x) = N·K(x) under mass-action kinetics."""
    rates = _reaction_rates(net, k, x)
    f = dict.fromkeys(net.species, 0.0)
    for rxn, rate in zip(net.reactions, rates):
        for name, coeff in rxn.reactant:
            f[name] -= rate * coeff
        for name, coeff in rxn.product:
            f[name] += rate * coeff
    return f


def equilibrium_residual(
    net: Network, k: Mapping[str, float], x: Mapping[str, float]
) -> float:
    """max_i |f_i| / max(1, gross production of species i); 0 at equilibria."""
    rates = _reaction_rates(net, k, x)
    f = dict.fromkeys(net.species, 0.0)
    gross = dict.fromkeys(net.species, 0.0)
    for rxn, rate in zip(net.reactions, rates):
        for name, coeff in rxn.reactant:
            f[name] -= rate * coeff
        for name, coeff in rxn.product:
            f[name] += rate * coeff
            gross[name] += rate * coeff
    return max(abs(f[name]) / max(1.0, gross[name]) for name in net.species)
