"""Reference kernels for the differential tests.

``rref`` and ``lp_feasible`` are the original ``fractions.Fraction``
versions: every entry is a Fraction and every pivot divides. The library's
kernels pivot on integers with a shared denominator instead; they must
return exactly what these return, down to the chosen basic point, since the
concordance search and the golden files depend on which witness comes back
(``test_linalg.py``).

``nullspace_basis`` is the original canonical nullspace, read off the
``Fraction`` RREF. The library reads it off the integer elimination, and
the witness search reads its LP rows (row basis and left nullspace) there
as coprime integer vectors; both must give what this gives, after
``scale_to_integers`` for the search (``test_linalg.py``).

``mass_action_rhs`` and ``equilibrium_residual`` are the original binary64
versions, which coerce every rate constant to ``float``. The library's one
evaluator keeps the number type of its input; on floats it must return
exactly what these return, since the ``equilibria`` golden files print
their results (``test_kinetics.py``).

``alpha_conforms`` and ``sigma_conforms`` are the original sign tests of the
witness search, one ``Fraction`` comparison per coordinate. The search now
keeps each point's positive, negative and zero coordinates as bitmasks and
tests subsets of them; the answers must agree (``test_concord.py``).

``fid`` is the original finest independent decomposition, which picks the
basis with a ``RowReducer`` and solves for each dependent reaction apart
with ``solve_unique``; the library's ``fid`` reads everything off one
elimination, and the blocks must agree (``test_decomp.py``).

``m3cr`` is the original container construction, which runs a fresh search
for every reaction set it meets. The library's ``m3cr`` searches each
reaction set once per call; its report must be equal, ``search_nodes``
included (``test_concord.py``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from crnkit.concord import (
    DEFAULT_NODE_BUDGET,
    M3crReport,
    _reaction_indices,
    check_concordance,
)
from crnkit.core import Network, Reaction, reaction_vectors, subnetwork
from crnkit.decomp import Decomposition, _DisjointSet
from crnkit.linalg import RowReducer, solve_unique

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


def nullspace_basis(rows: Sequence[Sequence[Scalar]]) -> list[list[Fraction]]:
    """Canonical basis of the right nullspace ``{v : A v = 0}``."""
    if not rows:
        return []
    reduced, pivots = rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for k, p in enumerate(pivots):
            vec[p] = -reduced[k][f]
        basis.append(vec)
    return basis


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


def alpha_conforms(point: Sequence[Fraction], signature: tuple[int, int, int]) -> bool:
    """Whether ``point`` is > 0, < 0 and = 0 on the three reaction masks."""
    plus, minus, zero = signature
    for r in range(len(point)):
        bit = 1 << r
        value = point[r]
        if plus & bit:
            if value <= 0:
                return False
        elif minus & bit:
            if value >= 0:
                return False
        elif zero & bit and value != 0:
            return False
    return True


def sigma_conforms(
    point: Sequence[Fraction], order: Sequence[int], sign: Sequence[int | None]
) -> bool:
    """Whether ``point`` has the sign ``sign[i]`` at every assigned ``i`` of ``order``."""
    for i in order:
        wanted = sign[i]
        if wanted is None:
            continue
        value = point[i]
        if wanted == 0:
            if value != 0:
                return False
        elif wanted == 1:
            if value <= 0:
                return False
        elif value >= 0:
            return False
    return True


def fid(net: Network) -> Decomposition:
    """The finest independent decomposition of the network."""
    vectors = reaction_vectors(net)
    dim = len(net.species)
    groups = _DisjointSet(len(vectors))
    acc = RowReducer(dim)
    basis: list[int] = []
    for j, vec in enumerate(vectors):
        if acc.add(vec):
            basis.append(j)
    basis_columns = [vectors[b] for b in basis]
    basis_set = set(basis)
    for j, vec in enumerate(vectors):
        if j in basis_set:
            continue
        coeffs = solve_unique(basis_columns, vec)
        assert coeffs is not None  # basis spans all reaction vectors
        for b, coeff in zip(basis, coeffs):
            if coeff != 0:
                groups.join(j, b)
    components: dict[int, list[int]] = {}
    for j in range(len(vectors)):
        components.setdefault(groups.find(j), []).append(j)
    return Decomposition.from_blocks(net, components.values())


def m3cr(
    net: Network,
    mandatory: Iterable[Reaction | str],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> M3crReport:
    """Grow a maximal concordant container of the mandatory reactions."""
    base = sorted(set(_reaction_indices(net, mandatory)))
    base_verdict = check_concordance(subnetwork(net, base), node_budget)
    if base_verdict.status == "Discordant":
        raise ValueError("mandatory reaction set generates a discordant subnetwork")
    if base_verdict.status == "Unknown":
        raise ValueError(
            "could not verify mandatory-set concordance within the node budget"
        )
    total_nodes = base_verdict.search_nodes
    in_base = set(base)
    candidates = [i for i in range(len(net.reactions)) if i not in in_base]

    def grow(order: list[int]) -> tuple[list[int], list[int], bool]:
        nonlocal total_nodes
        kept = list(base)
        pending = list(order)
        while True:
            leftovers: list[int] = []
            hit_budget = False
            for cand in pending:
                verdict = check_concordance(
                    subnetwork(net, sorted(kept + [cand])), node_budget
                )
                total_nodes += verdict.search_nodes
                if verdict.status == "Concordant":
                    kept.append(cand)
                else:
                    leftovers.append(cand)
                    hit_budget = hit_budget or verdict.status == "Unknown"
            if len(leftovers) == len(pending):
                return sorted(kept), leftovers, not hit_budget
            pending = leftovers

    kept, excluded, maximal = grow(candidates)
    other_kept, _, _ = grow(list(reversed(candidates)))
    return M3crReport(
        container=subnetwork(net, kept),
        discordance_set=tuple(net.reactions[i] for i in excluded),
        maximality_verified=maximal,
        order_dependent=other_kept != kept,
        search_nodes=total_nodes,
    )
