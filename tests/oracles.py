"""Reference implementations for the differential tests.

Each library kernel has one reference here, and the tests compare the two
on the same inputs. Most are the library's own former code, kept when it
was replaced.

``rref`` and ``nullspace_basis`` are the elimination reference: the
original ``fractions.Fraction`` Gauss-Jordan elimination, where every entry
is a Fraction and every pivot divides, and the canonical nullspace read off
it. The library eliminates on integers with ``linalg._reduce`` steps. Its
``rref``, ``rank``, ``nullspace_basis`` and ``_integer_nullspace`` must give
what these give, repr for repr, the last after ``scale_to_integers``, on
integer, rational and float matrices with repeated, scaled and zero rows
(``test_linalg.py``: ``test_rref_matches_fraction_oracle_on_*``). The rows
of ``linalg._eliminate`` must be the RREF rows scaled to coprime integers
(``test_primitive_rows_match_the_scaled_fraction_rref``,
``test_eliminate_pivots_on_two_like_the_fraction_rref``), and so must the
witness search's LP rows, through ``search_rows`` (below).
``plain_circuits`` uses them too.

``lp_feasible`` is the LP reference: the original phase-1 simplex with
Bland's rule on ``Fraction``s. ``linalg.lp_feasible`` pivots on integers and
must return the same basic point, which the concordance search and the
golden files depend on (``test_linalg.py``:
``test_lp_feasible_matches_fraction_oracle_on_*``,
``test_integer_lp_point_is_the_fraction_oracles``,
``test_lp_feasible_breaks_a_ratio_tie_like_the_oracle``). Feasibility alone
is also checked against the brute-force enumerator of ``test_linalg.py``,
which shares no code with either. The library's kernel takes integer rows
and returns ``(u, denom)``; ``integer_system`` scales ``[A | b]`` by one
common denominator, which changes no pivot, and ``fraction_lp`` hands the
library's kernel any entries that way and returns ``u / denom`` as
``Fraction``s, the library's former output.

``CertificateFreeSearch`` is the sign-search reference: the witness search
before it decided sign patterns by circuits. It answers a pattern from the
point carried down from the parent node, an alpha cache keyed by the forced
reaction signs, or the list of infeasible alpha patterns a pattern refines,
and otherwise solves an LP; ``solves`` counts them. The library's search
must return the same verdict, witness and ``search_nodes`` with no more
LPs, on random networks, fixture subsets and the fixtures, also with every
block of two or more rows over the circuit bound; ``m3cr`` with
``certificate_free_verdict`` as its check must give the library's reports
(``test_concord.py``: ``test_certificates_change_nothing_but_the_solve_count``
and the ``*_is_the_point_carrying_*`` tests). Its parts are references in
their own right:

- ``signed_point`` answers one sign pattern, given as a per-coordinate sign
  list (``1``, ``-1``, ``0`` or ``None``), by one LP over the whole system
  through ``fraction_lp``, and returns a ``Fraction`` point or None;
  ``_signs`` turns the masks ``(plus, minus, zero)`` into that list. The
  library's ``_signed_point`` and ``_Side.point`` must agree with it on
  feasibility and on the point, and the circuits of a side must refute
  exactly the patterns it finds infeasible (``test_concord.py``:
  ``test_signed_point_from_masks_matches_the_sign_list_oracle``,
  ``test_one_row_closed_form_matches_the_lp_on_every_small_row``,
  ``test_block_solve_matches_the_whole_lp``; ``test_acceptance.py``:
  ``test_every_pattern_a_certificate_refutes_is_infeasible``).
- ``masked`` is the search's former point: a ``Fraction`` list with the
  masks of its signs. The library keeps a point as integer block parts and
  builds ``Fraction``s only in ``concord._assemble``; the tests compare the
  two through ``masked``, repr for repr.
- ``off_support_sigma`` is the search's original first step, which looks
  for a sigma that vanishes on every reactant species by one nullspace, even
  when every species is a reactant and only 0 can. The library's returns
  None at once then; both must give the same vector, or None
  (``test_off_support_sigma_*``).
- ``search_rows`` is the search's former set-up: reaction vectors read by
  ``coefficient_reaction_vectors`` (one ``Complex.coefficient`` scan per
  species), the RREF rows of N and the left nullspace of every reaction's
  vector, scaled to coprime integers. ``row_blocks`` is its former block
  split, which scans each row for its nonzero coordinates. The library's
  rows and blocks must be equal (``test_search_set_up_matches_the_old_one``
  and its fixture-subset variant).

``row_certificates`` gives the masks of each row of an LP and of its
negation, the certificates the search once kept. A pattern one of them
refutes must have no point, and a circuit of the side must refute it
(``test_every_pattern_a_row_certificate_refutes_is_infeasible``).

``plain_circuits`` enumerates the circuits of a row space with no shortcut:
every ``(r - 1)``-subset of the columns of the ``Fraction`` RREF basis whose
orthogonal ``y`` is unique up to scale gives ``yᵀ R``. The library's
``_circuits`` enumerates one column per class of parallel columns, by cross
products over a kernel basis, and must find the same masks
(``test_circuits_match_the_plain_enumeration`` and its fixture-block
variant).

``positive_point`` is the library's former cone route: one
``_signed_point`` over the whole system, with no block split. The library's
``is_positive_dependent`` and ``is_conservative`` ask a ``_Side`` instead;
both must return the same ``holds`` and the same vector, repr for repr
(``test_cone_certificates_match_the_whole_lp``).

``alpha_conforms`` and ``sigma_conforms`` are the original sign tests of the
search, one ``Fraction`` comparison per coordinate. ``_Side.point`` tests a
point's masks against a pattern instead; the answers must agree on every
pattern that wants a sign, and a pattern that wants none has the origin
(``test_sign_masks_agree_with_per_entry_conformance``).

``signature`` is the search's original reaction classification, which kept
per-reaction counts of the reactant species assigned +, - and not yet
assigned. The search forms the three reaction masks with mask operations;
they must agree at every node of a search
(``test_forced_reaction_masks_match_the_counters_at_every_node``).

``m3cr`` is the original container construction, which runs a fresh search
for every reaction set it meets. The library's ``m3cr`` searches each
reaction set once per call and shares a block store between its searches;
its report must be equal, ``search_nodes`` included, and also with
``certificate_free_verdict`` deciding each set (``test_concord.py``:
``test_m3cr_with_a_shared_store_on_larger_networks``,
``test_m3cr_is_the_point_carrying_construction``).

``oracle_verdict`` is the verdict by exhaustive enumeration: on a tiny
network it tries every one of the 3^m sign patterns of sigma, each with one
exact LP for sigma and one for alpha (``_signed_solution``), with no search,
no pruning and no code shared with the library's search beyond the simplex
kernel. ``check_concordance`` must give its status, and both its witness and
the library's must verify (``test_acceptance.py``:
``test_sign_search_agrees_with_exhaustive_enumeration``). ``lifted_witness``
carries a subnetwork's witness into its parent, which holds when every
removed reaction's reactant support stays zero or mixed in sign; the lifted
witness must verify in the parent
(``test_lifted_certificates_stay_valid_in_the_parent``).

``RowReducer``, ``solve_unique`` and ``scale_to_integers`` are the library's
former span, solve and scaling helpers, moved here when nothing in the
library called them any more. ``fid`` is the original finest independent
decomposition, which picks the basis with a ``RowReducer``, solves for each
dependent reaction apart with ``solve_unique`` and groups the reactions
with a ``_DisjointSet``. The library reads everything off one elimination,
and the blocks must agree (``test_decomp.py``). The helpers' own unit tests
are in ``test_linalg.py``.

``linkage_partitions`` is the original partition of the complexes, built on
the directed complex graph of ``_complex_graph``: linkage classes from an
undirected depth-first search, strong classes from an iterative Kosaraju
pass, terminal classes from the edges that leave each strong class. The
library's takes all three from ``structure._components``; the lists must be
equal (``test_structure.py``).

``mass_action_rhs`` and ``equilibrium_residual`` are the original binary64
evaluators, which coerce every rate constant to ``float``. The library's one
evaluator keeps the number type of its input; on floats it must return
exactly what these return, since the ``equilibria`` golden files print
their results (``test_kinetics.py``).

``same_dynamics`` is the original dynamics comparison, which evaluates both
right-hand sides at 200 seeded random positive rational points and compares
them exactly there. The library's compares the exact coefficient of each
(species, rate monomial) pair instead; on systems with ``Fraction`` rate
constants the two must agree (``test_transform.py``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

from collections import Counter
from itertools import combinations, product

from crnkit import linalg
from crnkit.concord import (
    DEFAULT_NODE_BUDGET,
    ConcordanceVerdict,
    ConeCertificate,
    M3crReport,
    SignWitness,
    _assemble,
    _BudgetExhausted,
    _Certificate,
    _Masks,
    _reaction_indices,
    _sign_masks,
    _signed_point,
    check_concordance,
)
from crnkit.core import Network, Reaction, _complexes, reaction_vectors, subnetwork
from crnkit.decomp import Decomposition
from crnkit.linalg import _integer_rows
from crnkit.structure import _components
from crnkit.transform import KineticSystem

Scalar = int | Fraction
Matrix = list[list[Fraction]]


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.

    Returns:
        ``(R, pivots)`` where ``R`` is the RREF and ``pivots`` lists the pivot
        column of each nonzero row, in order.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged matrix")
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


def same_dynamics(
    first: KineticSystem, second: KineticSystem, points: int = 200, seed: int = 0
) -> bool:
    """Exact equality of the two systems' right-hand sides at random points.

    Points are positive rationals; equality is checked exactly, so a single
    mismatch is decisive and agreement on all points is decisive for
    polynomial right-hand sides of these sizes.
    """
    if points < 1:
        raise ValueError("points must be a positive integer")
    if set(first.species) != set(second.species):
        raise ValueError("systems live on different species sets")
    rng = random.Random(seed)
    for _ in range(points):
        x = {
            name: Fraction(rng.randint(1, 999), rng.randint(1, 999))
            for name in first.species
        }
        left = first.rhs(x)
        right = second.rhs(x)
        if any(left[name] != right[name] for name in first.species):
            return False
    return True


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


def solve_unique(columns: Sequence[Sequence[Scalar]], target: Sequence[Scalar]) -> list[Fraction] | None:
    """Solve ``sum_j c_j * columns[j] = target`` for the coefficients ``c``.

    Intended for ``columns`` that are linearly independent, where a solution
    is unique if it exists. Returns None when ``target`` is outside the span.
    Free coefficients (if the columns were in fact dependent) are set to 0.
    """
    ncols = len(columns)
    dim = len(target)
    augmented = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(dim)]
    reduced, pivots = rref(augmented)
    if ncols in pivots:
        return None
    coeffs = [Fraction(0)] * ncols
    for k, p in enumerate(pivots):
        coeffs[p] = reduced[k][-1]
    return coeffs


class RowReducer:
    """Incremental Gaussian elimination for rank/independence queries.

    Feed vectors one at a time; ``add`` reports whether the vector enlarged
    the span. Used wherever a greedy "is this independent of what we've kept
    so far" scan appears.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._rows: list[list[Fraction]] = []
        self._pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def residual(self, vector: Sequence[Scalar]) -> list[Fraction]:
        """Reduce ``vector`` against the stored rows without adding it."""
        vec = [Fraction(x) for x in vector]
        for row, col in zip(self._rows, self._pivot_cols):
            if vec[col] != 0:
                factor = vec[col]
                vec = [a - factor * b for a, b in zip(vec, row)]
        return vec

    def contains(self, vector: Sequence[Scalar]) -> bool:
        return all(x == 0 for x in self.residual(vector))

    def add(self, vector: Sequence[Scalar]) -> bool:
        """Add ``vector`` to the span; True iff it was independent."""
        vec = self.residual(vector)
        col = next((i for i, x in enumerate(vec) if x != 0), None)
        if col is None:
            return False
        inv = 1 / vec[col]
        vec = [x * inv for x in vec]
        for row in self._rows:
            if row[col] != 0:
                factor = row[col]
                row[:] = [a - factor * b for a, b in zip(row, vec)]
        self._rows.append(vec)
        self._pivot_cols.append(col)
        return True


def scale_to_integers(vector: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector by a positive rational into coprime integers."""
    denom_lcm = 1
    for x in vector:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in vector]
    common = 0
    for v in ints:
        common = gcd(common, v)
    if common > 1:
        ints = [v // common for v in ints]
    return ints


_UNDETERMINED, _ALL_ZERO, _PURE_PLUS, _PURE_MINUS, _MIXED = range(5)


def _classify(pos: int, neg: int, unassigned: int) -> int:
    if pos and neg:
        return _MIXED
    if unassigned:
        return _UNDETERMINED
    if pos:
        return _PURE_PLUS
    if neg:
        return _PURE_MINUS
    return _ALL_ZERO


def signature(
    supports: Sequence[Sequence[int]], sign: Sequence[int | None]
) -> tuple[int, int, int]:
    """Masks of the reactions whose reactant support ``sign`` makes pure +,
    pure - and all zero; ``supports[r]`` lists reaction r's reactant species."""
    plus = minus = zero = 0
    for r, support in enumerate(supports):
        signs = [sign[i] for i in support]
        kind = _classify(signs.count(1), signs.count(-1), signs.count(None))
        if kind == _PURE_PLUS:
            plus |= 1 << r
        elif kind == _PURE_MINUS:
            minus |= 1 << r
        elif kind == _ALL_ZERO:
            zero |= 1 << r
    return plus, minus, zero


class _DisjointSet:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, item: int) -> int:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def join(self, left: int, right: int) -> None:
        self.parent[self.find(left)] = self.find(right)


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


def _complex_graph(net: Network) -> tuple[int, list[set[int]]]:
    """Directed complex graph: node count and adjacency sets."""
    index = {cpx: k for k, cpx in enumerate(_complexes(net))}
    adjacency: list[set[int]] = [set() for _ in index]
    for rxn in net.reactions:
        adjacency[index[rxn.reactant]].add(index[rxn.product])
    return len(index), adjacency


def linkage_partitions(
    net: Network,
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Linkage, strong linkage, and terminal strong linkage classes.

    Classes are lists of complex indices (into ``build_matrices(net).complexes``),
    sorted internally, with classes ordered by smallest member.
    """
    count, adjacency = _complex_graph(net)
    undirected: list[set[int]] = [set() for _ in range(count)]
    for src in range(count):
        for dst in adjacency[src]:
            undirected[src].add(dst)
            undirected[dst].add(src)

    seen = [False] * count
    linkage: list[list[int]] = []
    for start in range(count):
        if seen[start]:
            continue
        component = []
        stack = [start]
        seen[start] = True
        while stack:
            node = stack.pop()
            component.append(node)
            for nxt in undirected[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        linkage.append(sorted(component))

    # Kosaraju: order by finish time on the forward graph, then collect
    # components on the reverse graph.
    reverse: list[set[int]] = [set() for _ in range(count)]
    for src in range(count):
        for dst in adjacency[src]:
            reverse[dst].add(src)
    finish_order: list[int] = []
    state = [0] * count  # 0 unvisited, 1 in progress, 2 done
    for start in range(count):
        if state[start]:
            continue
        stack: list[tuple[int, Iterator[int]]] = [(start, iter(sorted(adjacency[start])))]
        state[start] = 1
        while stack:
            node, edges = stack[-1]
            advanced = False
            for nxt in edges:
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(sorted(adjacency[nxt]))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                finish_order.append(node)
                stack.pop()

    assigned = [-1] * count
    strong: list[list[int]] = []
    for start in reversed(finish_order):
        if assigned[start] != -1:
            continue
        component = []
        stack = [start]
        assigned[start] = len(strong)
        while stack:
            node = stack.pop()
            component.append(node)
            for nxt in reverse[node]:
                if assigned[nxt] == -1:
                    assigned[nxt] = len(strong)
                    stack.append(nxt)
        strong.append(sorted(component))
    strong.sort(key=lambda component: component[0])
    assigned = [-1] * count
    for k, component in enumerate(strong):
        for node in component:
            assigned[node] = k

    terminal = [
        component
        for k, component in enumerate(strong)
        if all(assigned[dst] == k for node in component for dst in adjacency[node])
    ]
    linkage.sort(key=lambda component: component[0])
    return linkage, strong, terminal


def m3cr(
    net: Network,
    mandatory: Iterable[Reaction | str],
    node_budget: int = DEFAULT_NODE_BUDGET,
    check=check_concordance,
) -> M3crReport:
    """Grow a maximal concordant container of the mandatory reactions, with
    ``check(subnetwork, node_budget)`` deciding each reaction set."""
    base = sorted(set(_reaction_indices(net, mandatory)))
    base_verdict = check(subnetwork(net, base), node_budget)
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
                verdict = check(subnetwork(net, sorted(kept + [cand])), node_budget)
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


def integer_system(
    a_eq: Sequence[Sequence[Scalar]], b_eq: Sequence[Scalar]
) -> tuple[list[Sequence[int]], list[int]]:
    """``(A, b)`` scaled to integers by ``_integer_rows`` over ``[A | b]``:
    one common denominator, which changes no pivot."""
    if len(b_eq) != len(a_eq):
        raise ValueError(f"b_eq has {len(b_eq)} entries for {len(a_eq)} rows of a_eq")
    rows = _integer_rows([[*row, rhs] for row, rhs in zip(a_eq, b_eq)])
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def fraction_lp(a_eq: Sequence[Sequence[Scalar]], b_eq: Sequence[Scalar]) -> list[Fraction] | None:
    """``linalg.lp_feasible`` for entries of any type, with a ``Fraction`` point.

    ``(A, b)`` goes in through ``integer_system``, and ``(u, denom)`` is read
    back as ``u / denom``.
    """
    solution = linalg.lp_feasible(*integer_system(a_eq, b_eq))
    if solution is None:
        return None
    u, denom = solution
    return [Fraction(x, denom) for x in u]


_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)
# A Fraction point with the bitmasks of its positive and negative coordinates.
FractionPoint = tuple[list[Fraction], int, int]


def masked(point: list[Fraction], coords: Sequence[int] = ()) -> FractionPoint:
    """``point`` with the masks of its signs; entry k is coordinate ``coords[k]``.

    ``coords`` defaults to ``range(len(point))``.
    """
    pos = neg = 0
    for j, value in zip(coords or range(len(point)), point):
        sign = value.numerator  # the sign of a Fraction or an int is its numerator's
        if sign > 0:
            pos |= 1 << j
        elif sign < 0:
            neg |= 1 << j
    return point, pos, neg


def _signs(count: int, masks: _Masks) -> list[int | None]:
    """The ``_signed_point`` sign list of ``count`` coordinates wanted as ``masks``."""
    plus, minus, zero = masks
    return [
        1 if plus >> j & 1 else -1 if minus >> j & 1 else 0 if zero >> j & 1 else None
        for j in range(count)
    ]


def signed_point(rows: Sequence[Sequence[int]], signs: Sequence[int | None]) -> list[Fraction] | None:
    """Exact feasible point of {rows . x = 0} under per-coordinate signs.

    signs[j] is +1 for x_j >= 1, -1 for x_j <= -1, 0 for x_j = 0, None for
    unconstrained. Returns None when infeasible.
    """
    point = [_ONE if s == 1 else _MINUS_ONE if s == -1 else _ZERO for s in signs]
    if not rows:
        return point
    variables: list[tuple[int, int]] = []  # (coordinate, direction)
    for j, s in enumerate(signs):
        if s == 1:
            variables.append((j, 1))
        elif s == -1:
            variables.append((j, -1))
        elif s is None:
            variables.append((j, 1))
            variables.append((j, -1))
    a_eq = []
    b_eq = []
    for row in rows:
        a_eq.append([direction * row[j] for j, direction in variables])
        offset = 0
        for j, s in enumerate(signs):
            if s == 1:
                offset += row[j]
            elif s == -1:
                offset -= row[j]
        b_eq.append(-offset)
    solution = fraction_lp(a_eq, b_eq)
    if solution is None:
        return None
    for (j, direction), value in zip(variables, solution):
        if value:
            point[j] = point[j] + value if direction == 1 else point[j] - value
    return point


def off_support_sigma(
    rows: Sequence[Sequence[int]], order: Sequence[int], species_count: int
) -> list[Fraction] | None:
    """A nonzero vector of {rows . x = 0} vanishing on the species ``order``, or None."""
    pinned = list(rows)
    for i in order:
        row = [0] * species_count
        row[i] = 1
        pinned.append(row)
    if not pinned:
        # no left-null constraints and no reactant species at all
        return [Fraction(1)] + [Fraction(0)] * (species_count - 1)
    basis = nullspace_basis(pinned)
    if not basis:
        return None
    return [Fraction(v) for v in scale_to_integers(basis[0])]


class CertificateFreeSearch:
    """The sign search with carried points, an alpha cache and infeasible-alpha
    subsumption, and no certificates; ``solves`` counts its LPs."""

    def __init__(self, net: Network, node_budget: int) -> None:
        self.node_budget = node_budget
        self.nodes = 0
        self.solves = 0
        self.reaction_count = len(net.reactions)
        self.species_count = len(net.species)
        self.n_rows, self.left_null = search_rows(net)
        index = {name: i for i, name in enumerate(net.species)}
        self.supports = [
            sum(1 << index[name] for name, _ in rxn.reactant) for rxn in net.reactions
        ]
        shared = Counter(index[name] for rxn in net.reactions for name, _ in rxn.reactant)
        self.order = sorted(shared, key=lambda i: (-shared[i], i))
        self.alpha_cache: dict[_Masks, FractionPoint | None] = {}
        self.alpha_infeasible: list[_Masks] = []
        self.zero_alpha = masked([_ZERO] * self.reaction_count)

    def _signature(self, masks: _Masks) -> _Masks:
        plus, minus, zero = masks
        plus_zero, minus_zero = plus | zero, minus | zero
        forced_plus = forced_minus = forced_zero = 0
        for r, support in enumerate(self.supports):
            if support & zero == support:
                forced_zero |= 1 << r
            elif support & plus_zero == support:
                forced_plus |= 1 << r
            elif support & minus_zero == support:
                forced_minus |= 1 << r
        return forced_plus, forced_minus, forced_zero

    @staticmethod
    def _conforms(point: FractionPoint, masks: _Masks) -> bool:
        _, pos, neg = point
        want_pos, want_neg, want_zero = masks
        return (want_pos & pos == want_pos and want_neg & neg == want_neg
                and not want_zero & (pos | neg))

    def _alpha_point(self, signature: _Masks) -> FractionPoint | None:
        cached = self.alpha_cache.get(signature)
        if cached is not None or signature in self.alpha_cache:
            return cached
        plus, minus, zero = signature
        for p2, m2, z2 in self.alpha_infeasible:
            if p2 & plus == p2 and m2 & minus == m2 and z2 & zero == z2:
                self.alpha_cache[signature] = None
                return None
        self.solves += 1
        solved = signed_point(self.n_rows, _signs(self.reaction_count, signature))
        point = None if solved is None else masked(solved)
        self.alpha_cache[signature] = point
        if point is None:
            self.alpha_infeasible.append(signature)
        return point

    def _sigma_point(self, masks: _Masks) -> FractionPoint | None:
        self.solves += 1
        solved = signed_point(self.left_null, _signs(self.species_count, masks))
        return None if solved is None else masked(solved)

    def _off_support_sigma(self) -> list[Fraction] | None:
        return off_support_sigma(self.left_null, self.order, self.species_count)

    def _viable(
        self, masks: _Masks, alpha: FractionPoint, sigma: FractionPoint
    ) -> tuple[FractionPoint, FractionPoint] | None:
        signature = self._signature(masks)
        if signature[0] or signature[1]:
            if not self._conforms(alpha, signature):
                alpha = self._alpha_point(signature)
                if alpha is None:
                    return None
        else:
            alpha = self.zero_alpha
        if not self._conforms(sigma, masks):
            sigma = self._sigma_point(masks)
            if sigma is None:
                return None
        return alpha, sigma

    def _descend(
        self, depth: int, masks: _Masks, alpha: FractionPoint, sigma: FractionPoint
    ) -> SignWitness | None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise _BudgetExhausted
        plus, minus, zero = masks
        if depth == len(self.order):
            if not plus | minus:
                return None
            return SignWitness(tuple(alpha[0]), tuple(sigma[0]))
        bit = 1 << self.order[depth]
        children = [(plus | bit, minus, zero), (plus, minus | bit, zero), (plus, minus, zero | bit)]
        if not plus | minus:
            del children[1]
        for child in children:
            carried = self._viable(child, alpha, sigma)
            if carried is not None:
                witness = self._descend(depth + 1, child, *carried)
                if witness is not None:
                    return witness
        return None

    def run(self) -> ConcordanceVerdict:
        free_sigma = self._off_support_sigma()
        if free_sigma is not None:
            witness = SignWitness(
                tuple(Fraction(0) for _ in range(self.reaction_count)),
                tuple(free_sigma),
            )
            return ConcordanceVerdict("Discordant", witness, self.nodes)
        zero_sigma = masked([_ZERO] * self.species_count)
        try:
            witness = self._descend(0, (0, 0, 0), self.zero_alpha, zero_sigma)
        except _BudgetExhausted:
            return ConcordanceVerdict("Unknown", None, self.nodes)
        if witness is not None:
            return ConcordanceVerdict("Discordant", witness, self.nodes)
        return ConcordanceVerdict("Concordant", None, self.nodes)


def coefficient_reaction_vectors(net: Network) -> list[list[int]]:
    """``reaction_vectors`` by one ``Complex.coefficient`` scan per species."""
    return [
        [rxn.product.coefficient(name) - rxn.reactant.coefficient(name) for name in net.species]
        for rxn in net.reactions
    ]


def search_rows(net: Network) -> tuple[list[list[int]], list[list[int]]]:
    """The LP rows of the witness search: the rows of the RREF of N and the
    left nullspace of all of N's columns, each scaled to coprime integers."""
    columns = coefficient_reaction_vectors(net)
    reduced, pivots = rref(list(zip(*columns)))
    return (
        [scale_to_integers(reduced[k]) for k in range(len(pivots))],
        [scale_to_integers(vec) for vec in nullspace_basis(columns)],
    )


# An independent block as the search kept one before its blocks became
# ``concord._Block``: its coordinates, their mask, its rows over them and
# its answers by sub-pattern.
_RowBlock = tuple[list[int], int, list[list[int]], dict]


def row_blocks(rows: list[list[int]], count: int) -> list[_RowBlock]:
    """The independent blocks of ``rows``, split by scanning each row."""
    supports = [[j for j, entry in enumerate(row) if entry] for row in rows]
    components = _components(count, ((s[0], j) for s in supports for j in s[1:]))
    block_of = {j: b for b, coords in enumerate(components) for j in coords}
    block_rows: list[list[list[int]]] = [[] for _ in components]
    for row in rows:
        first = next((j for j, entry in enumerate(row) if entry), None)
        if first is not None:
            block_rows[block_of[first]].append(row)
    return [
        (coords, sum(1 << j for j in coords), [[row[j] for j in coords] for row in lines], {})
        for coords, lines in zip(components, block_rows)
    ]


def row_certificates(rows: list[list[int]]) -> list[_Certificate]:
    """The masks of every row ``w`` of an LP and of ``-w``, both of its row space."""
    certs = []
    for row in rows:
        wpos, wneg = _sign_masks(range(len(row)), row)
        certs += [(wpos, wneg), (wneg, wpos)]
    return certs


def certificate_free_verdict(
    net: Network, node_budget: int = DEFAULT_NODE_BUDGET
) -> ConcordanceVerdict:
    """``check_concordance`` by ``CertificateFreeSearch``."""
    return CertificateFreeSearch(net, node_budget).run()


def plain_circuits(rows: Sequence[Sequence[int]]) -> set[_Certificate]:
    """The masks of the circuits of the row space of ``rows`` and of their
    negations, by the plain enumeration: every ``(r - 1)``-subset of the
    columns whose ``y`` with ``yᵀ R`` zero on it is unique up to scale gives
    ``yᵀ R``, for the Fraction RREF basis ``R`` of rank r."""
    reduced, pivots = rref(rows) if rows else ([], [])
    basis = reduced[: len(pivots)]
    rank, count = len(basis), len(rows[0]) if rows else 0
    found: set[_Certificate] = set()
    if not rank:
        return found
    for subset in combinations(range(count), rank - 1):
        constraints = [[row[c] for row in basis] for c in subset]
        ys = nullspace_basis(constraints) if constraints else [[_ONE]] * (rank == 1)
        if len(ys) == 1:
            w = [sum(y * row[c] for y, row in zip(ys[0], basis)) for c in range(count)]
            wpos, wneg = masked(w)[1:]
            found |= {(wpos, wneg), (wneg, wpos)}
    return found


def positive_point(rows: Sequence[Sequence[int]], count: int) -> ConeCertificate:
    """Whether {rows . x = 0} has a point with every coordinate >= 1, from one
    ``_signed_point`` over the whole system, and that point."""
    point = _signed_point(rows, range(count), ((1 << count) - 1, 0, 0))
    if point is None:
        return ConeCertificate(False, None)
    return ConeCertificate(True, _assemble([point], count))


# --- brute-force oracle -----------------------------------------------------
#
# Witness existence depends on sigma only through its sign pattern, so on a
# tiny network we can simply enumerate all 3^m patterns and solve one exact
# LP for sigma and one for alpha per pattern.  No search, no pruning, no
# shared code with the production engine beyond the simplex kernel.


def _signed_solution(n_vars, eq_rows, pos_forms, neg_forms, zero_forms):
    """A point of {x free : eq_rows x = 0, f x >= 1, g x <= -1, h x = 0}."""
    strict = len(pos_forms) + len(neg_forms)

    def split(form, slack_at=None, slack_sign=0):
        row = []
        for c in form:
            row.extend((c, -c))
        row.extend([_ZERO] * strict)
        if slack_at is not None:
            row[2 * n_vars + slack_at] = Fraction(slack_sign)
        return row

    rows = [split(row) for row in eq_rows]
    rhs = [_ZERO] * len(eq_rows)
    for k, form in enumerate(pos_forms):
        rows.append(split(form, k, -1))
        rhs.append(_ONE)
    for k, form in enumerate(neg_forms):
        rows.append(split(form, len(pos_forms) + k, 1))
        rhs.append(_MINUS_ONE)
    for form in zero_forms:
        rows.append(split(form))
        rhs.append(_ZERO)
    point = fraction_lp(rows, rhs)
    if point is None:
        return None
    x = [point[2 * i] - point[2 * i + 1] for i in range(n_vars)]
    for row in eq_rows:
        assert sum(c * v for c, v in zip(row, x)) == 0
    for form in pos_forms:
        assert sum(c * v for c, v in zip(form, x)) >= 1
    for form in neg_forms:
        assert sum(c * v for c, v in zip(form, x)) <= -1
    for form in zero_forms:
        assert sum(c * v for c, v in zip(form, x)) == 0
    return x


def oracle_verdict(net: Network) -> tuple[str, SignWitness | None]:
    """``("Discordant", witness)`` for the first sign pattern that has one,
    else ``("Concordant", None)``."""
    cols = coefficient_reaction_vectors(net)
    m, r = len(net.species), len(net.reactions)
    rows = [[cols[j][i] for j in range(r)] for i in range(m)]
    supports = [
        [net.species.index(name) for name, _ in rxn.reactant]
        for rxn in net.reactions
    ]
    unit = lambda k, n: [Fraction(i == k) for i in range(n)]
    for signs in product((1, -1, 0), repeat=m):
        if all(s == 0 for s in signs):
            continue
        beta = _signed_solution(
            r,
            [],
            [rows[i] for i in range(m) if signs[i] > 0],
            [rows[i] for i in range(m) if signs[i] < 0],
            [rows[i] for i in range(m) if signs[i] == 0],
        )
        if beta is None:
            continue
        pos, neg, zero = [], [], []
        for k, supp in enumerate(supports):
            seen = {signs[i] for i in supp}
            if not supp or seen == {0}:
                zero.append(unit(k, r))
            elif 1 in seen and -1 in seen:
                pass
            elif 1 in seen:
                pos.append(unit(k, r))
            else:
                neg.append(unit(k, r))
        alpha = _signed_solution(r, rows, pos, neg, zero)
        if alpha is not None:
            sigma = [sum(cols[j][i] * beta[j] for j in range(r)) for i in range(m)]
            return "Discordant", SignWitness(tuple(alpha), tuple(sigma))
    return "Concordant", None


def lifted_witness(parent: Network, child: Network, witness: SignWitness) -> SignWitness | None:
    """The witness of ``child``, a subnetwork of ``parent``, over the parent's
    reactions and species, or None when a removed reaction's reactant support
    takes one strict sign under sigma."""
    by_name = dict(zip(child.species, witness.sigma))
    sigma = tuple(by_name.get(name, _ZERO) for name in parent.species)
    child_arrows = {rxn.arrow for rxn in child.reactions}
    alpha = []
    taken = iter(witness.alpha)
    for rxn in parent.reactions:
        alpha.append(next(taken) if rxn.arrow in child_arrows else _ZERO)
    removed = [rxn for rxn in parent.reactions if rxn.arrow not in child_arrows]
    for rxn in removed:
        signs = {
            (by_name.get(name, _ZERO) > 0) - (by_name.get(name, _ZERO) < 0)
            for name, _ in rxn.reactant
        }
        if signs and signs != {0} and not (1 in signs and -1 in signs):
            return None
    return SignWitness(tuple(alpha), sigma)
