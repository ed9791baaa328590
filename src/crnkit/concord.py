"""Concordance certificates, cone properties, and concordant containers.

A discordance witness is a pair (alpha, sigma): alpha in the kernel of the
stoichiometric matrix and sigma a nonzero vector of its image whose signs are
compatible — a reaction with alpha_r != 0 must have a reactant species whose
sigma-sign equals alpha_r's sign, and a reaction with alpha_r = 0 must have a
reactant support on which sigma is all zero or carries both signs. A network
is concordant when no witness exists.

The decision procedure is a complete branch-and-prune search over sigma sign
patterns, assigned species by species (most-shared reactant species first,
first nonzero sign pinned to + since witnesses negate jointly). A partial
pattern is three species masks (the signs assigned +, - and 0), passed down
the recursion. It is pruned when no vector of Im(N) has its signs, or no
vector of ker(N) has the alpha-signs forced by completed reactant supports
(a pure-signed support forces alpha_r to that sign, an all-zero one forces
alpha_r = 0, a mixed one leaves it free), which take three mask operations
per node. The search is budgeted; verdicts are Concordant, Discordant (with
a witness), or Unknown when the node budget runs out.

Each side is the kernel of coprime integer rows (on alpha the RREF of N, on
sigma a basis of its left nullspace), split into independent blocks: the
components of the graph joining the coordinates that share a row, on alpha
the blocks of the finest independent decomposition. A vector of a block's
row space that is >= 0 where a pattern wants +, <= 0 where it wants -, 0
where it wants nothing and nonzero on a signed coordinate refutes it
(``_refuted``). By the Farkas lemma one exists exactly when the pattern is
infeasible, and it is a conformal sum of circuits, the support-minimal
vectors, one of which refutes it too (Rockafellar 1969; Müller et al.,
Found. Comput. Math. 16, 2016). So each child is decided by the circuits
that meet what its depth decides, as its parent was feasible. A block over
``_CIRCUIT_SUBSETS`` decides by its LP instead, each sub-pattern once.

The search carries no point. A ``Discordant`` search rebuilds its witness
along the path to its leaf: each node takes its parent's point if the signs
still conform (both cones are closed under positive scaling), else that of
its own LP, block by block (``_signed_point``; under Bland's rule each block
of a block-diagonal tableau pivots as it would alone). ``Fraction``s are
built only in ``_assemble``. The cone certificates ask a ``_Side`` for one
point each. A ``_Parent`` row-reduces its network once and builds every
search, for ``check_concordance`` and for each reaction set of ``m3cr``. A
set's search works in the parent's coordinates. Its kernel, padded with
zeros, is ker N with every reaction outside the set wanted 0, and the
argument above holds for any pattern, so all of them share the parent's one
alpha side, split into blocks once. A set's left nullspace is grown from
that of the set one reaction smaller (``_Parent.grow``), and searches over
the same one share its blocks. All blocks come from one store, with their
circuits. ``m3cr`` asks for no witness, so it solves no LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Literal, Sequence

from .core import Network, Reaction, reaction_vectors, subnetwork
from .linalg import _eliminate, _integer_nullspace, _primitive, lp_feasible, nullspace_basis
from .structure import _row_components

DEFAULT_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class SignWitness:
    """A discordance certificate: alpha over reactions, sigma over species."""

    alpha: tuple[Fraction, ...]
    sigma: tuple[Fraction, ...]


@dataclass(frozen=True)
class ConcordanceVerdict:
    status: Literal["Concordant", "Discordant", "Unknown"]
    witness: SignWitness | None
    search_nodes: int

    @property
    def concordant(self) -> bool:
        return self.status == "Concordant"


@dataclass(frozen=True)
class ConeCertificate:
    """Feasibility result with the certifying vector when one exists."""

    holds: bool
    vector: tuple[Fraction, ...] | None

    def __bool__(self) -> bool:
        return self.holds


class UnverifiedMandatorySet(ValueError):
    """``m3cr``'s mandatory set was not shown concordant within the node budget."""


@dataclass(frozen=True)
class M3crReport:
    """Greedily grown maximal concordant container of a mandatory set."""

    container: Network
    discordance_set: tuple[Reaction, ...]
    maximality_verified: bool
    order_dependent: bool
    search_nodes: int


_ZERO = Fraction(0)
# A block's point: its coordinates, the integer numerators of its entries over
# one positive denominator, and the bitmasks of its positive and negative
# coordinates.
_Part = tuple[Sequence[int], list[int], int, int, int]
# A side's point: the parts of its blocks that are not zero, and the bitmasks
# of its positive and negative coordinates; every other coordinate is zero.
_Masked = tuple[Sequence[_Part], int, int]
# The point of a pattern that wants no sign, on either side.
_ORIGIN: _Masked = ((), 0, 0)
# Bitmasks of the coordinates wanted positive, negative and zero.
_Masks = tuple[int, int, int]
# The masks (wpos, wneg) of a vector of a row space, such as a circuit.
_Certificate = tuple[int, int]
# A block of two or more rows decides by LP when its circuits would take more
# subsets than this to enumerate. Measured on random blocks of rank 3-7
# (2-vCPU Xeon, Python 3.11): 2-60 us per subset within the bound against
# 0.04-0.3 ms per block LP, so a block at the bound costs at most about 110
# of its LPs. The bundled models' blocks take at most 126 subsets.
_CIRCUIT_SUBSETS = 200


def _sign_masks(coords: Iterable[int], values: Iterable[int]) -> tuple[int, int]:
    """The masks of the coordinates ``coords`` whose entry of ``values`` is > 0 and < 0."""
    pos = neg = 0
    for j, value in zip(coords, values):
        if value > 0:
            pos |= 1 << j
        elif value < 0:
            neg |= 1 << j
    return pos, neg


def _assemble(parts: Iterable[_Part], count: int) -> tuple[Fraction, ...]:
    """The exact vector over ``count`` coordinates of the block ``parts``, 0 elsewhere."""
    vector = [_ZERO] * count
    for coords, nums, denom, _, _ in parts:
        for j, num in zip(coords, nums):
            vector[j] = Fraction(num, denom)
    return tuple(vector)


def _signed_point(
    rows: Sequence[Sequence[int]], coords: Sequence[int], masks: _Masks
) -> _Part | None:
    """Exact feasible point of {rows . x = 0} over the coordinates ``coords``, or None.

    Entry k of each row, and of the point, belongs to coordinate ``coords[k]``.
    ``masks`` is ``(plus, minus, zero)``: x_j >= 1 where ``plus`` has bit j,
    x_j <= -1 where ``minus`` has it, x_j = 0 where ``zero`` has it, free
    elsewhere. One row is answered by ``_first_pivot``, with no LP. The point
    is a ``_Part``, integers over the pivot's or ``lp_feasible``'s denominator.
    """
    plus, minus, zero = masks
    signs = [1 if plus >> j & 1 else -1 if minus >> j & 1 else 0 for j in coords]
    if not rows or not plus | minus | zero:
        return coords, signs, 1, plus, minus
    if len(rows) == 1:
        return _first_pivot(rows[0], coords, masks, signs)
    variables: list[tuple[int, int]] = []  # (entry, direction)
    for k, j in enumerate(coords):
        if not zero >> j & 1:
            if not minus >> j & 1:
                variables.append((k, 1))
            if not plus >> j & 1:
                variables.append((k, -1))
    a_eq = [[direction * row[k] for k, direction in variables] for row in rows]
    # x_j = s_j + u for a signed coordinate, so its +-1 moves to the right-hand
    # side; a free coordinate's two columns cancel in the row sum
    solution = lp_feasible(a_eq, [-sum(line) for line in a_eq])
    if solution is None:
        return None
    u, denom = solution
    nums = [sign * denom for sign in signs]
    for (k, direction), value in zip(variables, u):
        nums[k] += direction * value
    return coords, nums, denom, *_sign_masks(coords, nums)


def _first_pivot(
    row: Sequence[int], coords: Sequence[int], masks: _Masks, signs: list[int]
) -> _Part | None:
    """``_signed_point``'s LP for the one row ``row``, in closed form.

    Returns the point ``signs`` (+-1 or 0) moved onto the row, or None. The
    LP is ``a . u = b`` with ``b = -row . signs``, its artificial basic. Bland's
    rule enters the first column with ``s * a > 0``, ``s`` the sign of b, and
    then no reduced cost is negative; either column of entry k moves it by
    ``b / row[k]``, so the point is scaled by ``|row[k]|``.
    """
    plus, minus, zero = masks
    b = 0
    for entry, sign in zip(row, signs):
        b -= entry * sign
    if not b:
        return coords, signs, 1, plus, minus
    s = 1 if b > 0 else -1
    for k, (entry, j) in enumerate(zip(row, coords)):
        # s * entry > 0 enters the + column, which x_j lacks when wanted - or 0;
        # s * entry < 0 enters the - column, which it lacks when wanted + or 0
        blocked = minus if s * entry > 0 else plus
        if entry and not (blocked | zero) >> j & 1:
            denom = abs(entry)
            nums = [sign * denom for sign in signs]
            nums[k] += b if entry > 0 else -b
            return coords, nums, denom, *_sign_masks(coords, nums)
    return None


def _refuted(certs: Iterable[_Certificate], masks: _Masks) -> bool:
    """Whether one of ``certs`` proves the pattern ``masks`` infeasible: every x of
    the cone is orthogonal to w, and w . x > 0 for every x with the wanted signs
    if w is >= 0 where + is wanted, <= 0 where - is, 0 on the free coordinates
    and nonzero on a signed one. Any more specific pattern is refuted too."""
    plus, minus, zero = masks
    plus_zero, minus_zero = plus | zero, minus | zero
    for wpos, wneg in certs:
        if (wpos & plus_zero == wpos and wneg & minus_zero == wneg
                and (wpos & plus or wneg & minus)):
            return True
    return False


def _cross(vectors: list[list[int]], n: int) -> Sequence[int]:
    """A nonzero vector of R^n orthogonal to the ``n - 1`` ``vectors``, or zeros
    when they are dependent: their cross product up to a nonzero factor."""
    if n == 1:
        return [1]
    if n == 2:
        (a0, a1), = vectors
        return [a1, -a0]
    if n == 3:
        (a0, a1, a2), (b0, b1, b2) = vectors
        return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    basis = _integer_nullspace(vectors)
    return basis[0] if len(basis) == 1 else [0] * n


def _circuits(coords: Sequence[int], rows: list[list[int]]) -> list[_Certificate] | None:
    """The masks of the circuits of the row space of ``rows`` over ``coords``, and
    of their negations; None when they would take more than ``_CIRCUIT_SUBSETS``.

    The row space, of rank r, is the kernel of a kernel basis, of dimension
    k, and a vector of it is a circuit exactly when its support is a minimal
    dependent set of the basis's columns: each (k + 1)-subset of rank k gives
    one, their cross product (``_cross``). There are ``C(m, r - 1)`` of them
    over the m classes of parallel columns (every circuit holds a class in
    one ratio, and is 0 on a zero column). One row is its own only circuit,
    and two rows have one circuit per column, the one vanishing on it.
    """
    if len(rows) == 1:  # one subset, the empty one
        pos, neg = _sign_masks(coords, rows[0])
        if not pos | neg:
            return []
        return [(pos, neg), (neg, pos)]
    found: dict[_Certificate, None] = {}
    if len(rows) == 2 and len(coords) <= _CIRCUIT_SUBSETS:
        # parallel rows give none, and take the general route
        columns = list(zip(*rows))
        for a0, a1 in columns:
            pos, neg = _sign_masks(coords, [a0 * b1 - a1 * b0 for b0, b1 in columns])
            if pos | neg:
                found[pos, neg] = found[neg, pos] = None
        if found:
            return list(found)
    classes: dict[tuple[int, ...], list[int]] = {}  # column -> [same ratio, opposite]
    for j, column in zip(coords, zip(*rows)):
        if any(column):
            unit = _primitive(column)
            flip = next(x for x in unit if x) < 0
            members = classes.setdefault(tuple(-x for x in unit) if flip else tuple(unit), [0, 0])
            members[flip] |= 1 << j
    if not classes:  # no nonzero entry
        return []
    m = len(classes)
    matrix = [list(row) for row in zip(*classes)]
    kernel = _integer_nullspace(matrix)
    rank = m - len(kernel)
    if comb(m, rank - 1) > _CIRCUIT_SUBSETS:
        return None
    members = list(classes.values())

    def add(entries: Iterable[tuple[int, int]]) -> None:
        pos = neg = 0
        for c, value in entries:
            same, opposite = members[c]
            if value > 0:
                pos, neg = pos | same, neg | opposite
            elif value < 0:
                pos, neg = pos | opposite, neg | same
        if pos | neg:
            found[pos, neg] = found[neg, pos] = None

    for subset in combinations(range(m), len(kernel) + 1):
        add(zip(subset, _cross([[v[c] for c in subset] for v in kernel], len(subset))))
    return list(found)


class _Block:
    """An independent block of a side's rows: its coordinates, their mask, its
    rows over them and ``_signed_point``'s answers by sub-pattern."""

    __slots__ = ("coords", "mask", "rows", "answers", "_circuits")

    def __init__(self, coords: list[int], rows: list[list[int]]) -> None:
        self.coords = coords
        self.mask = sum(1 << j for j in coords)
        self.rows = rows
        self.answers: dict[_Masks, _Part | None] = {}
        self._circuits: list[_Certificate] | None | Literal[False] = False

    def circuits(self) -> list[_Certificate] | None:
        """``_circuits`` of the block, enumerated on first use."""
        if self._circuits is False:
            self._circuits = _circuits(self.coords, self.rows)
        return self._circuits

    def point(self, sub: _Masks) -> _Part | None:
        """``_signed_point`` of the sub-pattern ``sub``, solved once."""
        answers = self.answers
        if sub not in answers:
            answers[sub] = _signed_point(self.rows, self.coords, sub)
        return answers[sub]


# A parent's blocks, keyed by their coordinates and rows, which decide the rest.
_Store = dict[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], _Block]


def _blocks(rows: list[list[int]], count: int, store: _Store) -> list[_Block]:
    """The independent blocks of {rows . x = 0} over ``count`` coordinates: the
    components of the graph joining the coordinates of each row, a coordinate
    in no row a block with no rows. A block already in ``store`` under its
    coordinates and rows is returned with what it holds; a new one is added."""
    supports = [sum(1 << j for j, entry in enumerate(row) if entry) for row in rows]
    components = _row_components(supports, count)
    block_of = {j: b for b, coords in enumerate(components) for j in coords}
    block_rows: list[list[list[int]]] = [[] for _ in components]
    for row, support in zip(rows, supports):
        if support:
            block_rows[block_of[(support & -support).bit_length() - 1]].append(row)
    blocks = []
    for coords, lines in zip(components, block_rows):
        cut = [[row[j] for j in coords] for row in lines]
        key = (tuple(coords), tuple(map(tuple, cut)))
        if key not in store:
            store[key] = _Block(coords, cut)
        blocks.append(store[key])
    return blocks


class _Side:
    """The sign patterns of {rows . x = 0} over ``count`` coordinates.

    ``feasible(depth, masks)`` decides a child at ``depth`` of the search,
    whose feasible parent differs from it only on ``changes[depth]``, by the
    circuits that meet those and the LPs of the blocks over the circuit
    bound that do; both lists are built for a depth when it is first asked.
    ``point`` answers a pattern with a masked point, which ``_assemble``
    turns into a vector, or None. The blocks come from ``store`` on first use,
    or from the ``source`` side that ``deciding`` made this one from, so
    every search over the same rows shares one list of them.
    """

    __slots__ = ("rows", "count", "store", "changes", "checks", "blocks", "source")

    def __init__(
        self,
        rows: list[list[int]],
        count: int,
        store: _Store,
        changes: Sequence[int] = (),
        source: _Side | None = None,
    ) -> None:
        self.rows = rows
        self.count = count
        self.store = store
        self.changes = changes
        self.checks: list[tuple[list[_Certificate], list[_Block]] | None] = [None] * len(changes)
        self.blocks: list[_Block] | None = None
        self.source = source

    def _build(self) -> list[_Block]:
        if self.blocks is None:
            if self.source is None:
                self.blocks = _blocks(self.rows, self.count, self.store)
            else:
                self.blocks = self.source._build()
        return self.blocks

    def deciding(self, changes: Sequence[int]) -> _Side:
        """A side over this one's rows and blocks that decides the children of
        a search changing ``changes``."""
        return _Side(self.rows, self.count, self.store, changes, self)

    def feasible(self, depth: int, masks: _Masks) -> bool:
        """Whether a point has the signs ``masks`` wants; a pattern that wants
        no sign has the origin."""
        plus, minus, zero = masks
        if not plus | minus:
            return True
        check = self.checks[depth]
        if check is None:
            change = self.changes[depth]
            circuits, solved = [], []
            for block in self._build():
                if block.mask & change:
                    found = block.circuits()
                    if found is None:
                        solved.append(block)
                    else:
                        circuits += [c for c in found if (c[0] | c[1]) & change]
            check = self.checks[depth] = circuits, solved
        circuits, solved = check
        if _refuted(circuits, masks):
            return False
        for block in solved:
            mask = block.mask
            sub = (plus & mask, minus & mask, zero & mask)
            if (sub[0] | sub[1]) and block.point(sub) is None:
                return False
        return True

    def point(self, masks: _Masks, carried: _Masked) -> _Masked | None:
        """A point with the signs ``masks`` wants, or None: the origin for a
        pattern that wants no sign, ``carried`` if it conforms, else the
        points of the blocks' LPs side by side (0 where nothing is wanted)."""
        plus, minus, zero = masks
        if not plus | minus:
            return _ORIGIN
        _, pos, neg = carried
        if plus & pos == plus and minus & neg == minus and not zero & (pos | neg):
            return carried
        wanted = plus | minus | zero
        parts = []
        pos = neg = 0
        for block in self._build():
            mask = block.mask
            if not wanted & mask:
                continue
            answer = block.point((plus & mask, minus & mask, zero & mask))
            if answer is None:
                return None
            if answer[3] | answer[4]:
                parts.append(answer)
                pos |= answer[3]
                neg |= answer[4]
        return parts, pos, neg


class _BudgetExhausted(Exception):
    pass


class _WitnessSearch:
    """The sign search of one network or reaction set, built by ``_Parent``.

    Its coordinates are the parent's: bit r of a reaction mask is the
    parent's reaction r, and bit i of a species mask its species i.
    ``reactant_of`` holds the mask of the set's reactions each species is a
    reactant of, and ``after[d]`` the reactions with a reactant among the
    species ``order[d:]``, so the reactions a pattern forces (pure +, pure -,
    all zero) take three mask operations (``_descend``). A child at depth d
    signs the species ``order[d]`` (``sigma``) and decides the reactions
    ``after[d] & ~after[d + 1]`` (``alpha``); a reaction with no reactant, or
    none in the set, is forced to 0 everywhere, and a circuit within those
    refutes nothing.
    """

    def __init__(
        self,
        species: list[int],
        reactant_of: list[int],
        alpha: _Side,
        sigma: _Side,
        node_budget: int,
    ) -> None:
        """The search over the parent's species ``species``, the set's in order
        of first appearance, with ``reactant_of`` the mask of the set's
        reactions each parent species is a reactant of, the parent's ``alpha``
        side and the ``sigma`` side of the set's left nullspace."""
        self.node_budget = node_budget
        self.nodes = 0
        self.reaction_count = alpha.count
        self.species_count = sigma.count
        self.species = species
        self.reactant_of = reactant_of
        # most-shared reactant first, ties in order of first appearance
        self.order = sorted(
            (i for i in species if reactant_of[i]), key=lambda i: -reactant_of[i].bit_count()
        )
        # after[d]: the reactions with a reactant among order[d:], unsigned at depth d
        self.after = [0] * (len(self.order) + 1)
        for d in reversed(range(len(self.order))):
            self.after[d] = self.after[d + 1] | reactant_of[self.order[d]]
        self.all_reactions = (1 << self.reaction_count) - 1
        decided = [self.after[d] & ~self.after[d + 1] for d in range(len(self.order))]
        self.alpha = alpha.deciding(decided)
        self.sigma = sigma.deciding([1 << i for i in self.order])

    def _off_support_sigma(self) -> list[Fraction] | None:
        """A nonzero image vector vanishing on every reactant support, or None.

        The first canonical nullspace vector of the sigma rows on the species
        no reaction consumes: with a unit row per reactant added instead, each
        reactant column is a pivot no other column reaches, so it is the same."""
        free = [i for i in self.species if not self.reactant_of[i]]
        if not free:
            return None  # every species is a reactant, so no vector is nonzero off them
        # with no left-null rows, every vector is an image vector
        rows = [[row[i] for i in free] for row in self.sigma.rows] or [[0] * len(free)]
        basis = _integer_nullspace(rows)
        if not basis:
            return None
        values = dict(zip(free, basis[0]))
        return [Fraction(values.get(i, 0)) for i in range(self.species_count)]

    def _descend(self, depth: int, masks: _Masks, touched: tuple[int, int]) -> _Masks | None:
        """The first complete pattern of a witness below ``masks``, or None;
        ``touched`` holds the masks of the reactions with a reactant signed +
        and with one signed -."""
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise _BudgetExhausted
        plus, minus, zero = masks
        if depth == len(self.order):
            return masks if plus | minus else None
        species = self.order[depth]
        bit, reactions = 1 << species, self.reactant_of[species]
        touched_plus, touched_minus = touched
        children = [
            ((plus | bit, minus, zero), touched_plus | reactions, touched_minus),
            ((plus, minus | bit, zero), touched_plus, touched_minus | reactions),
            ((plus, minus, zero | bit), touched_plus, touched_minus),
        ]
        if not plus | minus:
            del children[1]  # the first nonzero sign is pinned to +
        after = self.after[depth + 1]
        for child, p, m in children:
            forced = (p & ~(m | after), m & ~(p | after), self.all_reactions & ~(p | m | after))
            if self.alpha.feasible(depth, forced) and self.sigma.feasible(depth, child):
                leaf = self._descend(depth + 1, child, (p, m))
                if leaf is not None:
                    return leaf
        return None

    def _witness(self, leaf: _Masks) -> SignWitness:
        """The witness of the complete pattern ``leaf``: each node on its path
        takes its parent's point where it conforms, else its own LP's, as a
        search that carried points would."""
        plus, minus, zero = leaf
        signed = p = m = 0
        alpha = sigma = _ORIGIN
        for depth, species in enumerate(self.order):
            signed |= 1 << species
            if plus >> species & 1:
                p |= self.reactant_of[species]
            elif minus >> species & 1:
                m |= self.reactant_of[species]
            after = self.after[depth + 1]
            forced = (p & ~(m | after), m & ~(p | after), self.all_reactions & ~(p | m | after))
            alpha = self.alpha.point(forced, alpha)
            sigma = self.sigma.point((plus & signed, minus & signed, zero & signed), sigma)
        return SignWitness(
            _assemble(alpha[0], self.reaction_count), _assemble(sigma[0], self.species_count)
        )

    def run(self, witness: bool = True) -> ConcordanceVerdict:
        """The verdict; a ``Discordant`` one found by the search carries its
        witness only when ``witness`` asks for it."""
        free_sigma = self._off_support_sigma()
        if free_sigma is not None:
            found = SignWitness((_ZERO,) * self.reaction_count, tuple(free_sigma))
            return ConcordanceVerdict("Discordant", found if witness else None, self.nodes)
        try:
            leaf = self._descend(0, (0, 0, 0), (0, 0))
        except _BudgetExhausted:
            return ConcordanceVerdict("Unknown", None, self.nodes)
        if leaf is None:
            return ConcordanceVerdict("Concordant", None, self.nodes)
        found = self._witness(leaf) if witness else None
        return ConcordanceVerdict("Discordant", found, self.nodes)


# A reaction set's left nullspace: the side over its canonical primitive
# RREF rows, over the parent's species and 0 off the set's, and the mask of
# the set's species.
_Basis = tuple[_Side, int]


class _Parent:
    """What the searches of one network and of its reaction sets share, built once.

    The network's reaction vectors, its primitive RREF rows and their pivot
    columns, the ``alpha`` side over those rows, each reaction's species and
    reactants, and one ``store`` from which all its searches take their
    blocks. ``whole`` builds the search of the network itself. ``search``
    builds that of ``subnetwork(net, key)`` with no subnetwork, in the
    parent's coordinates. Its kernel, padded with zeros, is ker N with every
    reaction outside ``key`` wanted 0, so it shares the parent's ``alpha``
    side, whose circuits refute exactly the infeasible patterns of those too.
    Its left nullspace is a ``_Basis`` that ``grow`` builds one reaction at a
    time, from a set one reaction smaller (``basis`` from none).
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.columns = reaction_vectors(net)
        reduced, self.pivots = _eliminate(list(zip(*self.columns)))
        self.rows = reduced[: len(self.pivots)]
        self.store: _Store = {}
        self.alpha = _Side(self.rows, len(self.columns), self.store)
        self.index = {name: i for i, name in enumerate(net.species)}
        self.reactants = [[self.index[name] for name, _ in rxn.reactant] for rxn in net.reactions]

    @cached_property
    def species_of(self) -> list[list[int]]:
        """Each reaction's species in order of appearance, for ``search`` and ``grow``."""
        index = self.index
        return [
            [index[name] for side in (rxn.reactant, rxn.product) for name, _ in side]
            for rxn in self.net.reactions
        ]

    def _reactant_of(self, key: Iterable[int]) -> list[int]:
        """The mask of the reactions of ``key`` each parent species is a reactant of."""
        reactant_of = [0] * len(self.net.species)
        for r in key:
            for i in self.reactants[r]:
                reactant_of[i] |= 1 << r
        return reactant_of

    def whole(self, node_budget: int) -> _WitnessSearch:
        """The search of the network itself, in its own species order."""
        count = len(self.net.species)
        # the pivot reactions span the image, so their left nullspace is N's
        sigma_rows = _integer_nullspace([self.columns[r] for r in self.pivots])
        return _WitnessSearch(
            list(range(count)),
            self._reactant_of(range(len(self.columns))),
            self.alpha,
            _Side(sigma_rows, count, self.store),
            node_budget,
        )

    def search(self, key: Sequence[int], basis: _Basis, node_budget: int) -> _WitnessSearch:
        """The search of the reactions ``key``, in increasing order, whose left
        nullspace is ``basis``; its species in order of first appearance."""
        species = list(dict.fromkeys(i for r in key for i in self.species_of[r]))
        return _WitnessSearch(species, self._reactant_of(key), self.alpha, basis[0], node_budget)

    def basis(self, key: Iterable[int]) -> _Basis:
        """The ``_Basis`` of the reactions ``key``, grown from none, one at a time."""
        basis: _Basis = _Side([], len(self.net.species), self.store), 0
        for r in key:
            basis = self.grow(basis, r)
        return basis

    def grow(self, basis: _Basis, cand: int) -> _Basis:
        """The ``_Basis`` of a reaction set with ``cand`` added, from the set's ``basis``.

        The new left nullspace is {y in L + span(e_i : i a species ``cand``
        adds) : y . N_cand = 0}, L the set's. The unit rows keep the rows an
        RREF, and the cut keeps it one: it drops the last row whose product
        with N_cand is nonzero, which leads where no vector of the new space
        does, and subtracts it from each other such row. ``basis`` itself is
        returned when ``cand`` adds no species and no rank.
        """
        side, present = basis
        count = side.count
        rows = side.rows
        units = []
        for i in self.species_of[cand]:
            if not present >> i & 1:
                present |= 1 << i
                unit = [0] * count
                unit[i] = 1
                units.append(unit)
        if units:
            # by the coordinate each row leads at
            rows = sorted(rows + units, key=lambda row: next(j for j, x in enumerate(row) if x))
        # the net change, so a species on both sides of cand counts once
        entries = [(i, value) for i, value in enumerate(self.columns[cand]) if value]
        products = [sum([row[i] * value for i, value in entries]) for row in rows]
        cut = len(rows) - 1
        while cut >= 0 and not products[cut]:
            cut -= 1
        if cut < 0:
            return (_Side(rows, count, self.store), present) if units else basis
        cut_row, p = rows[cut], products[cut]
        s = 1 if p > 0 else -1
        grown = [
            _primitive([s * (p * a - f * b) for a, b in zip(row, cut_row)]) if f else row
            for row, f in zip(rows[:cut], products)
        ] + rows[cut + 1:]
        return _Side(grown, count, self.store), present


def check_concordance(
    net: Network, node_budget: int = DEFAULT_NODE_BUDGET
) -> ConcordanceVerdict:
    """Decide concordance by complete search, within a node budget."""
    _check_budget(node_budget)
    return _Parent(net).whole(node_budget).run()


def _check_budget(node_budget: int) -> None:
    if isinstance(node_budget, bool) or not isinstance(node_budget, int) or node_budget < 1:
        raise ValueError("node_budget must be a positive integer")


def verify_witness(net: Network, witness: SignWitness) -> bool:
    """Validate a discordance witness by direct inspection, independent of
    the search: kernel and image membership, sigma nonzero, and the two sign
    conditions reaction by reaction."""
    species_count = len(net.species)
    reaction_count = len(net.reactions)
    if len(witness.sigma) != species_count or len(witness.alpha) != reaction_count:
        raise ValueError("witness dimensions do not match the network")
    columns = reaction_vectors(net)
    for i in range(species_count):
        if sum(witness.alpha[r] * columns[r][i] for r in range(reaction_count)) != 0:
            return False
    if all(v == 0 for v in witness.sigma):
        return False
    for w in nullspace_basis(columns):
        if sum(w[i] * witness.sigma[i] for i in range(species_count)) != 0:
            return False
    index = {name: i for i, name in enumerate(net.species)}
    for r, rxn in enumerate(net.reactions):
        support_signs = {
            (witness.sigma[index[name]] > 0) - (witness.sigma[index[name]] < 0)
            for name, _ in rxn.reactant
        }
        a = witness.alpha[r]
        if a > 0 and 1 not in support_signs:
            return False
        if a < 0 and -1 not in support_signs:
            return False
        if a == 0:
            mixed = 1 in support_signs and -1 in support_signs
            if not (mixed or support_signs <= {0}):
                return False
    return True


def _positive_point(rows: list[list[int]], count: int) -> ConeCertificate:
    """Whether {rows . x = 0} has a point with every coordinate >= 1, and one such point."""
    point = _Side(rows, count, {}).point(((1 << count) - 1, 0, 0), _ORIGIN)
    if point is None:
        return ConeCertificate(False, None)
    return ConeCertificate(True, _assemble(point[0], count))


def is_positive_dependent(net: Network) -> ConeCertificate:
    """Whether some strictly positive combination of reaction vectors is 0."""
    return _positive_point(list(map(list, zip(*reaction_vectors(net)))), len(net.reactions))


def is_conservative(net: Network) -> ConeCertificate:
    """Whether a strictly positive vector is orthogonal to every reaction."""
    return _positive_point(reaction_vectors(net), len(net.species))


def _reaction_indices(net: Network, chosen: Iterable[Reaction | str]) -> list[int]:
    items = list(chosen)
    if not items:
        raise ValueError("mandatory reaction set must be non-empty")
    if all(isinstance(item, str) for item in items):
        return net.indices_of_labels(items)  # type: ignore[arg-type]
    by_arrow = {rxn.arrow: i for i, rxn in enumerate(net.reactions)}
    indices = set()
    for item in items:
        if not isinstance(item, Reaction):
            raise TypeError("mandatory set must hold labels or reactions")
        if item.arrow not in by_arrow:
            raise ValueError(f"reaction not in network: {item}")
        indices.add(by_arrow[item.arrow])
    return sorted(indices)


def m3cr(
    net: Network,
    mandatory: Iterable[Reaction | str],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> M3crReport:
    """Grow a maximal concordant container of the mandatory reactions.

    Reactions are tried in the parent's order and kept when the container
    stays concordant. Maximality is then verified by re-adding each excluded
    reaction, and a second pass in reverse candidate order flags whether the
    construction is order-dependent. Unknown verdicts (budget exhaustion)
    leave the excluded reaction out and clear maximality_verified.

    Each reaction set is searched once per call, however often the passes
    meet it; ``search_nodes`` still adds a verdict's nodes at every use. The
    searches share one ``_Parent``: one elimination, one alpha side split
    into blocks once, and one store of blocks and their circuits. A pass
    only searches ``kept + [cand]``, so each set's left nullspace is grown
    from that of ``kept`` by one step, and each pass starts again from the
    mandatory set's. A candidate that adds no species and no rank leaves it
    as it is, and its search reuses the sigma blocks of ``kept``. No search
    builds a witness, so none solves an LP unless a block is over the
    circuit bound. The store keeps every block until the call returns: a
    traced peak of 0.09 MB on ``m3cr(maclean, shared with fal)`` (12,654
    nodes).
    """
    _check_budget(node_budget)
    parent = _Parent(net)
    verdicts: dict[tuple[int, ...], ConcordanceVerdict] = {}

    def verdict_of(indices: list[int], basis: _Basis) -> ConcordanceVerdict:
        key = tuple(sorted(indices))
        if key not in verdicts:
            verdicts[key] = parent.search(key, basis, node_budget).run(witness=False)
        return verdicts[key]

    base = sorted(set(_reaction_indices(net, mandatory)))
    base_basis = parent.basis(base)
    base_verdict = verdict_of(base, base_basis)
    if base_verdict.status == "Discordant":
        raise ValueError("mandatory reaction set generates a discordant subnetwork")
    if base_verdict.status == "Unknown":
        raise UnverifiedMandatorySet(
            "could not verify mandatory-set concordance within the node budget"
        )
    total_nodes = base_verdict.search_nodes
    in_base = set(base)
    candidates = [i for i in range(len(net.reactions)) if i not in in_base]

    def grow(order: list[int]) -> tuple[list[int], list[int], bool]:
        """Add candidates while concordant, re-trying rejects to a fixed point.

        Rejection is not final: a reaction discordant against an early partial
        container can be concordant against the grown one (discordance does
        not lift to supersets when the species set grows), so passes repeat
        until nothing more fits. In the terminal pass every leftover was
        checked against the final container, which is the maximality proof.
        """
        nonlocal total_nodes
        kept, basis = list(base), base_basis
        pending = list(order)
        while True:
            leftovers: list[int] = []
            hit_budget = False
            for cand in pending:
                grown = parent.grow(basis, cand)
                verdict = verdict_of(kept + [cand], grown)
                total_nodes += verdict.search_nodes
                if verdict.status == "Concordant":
                    kept.append(cand)
                    basis = grown
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
