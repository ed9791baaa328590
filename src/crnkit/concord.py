"""Concordance certificates, cone properties, and concordant containers.

A discordance witness is a pair (alpha, sigma): alpha in the kernel of the
stoichiometric matrix and sigma a nonzero vector of its image whose signs are
compatible — a reaction with alpha_r != 0 must have a reactant species whose
sigma-sign equals alpha_r's sign, and a reaction with alpha_r = 0 must have a
reactant support on which sigma is all zero or carries both signs. A network
is concordant when no witness exists.

The decision procedure is a complete branch-and-prune search over sigma sign
patterns, assigned species by species (most-shared reactant species first,
first nonzero sign pinned to + since witnesses negate jointly). Each partial
pattern is pruned by two exact rational LPs: realizability of the signs
inside Im(N), and feasibility of the alpha-signs already forced by completed
reactant supports (a pure-signed support forces alpha_r to that sign, an
all-zero support forces alpha_r = 0, a mixed support leaves it free — so the
inner problem is a single LP rather than a second sign search). Strict
inequalities are encoded as >= 1, which loses nothing because both
constraint cones are invariant under positive scaling. The search is
budgeted; verdicts are Concordant, Discordant (with a witness), or Unknown
when the node budget runs out.

The LP rows are coprime integer vectors off two integer eliminations: the
reduced row echelon form of N is the row basis, and its pivot columns,
which span the image of N, give the basis of its left nullspace, as the
nullspace of those reactions' vectors alone. A partial
pattern is three species masks (the signs assigned +, - and 0), passed down
the recursion as one immutable value. The alpha-signs it forces take three
mask operations per node: the masks of the reactions with a reactant
signed + and with one signed - go down the recursion too, and a reaction
is decided once the species still to be signed hold none of its reactants.
The masks of a pattern go down to the LP as they are, and the LP answers
with a masked point or a certificate: the feasible point carried down the
tree is stored with the bitmasks of its positive and negative coordinates
(the rest are zero), so whether it fits a child's pattern is three mask
tests too. A point is kept as its blocks' parts (below), each integer
numerators over one positive denominator; the search builds ``Fraction``s
in one place only, ``_assemble``, when it returns a witness or a cone
certificate.

Each side splits its rows once into independent blocks: the connected
components of the graph that joins the coordinates sharing a row, from
``structure._row_components``. The cone is the direct sum of the blocks'
cones, so a pattern is feasible exactly when each block's part of it is.
The alpha rows are the reduced row echelon form of N, as in ``decomp.fid``,
so the blocks are those of the finest independent decomposition. On the
sigma side they are the groups of species that share conservation laws,
and a species in no conservation law takes its sign with no LP. An LP is
solved block by block, once per block sub-pattern in a search (these are
the only points a side keeps); a block whose sub-pattern wants no sign has
the point 0. In a block-diagonal tableau a pivot touches only its own
block's rows and reduced costs, so under Bland's rule each block pivots as
it would alone, and the point is that of the whole LP.

Most blocks of the finest independent decomposition have rank 1, so most
block LPs have one row, and Bland's rule settles such an LP in its first
pivot: the artificial variable starts basic, the first column that can
carry the right-hand side enters, and then no reduced cost is negative.
``_first_pivot`` answers it in closed form with that pivot's point, scaled
by the pivot entry's absolute value to stay integer, or with the row
itself as the Farkas certificate when no column can enter. Only blocks of
two or more rows reach ``lp_feasible``, which takes their integer rows and
returns its point as integer numerators over one positive denominator; the
block's part is read straight off them, with no ``Fraction``.

An infeasible LP leaves a Farkas certificate instead: ``lp_feasible`` hands
back its phase-1 duals ``y``, and ``w = -yᵀ rows`` is an integer vector of
the row space that is >= 0 where the pattern wants +, <= 0 where it wants -,
zero where it wants nothing, and nonzero on some signed coordinate. No point
of the cone fits such a pattern, nor any pattern that refines it, since
``w . x`` would be positive. One test, ``_refuted``, says whether the masks
``(wpos, wneg)`` of such a ``w`` refute a pattern: it accepts each fresh
certificate against its own pattern, and the search keeps the newest 64
per side and answers a pattern a pooled certificate refutes without an LP,
just as a conforming carried point answers a feasible one. Each row ``w``
of an LP, and ``-w``, lies in the row space too, so the masks of every row
and its negation are kept as certificates from the start and never
evicted; they refute most infeasible patterns before any LP is solved.
Verdicts, witnesses and node counts are those of the search without
certificates; only the number of LPs falls.

Every sign-pattern question goes to a ``_Side``, which answers one that
wants no sign with the origin itself. ``is_positive_dependent`` and
``is_conservative`` ask a side of their own, so they have the search's row
certificates and block split. A side builds them the first time a pattern
gets past the carried point, so a search that ends before that builds
neither; in ``m3cr(toy-a, shared with toy-b)`` 9 of the 14 sides are never
built. Every search is built by a ``_Parent``, which row-reduces its
network once: ``check_concordance`` searches the network itself
(``_Parent.whole``), on the parent's arrays as they are. ``m3cr``
searches many reaction sets of one parent, and consecutive sets differ by
one reaction, so one call sets up once. A set's species, reaction vectors
and reactant masks are the parent's cut to its reactions, with no
subnetwork built, and its alpha rows are ``_eliminate`` of the parent's
RREF rows cut to them: the set's row space is the parent's projected onto
its reactions, and the primitive RREF depends only on the row space, so
these are the rows the subnetwork gives. A parent's searches take their
blocks from one store keyed by a block's coordinates and rows. A block's
answers depend on nothing else, so sharing them changes no verdict or
node count, only how many LPs are solved; in ``check_concordance`` the
store serves the two sides of its one search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Sequence

from .core import Network, Reaction, reaction_vectors, subnetwork
from .linalg import _eliminate, _integer_nullspace, lp_feasible, nullspace_basis
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
# The masks (wpos, wneg) of an integer vector w of an LP's row space that
# proves a sign pattern infeasible.
_Certificate = tuple[int, int]


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
    """The exact vector over ``count`` coordinates of the block ``parts``, 0 elsewhere.

    The search's only ``Fraction``s are built here, when a witness or a cone
    certificate is returned.
    """
    vector = [_ZERO] * count
    for coords, nums, denom, _, _ in parts:
        for j, num in zip(coords, nums):
            vector[j] = Fraction(num, denom)
    return tuple(vector)


def _signed_point(
    rows: Sequence[Sequence[int]], coords: Sequence[int], masks: _Masks
) -> _Part | _Certificate:
    """Exact feasible point of {rows . x = 0} over the coordinates ``coords``.

    Entry k of each row, and of the point, belongs to coordinate ``coords[k]``;
    the masks are over coordinates, and lie within ``coords``. ``masks`` is
    ``(plus, minus, zero)``: x_j >= 1 where ``plus`` has bit j, x_j <= -1
    where ``minus`` has it, x_j = 0 where ``zero`` has it, and x_j
    unconstrained elsewhere. A pattern that wants no sign has b = 0, so its
    point is 0 with no LP, and one row is answered by ``_first_pivot`` with
    no LP either. The point comes back as a ``_Part``, integers over one
    denominator: that of the pivot, or of ``lp_feasible``'s point, whose
    numerators ``u`` are added to the signs as they are. When there is no
    such point, returns a certificate ``(wpos, wneg)``: the masks of the
    positive and negative coordinates of ``w = -yᵀ rows`` for the Farkas
    vector ``y`` of the LP, an integer vector of the row space that is
    checked with ``_refuted`` to refute ``masks`` before it is returned.
    """
    plus, minus, zero = masks
    signs = [1 if plus >> j & 1 else -1 if minus >> j & 1 else 0 for j in coords]
    if not rows or not plus | minus | zero:
        return coords, signs, 1, plus, minus
    if len(rows) == 1:
        answer = _first_pivot(rows[0], coords, masks, signs)
    else:
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
        b_eq = [-sum(line) for line in a_eq]
        farkas: list[int] = []
        solution = lp_feasible(a_eq, b_eq, farkas=farkas)
        if solution is None:
            w = [-sum(y * row[k] for y, row in zip(farkas, rows)) for k in range(len(coords))]
            answer = _sign_masks(coords, w)
        else:
            u, denom = solution
            nums = [sign * denom for sign in signs]
            for (k, direction), value in zip(variables, u):
                nums[k] += direction * value
            answer = (coords, nums, denom, *_sign_masks(coords, nums))
    if len(answer) == 2 and not _refuted([answer], masks):
        raise RuntimeError("the phase-1 duals do not refute the sign pattern")
    return answer


def _first_pivot(
    row: Sequence[int], coords: Sequence[int], masks: _Masks, signs: list[int]
) -> _Part | _Certificate:
    """``_signed_point``'s LP for the one row ``row``, in closed form.

    Returns the point ``signs`` (+-1 or 0) moved onto the row, or the
    certificate of ``w = -yᵀ row`` for the Farkas vector ``y`` when the LP is
    infeasible. The LP is ``a . u = b`` with ``b = -row . signs``, and its
    artificial variable starts basic. Bland's rule enters the first column
    with ``s * a > 0``, ``s`` the sign of b, at ``b / a``; after that pivot
    no reduced cost is negative. Either column of entry k moves it by
    ``b / row[k]``, so the point is scaled by ``|row[k]|``. With ``b = 0``
    the point already fits; with no column to enter, ``y = [s]``.
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
    return _sign_masks(coords, [-s * entry for entry in row])


def _refuted(certs: Iterable[_Certificate], masks: _Masks) -> bool:
    """Whether one of ``certs`` proves the pattern ``masks`` infeasible.

    Every x of the cone is orthogonal to w. If w is >= 0 on the coordinates
    wanted positive, <= 0 on those wanted negative, 0 on the free ones, and
    nonzero on one signed coordinate, then w . x > 0 for every x with the
    wanted signs, so none exists. Any more specific pattern is refuted too.
    """
    plus, minus, zero = masks
    plus_zero, minus_zero = plus | zero, minus | zero
    for wpos, wneg in certs:
        if (wpos & plus_zero == wpos and wneg & minus_zero == wneg
                and (wpos & plus or wneg & minus)):
            return True
    return False


def _row_certificates(rows: list[list[int]]) -> list[_Certificate]:
    """The masks of every row ``w`` of an LP and of ``-w``.

    Both lie in the row space, so they refute patterns exactly as a Farkas
    certificate does, with no LP solved to find them. The rows are integers,
    so their signs are read by comparison, not off ``Fraction`` numerators.
    """
    certs = []
    for row in rows:
        wpos, wneg = _sign_masks(range(len(row)), row)
        certs += [(wpos, wneg), (wneg, wpos)]
    return certs


# An independent block of an LP: its coordinates, their mask, its rows over
# those coordinates, and the answers of ``_signed_point`` by sub-pattern.
_Block = tuple[list[int], int, list[list[int]], dict[_Masks, _Part | _Certificate]]
# Blocks shared by the searches of one ``m3cr`` call, keyed by their
# coordinates and rows, which decide every answer a block holds.
_Store = dict[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], _Block]


def _blocks(rows: list[list[int]], supports: list[int], count: int, store: _Store) -> list[_Block]:
    """The independent blocks of {rows . x = 0} over ``count`` coordinates.

    ``supports`` holds the mask of each row's nonzero coordinates. The blocks
    are the connected components of the graph that joins the coordinates of
    each row (``_row_components``), so every row lies in the block of its
    first nonzero coordinate and the LP is their direct sum. A coordinate in
    no row is a block of its own, with no rows. A block that is already in
    ``store`` under its coordinates and rows is returned with the answers it
    holds, and a new one is added to it.
    """
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
        blocks.append(store.setdefault(key, (coords, sum(1 << j for j in coords), cut, {})))
    return blocks


class _Side:
    """The sign-pattern LPs of {rows . x = 0} over ``count`` coordinates.

    The search has one for alpha and one for sigma, and each cone
    certificate asks one of its own. ``point`` takes the masks of a sign
    pattern and answers with a masked point or None: the integer parts of
    its nonzero blocks and its sign masks, which ``_assemble`` turns into a
    vector; a pattern that wants no sign has the origin. A side keeps the
    newest 64 certificates of its LPs, plus ``row_certs``, the certificates
    of its own rows, which are never evicted. It splits its rows into
    independent ``blocks``, taken from ``store``, and solves the LP of a
    pattern block by block, each block's sub-pattern once, so its blocks'
    answers are its only store of points. ``row_certs`` and ``blocks`` are
    None until ``_build`` makes them, when a pattern first gets past the
    carried point.
    """

    __slots__ = ("rows", "count", "store", "certs", "row_certs", "blocks")

    def __init__(self, rows: list[list[int]], count: int, store: _Store) -> None:
        self.rows = rows
        self.count = count
        self.store = store
        self.certs: deque[_Certificate] = deque(maxlen=64)
        self.row_certs: list[_Certificate] | None = None
        self.blocks: list[_Block] | None = None

    def _build(self) -> None:
        self.row_certs = _row_certificates(self.rows)
        # each row's certificate (wpos, wneg) comes first, so its support is wpos | wneg
        supports = [wpos | wneg for wpos, wneg in self.row_certs[::2]]
        self.blocks = _blocks(self.rows, supports, self.count, self.store)

    def point(self, masks: _Masks, carried: _Masked) -> _Masked | None:
        """A point with the signs ``masks`` wants, or None.

        A pattern that wants no sign has the origin, whatever is carried.
        Otherwise the ``carried`` point answers if it conforms, then a row or
        pooled certificate that refutes; only then is the LP solved, block
        by block, and its certificate pooled.
        """
        want_pos, want_neg, want_zero = masks
        if not want_pos | want_neg:
            return _ORIGIN
        _, pos, neg = carried
        if (want_pos & pos == want_pos and want_neg & neg == want_neg
                and not want_zero & (pos | neg)):
            return carried
        if self.row_certs is None:
            self._build()
        if _refuted(self.row_certs, masks) or _refuted(self.certs, masks):
            return None
        solved = self._solve(masks)
        if len(solved) == 2:  # a certificate
            self.certs.append(solved)
            return None
        return solved

    def _solve(self, masks: _Masks) -> _Masked | _Certificate:
        """``_signed_point`` of the whole LP, put together from its blocks.

        A pivot touches only its own block's rows and reduced costs, so under
        Bland's rule each block pivots as it would alone: the point is the
        blocks' points side by side, and the LP is infeasible when a block
        is. The first infeasible block's certificate is zero off the block,
        so it refutes ``masks``. A block whose sub-pattern wants no sign has
        the point 0 and is skipped; the point is the list of the nonzero
        blocks' integer parts with their masks, and no vector is built.
        Only ``point`` calls it, after ``_build``.
        """
        plus, minus, zero = masks
        wanted = plus | minus | zero
        parts = []
        pos = neg = 0
        for coords, mask, rows, solved in self.blocks:
            if not wanted & mask:
                continue
            sub = (plus & mask, minus & mask, zero & mask)
            answer = solved.get(sub)
            if answer is None:
                answer = solved[sub] = _signed_point(rows, coords, sub)
            if len(answer) == 2:  # a certificate
                return answer
            if answer[3] | answer[4]:
                parts.append(answer)
                pos |= answer[3]
                neg |= answer[4]
        return parts, pos, neg


class _BudgetExhausted(Exception):
    pass


class _WitnessSearch:
    """The sign search of one network, built by ``_Parent``.

    A partial sigma pattern is one immutable value, the species masks
    ``(plus, minus, zero)`` of the signs assigned so far, passed down the
    recursion. ``reactant_of`` holds the mask of the reactions each species
    is a reactant of, and ``after[d]`` the reactions with a reactant among
    the species ``order[d:]``, so the reactions a pattern forces (pure +,
    pure -, all zero) follow from three mask operations (``_descend``).

    Each side, ``alpha`` over reactions with the rows of N and ``sigma``
    over species with a basis of its left nullspace, is a ``_Side``: it
    answers a pattern from the point carried down from the parent node, its
    row certificates and its pooled certificates before it solves an LP,
    block by block, with its blocks taken from ``store``.
    """

    def __init__(
        self,
        columns: list[list[int]],
        reactant_of: list[int],
        alpha_rows: list[list[int]],
        pivots: list[int],
        node_budget: int,
        store: _Store,
    ) -> None:
        """The search over the reaction vectors ``columns``, with ``reactant_of``
        the mask of the reactions each species is a reactant of, and the
        primitive RREF rows of N and their pivot columns."""
        self.node_budget = node_budget
        self.nodes = 0
        self.reaction_count = len(columns)
        self.species_count = len(reactant_of)
        self.alpha = _Side(alpha_rows, self.reaction_count, store)
        # the pivot reactions span the image, so their left nullspace is N's
        self.sigma = _Side(
            _integer_nullspace([columns[r] for r in pivots]), self.species_count, store
        )
        self.reactant_of = reactant_of
        self.order = sorted(
            (i for i in range(self.species_count) if reactant_of[i]),
            key=lambda i: (-reactant_of[i].bit_count(), i),
        )
        # after[d]: the reactions with a reactant among order[d:], unsigned at depth d
        self.after = [0] * (len(self.order) + 1)
        for d in reversed(range(len(self.order))):
            self.after[d] = self.after[d + 1] | reactant_of[self.order[d]]
        self.all_reactions = (1 << self.reaction_count) - 1

    # -- search --------------------------------------------------------------

    def _off_support_sigma(self) -> list[Fraction] | None:
        """A nonzero image vector vanishing on every reactant support, or None.

        The first canonical nullspace vector of the sigma rows on the species
        no reaction consumes: with a unit row per reactant added instead, each
        reactant column is a pivot no other column reaches, so it is the same."""
        free = [i for i in range(self.species_count) if not self.reactant_of[i]]
        if not free:
            return None  # every species is a reactant, so no vector is nonzero off them
        # with no left-null rows, every vector is an image vector
        rows = [[row[i] for i in free] for row in self.sigma.rows] or [[0] * len(free)]
        basis = _integer_nullspace(rows)
        if not basis:
            return None
        values = dict(zip(free, basis[0]))
        return [Fraction(values.get(i, 0)) for i in range(self.species_count)]

    def _descend(
        self, depth: int, masks: _Masks, touched: tuple[int, int], alpha: _Masked, sigma: _Masked
    ) -> SignWitness | None:
        """Search below ``masks``; ``touched`` holds the masks of the reactions
        with a reactant signed + and with one signed -. The alpha side weighs
        each child's forced reaction masks, then the sigma side its masks; a
        point carried from here whose signs still conform proves it feasible
        with no LP, since both cones are closed under positive scaling."""
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise _BudgetExhausted
        plus, minus, zero = masks
        if depth == len(self.order):
            if not plus | minus:
                return None
            return SignWitness(
                _assemble(alpha[0], self.reaction_count), _assemble(sigma[0], self.species_count)
            )
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
            alpha_point = self.alpha.point(forced, alpha)
            if alpha_point is None:
                continue
            sigma_point = self.sigma.point(child, sigma)
            if sigma_point is None:
                continue
            witness = self._descend(depth + 1, child, (p, m), alpha_point, sigma_point)
            if witness is not None:
                return witness
        return None

    def run(self) -> ConcordanceVerdict:
        free_sigma = self._off_support_sigma()
        if free_sigma is not None:
            witness = SignWitness((_ZERO,) * self.reaction_count, tuple(free_sigma))
            return ConcordanceVerdict("Discordant", witness, self.nodes)
        try:
            witness = self._descend(0, (0, 0, 0), (0, 0), _ORIGIN, _ORIGIN)
        except _BudgetExhausted:
            return ConcordanceVerdict("Unknown", None, self.nodes)
        if witness is not None:
            return ConcordanceVerdict("Discordant", witness, self.nodes)
        return ConcordanceVerdict("Concordant", None, self.nodes)


class _Parent:
    """What the searches of one network and of its reaction sets share, built once.

    The network's reaction vectors, its primitive RREF rows and their pivot
    columns, and one ``store`` from which all its searches take their blocks.
    ``whole`` builds the search of the network itself, in its own species
    order, from these arrays as they are. ``search`` builds that of
    ``subnetwork(net, key)`` with no subnetwork: the set's species are those
    its reactions name, in order of first appearance, its reaction vectors
    are the parent's cut to them, and its alpha rows are ``_eliminate`` of
    the parent's RREF rows cut to the set's reactions. The set's row space
    is the parent's projected onto those coordinates, and the primitive RREF
    depends only on the row space, so they are the rows the subnetwork's own
    elimination gives. The species of each reaction, and its reactants,
    which only ``search`` reads, are listed by its first call.
    """

    __slots__ = ("net", "columns", "rows", "pivots", "store", "species_of", "reactants")

    def __init__(self, net: Network) -> None:
        self.net = net
        self.columns = reaction_vectors(net)
        reduced, self.pivots = _eliminate(list(zip(*self.columns)))
        self.rows = reduced[: len(self.pivots)]
        self.store: _Store = {}
        self.species_of: list[list[int]] | None = None
        self.reactants: list[list[int]] | None = None

    def whole(self, node_budget: int) -> _WitnessSearch:
        """The search of the network itself."""
        index = {name: i for i, name in enumerate(self.net.species)}
        reactant_of = [0] * len(index)
        for r, rxn in enumerate(self.net.reactions):
            for name, _ in rxn.reactant:
                reactant_of[index[name]] |= 1 << r
        return _WitnessSearch(
            self.columns, reactant_of, self.rows, self.pivots, node_budget, self.store
        )

    def search(self, key: Sequence[int], node_budget: int) -> _WitnessSearch:
        """The search of the reactions ``key``, in increasing order."""
        if self.species_of is None:
            index = {name: i for i, name in enumerate(self.net.species)}
            reactions = self.net.reactions
            # each reaction's species in order of appearance, and its reactants
            self.species_of = [
                [index[name] for side in (rxn.reactant, rxn.product) for name, _ in side]
                for rxn in reactions
            ]
            self.reactants = [[index[name] for name, _ in rxn.reactant] for rxn in reactions]
        local: dict[int, int] = {}
        for r in key:
            for i in self.species_of[r]:
                local.setdefault(i, len(local))
        columns = [[self.columns[r][i] for i in local] for r in key]
        reactant_of = [0] * len(local)
        for k, r in enumerate(key):
            for i in self.reactants[r]:
                reactant_of[local[i]] |= 1 << k
        reduced, pivots = _eliminate([[row[r] for r in key] for row in self.rows])
        return _WitnessSearch(
            columns, reactant_of, reduced[: len(pivots)], pivots, node_budget, self.store
        )


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
    searches of one call share their set-up (``_Parent``): each is built
    from the parent's reaction vectors and RREF rows, with no subnetwork,
    and all take their LP blocks from one store keyed by a block's
    coordinates and rows. A block's answers depend on nothing else, so
    every verdict and node count is that of a search built afresh. The
    store has no bound within a call: it keeps every block of every search,
    with all the answers solved for it, until the call returns. On
    ``m3cr(maclean, shared with fal)`` (12,654 nodes) that is a traced peak
    of 2.1 MB instead of 0.34 MB.
    """
    _check_budget(node_budget)
    parent = _Parent(net)
    verdicts: dict[tuple[int, ...], ConcordanceVerdict] = {}

    def verdict_of(indices: list[int]) -> ConcordanceVerdict:
        key = tuple(sorted(indices))
        if key not in verdicts:
            verdicts[key] = parent.search(key, node_budget).run()
        return verdicts[key]

    base = sorted(set(_reaction_indices(net, mandatory)))
    base_verdict = verdict_of(base)
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
        kept = list(base)
        pending = list(order)
        while True:
            leftovers: list[int] = []
            hit_budget = False
            for cand in pending:
                verdict = verdict_of(kept + [cand])
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
