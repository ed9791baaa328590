"""Network transforms and cross-model comparison.

Species-projection (embedded networks), the common-species embedded-network
comparison (CSEN), the common-reactions (CORE) comparison, and a small
kinetic layer: reactions carrying concrete monomial rate functions, whose
exponents need not be the reactant stoichiometry. A kinetic system takes the
two reaction rewrites that preserve dynamics: shifting a reaction by a
species vector and splitting it across its reaction vector.
``same_dynamics`` decides exactly whether two such systems have the same
right-hand side, by comparing the rational coefficient of each (species,
rate monomial) pair. Rates and right-hand sides at a point come from the
one evaluator in ``kinetics``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Real
from typing import Iterable, Mapping, Sequence

from .core import Complex, Network, Reaction, common_reactions, reaction_vectors
from .decomp import fid
from .kinetics import _check_concentrations, _positive, _rate, _rate_constants, _species_rates
from .linalg import rank
from .structure import network_numbers

SpeciesVector = Mapping[str, int]


def _shift_complex(cpx: Complex, z: SpeciesVector) -> Complex:
    counts = dict(cpx.terms)
    for name, delta in z.items():
        counts[name] = counts.get(name, 0) + delta
    for name, value in list(counts.items()):
        if value < 0:
            raise ValueError(f"shift makes coefficient of {name} negative")
        if value == 0:
            del counts[name]
    return Complex(counts)


def _vector_of(reactant: Complex, product: Complex) -> dict[str, int]:
    counts = {name: -coeff for name, coeff in reactant}
    for name, coeff in product:
        counts[name] = counts.get(name, 0) + coeff
    return {name: value for name, value in counts.items() if value != 0}


def _check_split(
    rxn: RatedReaction, part1: tuple[Complex, Complex], part2: tuple[Complex, Complex]
) -> None:
    total = _vector_of(*part1)
    for name, value in _vector_of(*part2).items():
        total[name] = total.get(name, 0) + value
    total = {name: value for name, value in total.items() if value != 0}
    if total != _vector_of(rxn.reactant, rxn.product):
        raise ValueError("part reaction vectors do not sum to the original")


# ---------------------------------------------------------------------------
# embedded networks
# ---------------------------------------------------------------------------


def restrict_reactions(reactions: Sequence[Reaction], keep: Iterable[str]) -> list[Reaction]:
    """Project reactions onto a species subset.

    Species outside ``keep`` are deleted from both complexes; reactions that
    become trivial are dropped, duplicates collapse to their first occurrence.
    A reaction changed by the projection gets its label suffixed with "E".
    """
    kept = set(keep)
    out: list[Reaction] = []
    seen: set[tuple[Complex, Complex]] = set()
    for rxn in reactions:
        reactant = Complex({n: c for n, c in rxn.reactant if n in kept})
        product = Complex({n: c for n, c in rxn.product if n in kept})
        if reactant == product:
            continue
        changed = reactant != rxn.reactant or product != rxn.product
        if (reactant, product) in seen:
            continue
        seen.add((reactant, product))
        label = rxn.label
        if changed and label is not None:
            label = label + "E"
        out.append(Reaction(reactant, product, label))
    return out


def embedded_network(net: Network, keep: Iterable[str]) -> Network:
    """The embedded network of ``net`` on the species subset ``keep``."""
    kept = set(keep)
    if not kept:
        raise ValueError("keep set must be non-empty")
    unknown = kept - set(net.species)
    if unknown:
        raise ValueError(f"unknown species: {', '.join(sorted(unknown))}")
    restricted = restrict_reactions(net.reactions, kept)
    if not restricted:
        raise ValueError("embedding leaves no reactions")
    return Network(restricted)


# ---------------------------------------------------------------------------
# CSEN: common-species embedded-network comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsenReport:
    """Classification of the two embedded networks' reactions.

    The four classes partition the union of the embedded reaction sets:
    reactions common to the originals, common reactions that only appear
    after embedding, and the reactions unique to each embedded network.
    """

    common_species: tuple[str, ...]
    embedded1: Network
    embedded2: Network
    common_original: tuple[Reaction, ...]
    embedding_derived: tuple[Reaction, ...]
    unique1: tuple[Reaction, ...]
    unique2: tuple[Reaction, ...]


def csen(net1: Network, net2: Network) -> CsenReport:
    """Compare two networks through their common-species embedded networks."""
    species2 = set(net2.species)
    shared = [name for name in net1.species if name in species2]
    if not shared:
        raise ValueError("networks share no species")
    embedded1 = embedded_network(net1, shared)
    embedded2 = embedded_network(net2, shared)
    arrows1 = {rxn.arrow for rxn in embedded1.reactions}
    arrows2 = {rxn.arrow for rxn in embedded2.reactions}
    original_common = {rxn.arrow for rxn in common_reactions(net1, net2)}
    common_original = tuple(
        rxn for rxn in embedded1.reactions if rxn.arrow in original_common
    )
    embedding_derived = tuple(
        rxn
        for rxn in embedded1.reactions
        if rxn.arrow in arrows2 and rxn.arrow not in original_common
    )
    unique1 = tuple(rxn for rxn in embedded1.reactions if rxn.arrow not in arrows2)
    unique2 = tuple(rxn for rxn in embedded2.reactions if rxn.arrow not in arrows1)
    return CsenReport(
        common_species=tuple(shared),
        embedded1=embedded1,
        embedded2=embedded2,
        common_original=common_original,
        embedding_derived=embedding_derived,
        unique1=unique1,
        unique2=unique2,
    )


# ---------------------------------------------------------------------------
# CORE: the subnetwork generated by common reactions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParentCoreView:
    """How the core sits inside one parent's finest independent decomposition."""

    containing_blocks: tuple[frozenset[str], ...]
    union_rank: int
    core_rank: int
    complement_rank: int
    independent_inside_union: bool


@dataclass(frozen=True)
class CoreReport:
    """The common-reactions subnetwork and its placement in both parents."""

    core: Network
    reversible: bool
    deficiency: int
    rank: int
    parent1: ParentCoreView
    parent2: ParentCoreView


def _parent_view(parent: Network, core_arrows: set) -> ParentCoreView:
    decomposition = fid(parent)
    label_sets = decomposition.label_sets()
    containing: list[frozenset[str]] = []
    union_indices: list[int] = []
    for block, labels in zip(decomposition.blocks, label_sets):
        if any(parent.reactions[i].arrow in core_arrows for i in block):
            containing.append(frozenset(labels))
            union_indices.extend(block)
    vectors = reaction_vectors(parent)

    def rank_of(indices: Iterable[int]) -> int:
        return rank([vectors[i] for i in indices])

    core_indices = [i for i in union_indices if parent.reactions[i].arrow in core_arrows]
    complement = [i for i in union_indices if parent.reactions[i].arrow not in core_arrows]
    union_rank = rank_of(union_indices)
    core_rank = rank_of(core_indices)
    complement_rank = rank_of(complement)
    return ParentCoreView(
        containing_blocks=tuple(containing),
        union_rank=union_rank,
        core_rank=core_rank,
        complement_rank=complement_rank,
        independent_inside_union=core_rank + complement_rank == union_rank,
    )


def core(net1: Network, net2: Network) -> CoreReport:
    """Analyze the subnetwork generated by the common reactions of two models."""
    shared = common_reactions(net1, net2)
    if not shared:
        raise ValueError("networks have no common reactions")
    core_net = Network(shared)
    numbers = network_numbers(core_net)
    core_arrows = {rxn.arrow for rxn in shared}
    return CoreReport(
        core=core_net,
        reversible=numbers.irreversible == 0,
        deficiency=numbers.deficiency,
        rank=numbers.rank,
        parent1=_parent_view(net1, core_arrows),
        parent2=_parent_view(net2, core_arrows),
    )


# ---------------------------------------------------------------------------
# kinetic layer: reactions with concrete monomial rates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatedReaction:
    """A reaction with rate ``rate_constant * Π species^exponent``.

    ``exponents`` need not match the reactant stoichiometry; when it does,
    the reaction is mass action.
    """

    reactant: Complex
    product: Complex
    rate_constant: Real
    exponents: Complex
    label: str | None = None

    def __post_init__(self) -> None:
        if self.reactant == self.product:
            raise ValueError("trivial reaction: reactant equals product")
        _positive(self.rate_constant, "rate constant")

    @property
    def is_mass_action(self) -> bool:
        return self.exponents == self.reactant

    def rate(self, x: Mapping[str, Real]) -> Real:
        _check_concentrations((name for name, _ in self.exponents), x)
        return _rate(self.rate_constant, self.exponents, x)


def _species_of(
    reactions: Iterable[RatedReaction], known: Sequence[str] = ()
) -> tuple[str, ...]:
    """``known``, then the species the reactions add, in first-appearance order."""
    ordered = dict.fromkeys(known)
    for rxn in reactions:
        for part in (rxn.reactant, rxn.product, rxn.exponents):
            for name, _ in part:
                ordered.setdefault(name)
    return tuple(ordered)


class KineticSystem:
    """An ordered list of rated reactions; structural duplicates are allowed.

    Duplicates matter: splitting reactions apart can produce several copies
    of the same arrow with different rate functions, which is exactly the
    situation the rewrite algebra has to represent faithfully.
    """

    __slots__ = ("_species", "_reactions")

    def __init__(
        self, reactions: Iterable[RatedReaction], species: Sequence[str] | None = None
    ) -> None:
        rxns = tuple(reactions)
        if not rxns:
            raise ValueError("a kinetic system needs at least one reaction")
        occurring = _species_of(rxns)
        if species is None:
            ordered = occurring
        else:
            ordered = tuple(species)
            if len(set(ordered)) != len(ordered) or not set(occurring) <= set(ordered):
                raise ValueError("species list must cover the occurring species")
        object.__setattr__(self, "_species", ordered)
        object.__setattr__(self, "_reactions", rxns)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("KineticSystem is immutable")

    @property
    def species(self) -> tuple[str, ...]:
        return self._species

    @property
    def reactions(self) -> tuple[RatedReaction, ...]:
        return self._reactions

    @classmethod
    def mass_action(
        cls,
        net: Network,
        rate_constants: Sequence[Real] | Mapping[str, Real],
    ) -> KineticSystem:
        """Attach mass-action kinetics to a network.

        ``rate_constants`` is either one value per reaction in order, or a
        mapping keyed by reaction label. Values keep their number type.
        """
        if isinstance(rate_constants, Mapping):
            values = _rate_constants(net, rate_constants)
        else:
            if len(rate_constants) != len(net.reactions):
                raise ValueError("need exactly one rate constant per reaction")
            values = list(rate_constants)
        rated = [
            RatedReaction(rxn.reactant, rxn.product, k, rxn.reactant, rxn.label)
            for rxn, k in zip(net.reactions, values)
        ]
        return cls(rated, species=net.species)

    def rhs(self, x: Mapping[str, Real]) -> dict[str, Real]:
        """Species production rates at the point ``x``; exact for exact input."""
        reactions = (
            (rxn.rate_constant, rxn.exponents, rxn.reactant, rxn.product)
            for rxn in self._reactions
        )
        return _species_rates(self._species, reactions, x)[0]

    def shift(self, reaction_index: int, z: SpeciesVector) -> KineticSystem:
        """Replace one reaction y→y' with y+z→y'+z (same reaction vector),
        keeping its label and rate function."""
        reactions = list(self._reactions)
        rxn = reactions[reaction_index]
        reactions[reaction_index] = replace(
            rxn, reactant=_shift_complex(rxn.reactant, z), product=_shift_complex(rxn.product, z)
        )
        return KineticSystem(reactions, species=_species_of(reactions, self._species))

    def split(
        self,
        reaction_index: int,
        part1: tuple[Complex, Complex],
        part2: tuple[Complex, Complex],
    ) -> KineticSystem:
        """Replace one reaction by two parts whose reaction vectors sum to its
        own, labelled with the suffixes ``a`` and ``b``; both inherit its rate."""
        index = range(len(self._reactions))[reaction_index]  # for -1, [-1:0] would be empty
        rxn = self._reactions[index]
        _check_split(rxn, part1, part2)
        reactions = list(self._reactions)
        reactions[index : index + 1] = [
            replace(rxn, reactant=r, product=p, label=rxn.label + suffix if rxn.label else None)
            for (r, p), suffix in ((part1, "a"), (part2, "b"))
        ]
        return KineticSystem(reactions, species=_species_of(reactions, self._species))


def _coefficients(system: KineticSystem) -> dict[tuple[str, Complex], Fraction]:
    """The nonzero coefficient of each (species, rate monomial) pair in the
    right-hand side: the sum of ``k * (product - reactant coefficient)``."""
    total: dict[tuple[str, Complex], Fraction] = {}
    for rxn in system.reactions:
        k = Fraction(rxn.rate_constant)
        for name, change in _vector_of(rxn.reactant, rxn.product).items():
            key = (name, rxn.exponents)
            total[key] = total.get(key, 0) + k * change
    return {key: value for key, value in total.items() if value}


def same_dynamics(first: KineticSystem, second: KineticSystem) -> bool:
    """Whether the two systems have the same right-hand side, decided exactly.

    Every rate is a monomial ``k * x^e``, so the right-hand sides are equal
    polynomials exactly when each (species, monomial) pair has the same
    coefficient in both; rate constants are read exactly, as ``Fraction``.
    This is dynamical equivalence by coefficient identity (Craciun and
    Pantea, J. Math. Chem. 44, 2008).
    """
    if set(first.species) != set(second.species):
        raise ValueError("systems live on different species sets")
    return _coefficients(first) == _coefficients(second)
