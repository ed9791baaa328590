"""Whole-network structural invariants.

Covers the standard counting profile (species, complexes, linkage and strong
linkage classes, ranks, deficiencies), the derived boolean property flags, the
sufficient kinetic-subspace criterion, and the deficiency-zero theorem
applicability report.

Every partition here is a set of connected components from ``_components``;
``_row_components`` gives the blocks of ``decomp.fid`` and ``concord``'s LPs.
Linkage classes are the components of the reaction graph. Strong linkage
classes are defined by mutual reachability: two complexes share one when
each reaches the other. A strong class is terminal when it reaches nothing
outside itself.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Iterable, Literal

from .core import Network, _complexes, reaction_vectors
from .linalg import rank


@dataclass(frozen=True)
class NetworkNumbers:
    """The thirteen counting invariants of a network.

    ``reversible_pairs`` counts unordered pairs {y→y', y'→y} with both
    directions present, so ``2 * reversible_pairs + irreversible == reactions``.
    """

    species: int
    complexes: int
    reactant_complexes: int
    reversible_pairs: int
    irreversible: int
    reactions: int
    linkage_classes: int
    strong_classes: int
    terminal_classes: int
    rank: int
    reactant_rank: int
    deficiency: int
    reactant_deficiency: int

    def as_tuple(self) -> tuple[int, ...]:
        """The profile in conventional reporting order, which is field order."""
        return astuple(self)


@dataclass(frozen=True)
class StructuralFlags:
    """Boolean structure profile; each flag is a pure arithmetic predicate."""

    branching: bool
    closed: bool
    cycle_terminal: bool
    high_reactant_diversity: bool
    maximally_closed: bool
    point_terminal: bool
    t_minimal: bool
    weakly_reversible: bool


@dataclass(frozen=True)
class DeficiencyZeroReport:
    """Whether the deficiency-zero regime (weakly reversible, δ = 0) applies."""

    applies: bool
    reversible: bool
    weakly_reversible: bool
    deficiency: int


def _components(count: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the undirected graph on ``range(count)``.

    Each component is sorted, and components are ordered by smallest member.
    """
    root = list(range(count))

    def find(node: int) -> int:
        while root[node] != node:
            root[node] = root[root[node]]
            node = root[node]
        return node

    for left, right in edges:
        root[find(left)] = find(right)
    components: dict[int, list[int]] = {}
    for node in range(count):
        components.setdefault(find(node), []).append(node)
    return list(components.values())


def _row_components(supports: Iterable[int], count: int) -> list[list[int]]:
    """``_components`` of the graph joining the coordinates of each row.

    Each of ``supports`` is the bit mask of one row's nonzero coordinates.
    """
    edges = []
    for support in supports:
        first = (support & -support).bit_length() - 1
        support &= support - 1
        while support:
            low = support & -support
            edges.append((first, low.bit_length() - 1))
            support ^= low
    return _components(count, edges)


def linkage_partitions(
    net: Network,
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Linkage, strong linkage, and terminal strong linkage classes.

    Classes are lists of complex indices into ``core._complexes(net)``, the
    distinct complexes in first-appearance order along the reactions,
    reactant before product. Each class is sorted, and classes are ordered
    by smallest member.

    Linkage classes are the connected components of the reaction graph with
    its arrows ignored. Two complexes share a strong linkage class when each
    reaches the other along reactions, and a strong class is terminal when it
    reaches nothing outside itself.
    """
    index = {cpx: k for k, cpx in enumerate(_complexes(net))}
    count = len(index)
    arrows = [(index[rxn.reactant], index[rxn.product]) for rxn in net.reactions]
    successors: list[set[int]] = [set() for _ in range(count)]
    for src, dst in arrows:
        successors[src].add(dst)

    # reach[k] holds every complex reachable from complex k, k included.
    reach: list[set[int]] = []
    for start in range(count):
        seen = {start}
        stack = [start]
        while stack:
            for nxt in successors[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach.append(seen)

    mutual = [(src, dst) for src in range(count) for dst in reach[src] if src in reach[dst]]
    linkage = _components(count, arrows)
    strong = _components(count, mutual)
    terminal = [component for component in strong if reach[component[0]] == set(component)]
    return linkage, strong, terminal


def network_numbers(net: Network) -> NetworkNumbers:
    """Compute the full counting profile of a network."""
    arrows = {rxn.arrow for rxn in net.reactions}
    paired = sum(1 for reactant, product in arrows if (product, reactant) in arrows)
    num_reactions = len(net.reactions)
    reactant_complexes = len({rxn.reactant for rxn in net.reactions})
    linkage, strong, terminal = linkage_partitions(net)
    num_complexes = sum(len(component) for component in linkage)
    # A matrix and its transpose have the same rank, so both ranks are taken
    # on integer rows read straight off the reactions, one row per reaction.
    stoich_rank = rank(reaction_vectors(net))
    reactant_rank = rank(
        [[rxn.reactant.coefficient(name) for name in net.species] for rxn in net.reactions]
    )
    return NetworkNumbers(
        species=len(net.species),
        complexes=num_complexes,
        reactant_complexes=reactant_complexes,
        reversible_pairs=paired // 2,
        irreversible=num_reactions - paired,
        reactions=num_reactions,
        linkage_classes=len(linkage),
        strong_classes=len(strong),
        terminal_classes=len(terminal),
        rank=stoich_rank,
        reactant_rank=reactant_rank,
        deficiency=num_complexes - len(linkage) - stoich_rank,
        reactant_deficiency=reactant_complexes - reactant_rank,
    )


def structural_flags(numbers: NetworkNumbers) -> StructuralFlags:
    """The eight boolean structure properties, read off a network's profile."""
    return StructuralFlags(
        branching=numbers.reactant_complexes < numbers.reactions,
        closed=numbers.rank < numbers.species,
        cycle_terminal=numbers.complexes == numbers.reactant_complexes,
        high_reactant_diversity=numbers.reactant_complexes > numbers.rank,
        maximally_closed=numbers.rank == numbers.species - 1,
        point_terminal=numbers.complexes - numbers.reactant_complexes == numbers.terminal_classes,
        t_minimal=numbers.terminal_classes == numbers.linkage_classes,
        weakly_reversible=numbers.strong_classes == numbers.linkage_classes,
    )


def kinetic_subspace_coincides(numbers: NetworkNumbers) -> Literal["yes", "unknown"]:
    """Whether the kinetic and stoichiometric subspaces provably coincide.

    Uses the sufficient criterion that t-minimal networks (terminal strong
    linkage classes = linkage classes) have coinciding subspaces under mass
    action; anything else is reported as unknown, not no.
    """
    return "yes" if numbers.terminal_classes == numbers.linkage_classes else "unknown"


def deficiency_zero_report(numbers: NetworkNumbers) -> DeficiencyZeroReport:
    """Applicability of the deficiency-zero existence/uniqueness regime."""
    weakly_reversible = numbers.strong_classes == numbers.linkage_classes
    return DeficiencyZeroReport(
        applies=numbers.deficiency == 0 and weakly_reversible,
        reversible=numbers.irreversible == 0,
        weakly_reversible=weakly_reversible,
        deficiency=numbers.deficiency,
    )
