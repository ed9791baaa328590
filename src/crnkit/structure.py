"""Whole-network structural invariants.

Covers the standard counting profile (species, complexes, linkage and strong
linkage classes, ranks, deficiencies), the derived boolean property flags, the
sufficient kinetic-subspace criterion, and the deficiency-zero theorem
applicability report.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Iterator, Literal

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


def structural_flags(net: Network) -> StructuralFlags:
    """The eight boolean structure properties derived from the profile."""
    return _flags_of(network_numbers(net))


def _flags_of(numbers: NetworkNumbers) -> StructuralFlags:
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


def kinetic_subspace_coincides(net: Network) -> Literal["yes", "unknown"]:
    """Whether the kinetic and stoichiometric subspaces provably coincide.

    Uses the sufficient criterion that t-minimal networks (terminal strong
    linkage classes = linkage classes) have coinciding subspaces under mass
    action; anything else is reported as unknown, not no.
    """
    return _kinetic_subspace_of(network_numbers(net))


def _kinetic_subspace_of(numbers: NetworkNumbers) -> Literal["yes", "unknown"]:
    return "yes" if numbers.terminal_classes == numbers.linkage_classes else "unknown"


def deficiency_zero_report(net: Network) -> DeficiencyZeroReport:
    """Applicability of the deficiency-zero existence/uniqueness regime."""
    return _deficiency_zero_of(network_numbers(net))


def _deficiency_zero_of(numbers: NetworkNumbers) -> DeficiencyZeroReport:
    weakly_reversible = numbers.strong_classes == numbers.linkage_classes
    return DeficiencyZeroReport(
        applies=numbers.deficiency == 0 and weakly_reversible,
        reversible=numbers.irreversible == 0,
        weakly_reversible=weakly_reversible,
        deficiency=numbers.deficiency,
    )
