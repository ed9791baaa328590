"""Independent decompositions of a network's reaction set.

A decomposition partitions the reactions; it is independent when the parent's
stoichiometric subspace is the direct sum of the blocks' subspaces (rank
additivity), and incidence independent when the analogous identity holds for
the incidence maps, n − ℓ = Σ (n_i − ℓ_i). The finest independent
decomposition (FID) is read off the reduced row echelon form of the matrix
whose columns are the reaction vectors: its blocks are the connected
components of the graph that joins the nonzero columns of each row, from the
``structure._row_components`` helper that also splits the LPs of the sign
search in ``concord``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import Network, reaction_vectors, subnetwork
from .linalg import _eliminate, rank
from .structure import NetworkNumbers, _row_components, network_numbers


@dataclass(frozen=True)
class Decomposition:
    """A partition of the parent's reaction indices into canonical blocks.

    Blocks are sorted internally and ordered by smallest member, so equal
    partitions compare equal regardless of construction order.
    """

    parent: Network
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        count = len(self.parent.reactions)
        flat = [index for block in self.blocks for index in block]
        if not self.blocks or any(not block for block in self.blocks):
            raise ValueError("blocks must be non-empty")
        if sorted(flat) != list(range(count)):
            raise ValueError("blocks must partition the reaction indices")
        canonical = tuple(tuple(sorted(block)) for block in self.blocks)
        if canonical != self.blocks or list(self.blocks) != sorted(self.blocks):
            raise ValueError("blocks must be sorted and ordered by smallest member")

    @classmethod
    def from_blocks(cls, parent: Network, blocks: Iterable[Iterable[int]]) -> Decomposition:
        """Canonicalize and validate arbitrary block input."""
        canonical = sorted(tuple(sorted(set(block))) for block in blocks)
        return cls(parent, tuple(canonical))

    def block_networks(self) -> list[Network]:
        return [subnetwork(self.parent, block) for block in self.blocks]

    def label_sets(self) -> list[set[str]]:
        """Blocks as sets of reaction labels (falling back to index strings)."""
        out = []
        for block in self.blocks:
            names = set()
            for index in block:
                label = self.parent.reactions[index].label
                names.add(label if label is not None else f"#{index}")
            out.append(names)
        return out


def is_independent(decomposition: Decomposition) -> bool:
    """True iff parent rank equals the sum of block ranks."""
    vectors = reaction_vectors(decomposition.parent)
    block_sum = sum(rank([vectors[i] for i in block]) for block in decomposition.blocks)
    return block_sum == rank(vectors)


def is_incidence_independent(decomposition: Decomposition) -> bool:
    """True iff n − ℓ of the parent equals the sum over blocks of n_i − ℓ_i."""
    parent = network_numbers(decomposition.parent)
    total = sum(
        numbers.complexes - numbers.linkage_classes
        for numbers in map(network_numbers, decomposition.block_networks())
    )
    return parent.complexes - parent.linkage_classes == total


def fid(net: Network) -> Decomposition:
    """The finest independent decomposition of the network.

    Greedily selects a maximal independent set of reaction vectors in
    reaction order, expands every remaining vector in that basis, links each
    dependent reaction to the basis reactions it loads on, and returns the
    connected components. The partition is independent and does not depend on
    the scan order.

    One elimination does all of it: in the reduced row echelon form of the
    matrix whose columns are the reaction vectors, the pivot columns are the
    greedy basis, and row ``k`` is nonzero at its pivot and where a reaction
    loads on the ``k``-th basis reaction (the load times the row's pivot, in
    the coprime integer rows of ``_eliminate``), so joining the nonzero
    columns of each row links them.
    """
    vectors = reaction_vectors(net)
    reduced, _ = _eliminate(list(zip(*vectors)))
    supports = (sum(1 << j for j, entry in enumerate(row) if entry) for row in reduced)
    blocks = _row_components(supports, len(vectors))
    return Decomposition(net, tuple(tuple(block) for block in blocks))


@dataclass(frozen=True)
class DecompositionNumbers:
    """Counting profiles for a decomposition: the parent, then each block."""

    parent: NetworkNumbers
    blocks: tuple[NetworkNumbers, ...]


def decomposition_numbers(decomposition: Decomposition) -> DecompositionNumbers:
    """Network numbers of the parent and of every block subnetwork."""
    return DecompositionNumbers(
        parent=network_numbers(decomposition.parent),
        blocks=tuple(network_numbers(block) for block in decomposition.block_networks()),
    )
