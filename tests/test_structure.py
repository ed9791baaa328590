"""Tests for whole-network structural invariants."""

from __future__ import annotations

import oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crnkit import fixtures
from crnkit.core import Network, build_matrices, parse_network
from crnkit.linalg import nullspace_basis
from crnkit.structure import (
    deficiency_zero_report,
    kinetic_subspace_coincides,
    linkage_partitions,
    network_numbers,
    structural_flags,
)
from netgen import networks

BRANCHED_TEXT = """\
2 X1 -> X3 @ R1
X2 + X3 -> X3 @ R2
X3 -> X2 + X3 @ R3
3 X4 -> X2 + X3 @ R4
2 X1 -> 3 X4 @ R5
"""


def test_network_numbers_branched_example():
    numbers = network_numbers(parse_network(BRANCHED_TEXT))
    assert numbers.as_tuple() == (4, 4, 4, 1, 3, 5, 1, 3, 1, 3, 4, 0, 0)


def test_linkage_partitions_branched_example():
    net = parse_network(BRANCHED_TEXT)
    linkage, strong, terminal = linkage_partitions(net)
    # Complex indices: 0 = 2 X1, 1 = X3, 2 = X2 + X3, 3 = 3 X4.
    assert linkage == [[0, 1, 2, 3]]
    assert strong == [[0], [1, 2], [3]]
    assert terminal == [[1, 2]]


def test_linkage_partitions_trivial_cases():
    one_way = parse_network("A -> B")
    linkage, strong, terminal = linkage_partitions(one_way)
    assert linkage == [[0, 1]]
    assert strong == [[0], [1]]
    assert terminal == [[1]]

    both_ways = parse_network("A <-> B")
    linkage, strong, terminal = linkage_partitions(both_ways)
    assert strong == [[0, 1]]
    assert terminal == [[0, 1]]

    # A <-> B is a cycle that drains into the terminal cycle C <-> D and into
    # E; F -> G is a second linkage class. Complexes A..G are indices 0..6.
    drained = parse_network("A <-> B\nB -> C\nC <-> D\nB -> E\nF -> G")
    linkage, strong, terminal = linkage_partitions(drained)
    assert linkage == [[0, 1, 2, 3, 4], [5, 6]]
    assert strong == [[0, 1], [2, 3], [4], [5], [6]]
    assert terminal == [[2, 3], [4], [6]]


def _numbers(text: str):
    return network_numbers(parse_network(text))


def test_structural_flags_trivial_cases():
    assert structural_flags(_numbers("A <-> B")).weakly_reversible
    assert not structural_flags(_numbers("A -> B")).branching


def test_kinetic_subspace_trivial_cases():
    assert kinetic_subspace_coincides(_numbers("A -> B\nA -> C")) == "unknown"
    assert kinetic_subspace_coincides(_numbers("A <-> B")) == "yes"


def test_deficiency_zero_report():
    one_way = deficiency_zero_report(_numbers("A -> B"))
    assert one_way.deficiency == 0
    assert not one_way.weakly_reversible
    assert not one_way.applies

    pair = deficiency_zero_report(_numbers("A <-> B"))
    assert pair.applies and pair.reversible

    cycle = deficiency_zero_report(_numbers("A -> B\nB -> C\nC -> A"))
    assert cycle.applies
    assert cycle.weakly_reversible
    assert not cycle.reversible


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(networks())
def test_counting_identities(net):
    numbers = network_numbers(net)
    assert numbers.deficiency >= 0
    assert numbers.reactant_deficiency >= 0
    assert 2 * numbers.reversible_pairs + numbers.irreversible == numbers.reactions
    assert (
        numbers.linkage_classes
        <= numbers.terminal_classes
        <= numbers.strong_classes
        <= numbers.complexes
    )
    assert numbers.rank <= min(numbers.species, numbers.reactions)
    assert numbers.reactant_rank <= min(numbers.species, numbers.reactant_complexes)


@given(networks())
def test_rank_matches_left_nullspace_dimension(net):
    numbers = network_numbers(net)
    stoich = build_matrices(net).stoichiometric
    transpose = [list(col) for col in zip(*stoich)]
    assert numbers.rank == numbers.species - len(nullspace_basis(transpose))


@given(networks(), st.randoms(use_true_random=False))
def test_numbers_invariant_under_reaction_permutation(net, rng):
    reactions = list(net.reactions)
    rng.shuffle(reactions)
    shuffled = Network(reactions)
    assert network_numbers(shuffled) == network_numbers(net)


@given(networks())
def test_linkage_classes_partition_complexes(net):
    mats = build_matrices(net)
    linkage, strong, terminal = linkage_partitions(net)
    for partition in (linkage, strong):
        flat = sorted(index for block in partition for index in block)
        assert flat == list(range(len(mats.complexes)))
    terminal_sets = {tuple(block) for block in terminal}
    assert terminal_sets <= {tuple(block) for block in strong}


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_linkage_partitions_match_the_kosaraju_oracle_on_fixtures(name):
    net = fixtures.load(name)
    assert linkage_partitions(net) == oracles.linkage_partitions(net)


@given(networks(max_species=5, max_reactions=10))
def test_linkage_partitions_match_the_kosaraju_oracle(net):
    # reachability and _components against the depth-first search and the
    # Kosaraju pass they replaced (tests/oracles.py)
    assert linkage_partitions(net) == oracles.linkage_partitions(net)
