"""Tests for independence checks and the finest independent decomposition."""

from __future__ import annotations

import oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crnkit import fixtures
from crnkit.core import Network, parse_network, subnetwork_by_labels
from crnkit.decomp import (
    Decomposition,
    decomposition_numbers,
    fid,
    is_incidence_independent,
    is_independent,
)
from crnkit.structure import linkage_partitions, network_numbers
from netgen import networks

SCHMITZ_BLOCKS = [
    {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R10", "R11", "R12", "R13"},
    {"R8", "R9"},
    {"R14", "R15"},
    {"R16", "R17"},
]

FAL_BLOCKS = [
    {"R1", "R4", "R5", "R12", "R38", "R45", "R46"},
    {"R14", "R15"},
    {"R18", "R19"},
    {"R43", "R44"},
    {"R47", "R48"},
    {"R49", "R50"},
    {"R51", "R52"},
    {"R53", "R54", "R55", "R56"},
]

MACLEAN_BLOCKS = [
    {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R36", "R37", "R38", "R39"},
    {"R8", "R9"},
    {"R18", "R19"},
    {"R20", "R21"},
    {"R22", "R23"},
    {"R24", "R25", "R26", "R27", "R28", "R29"},
    {"R30", "R31", "R32", "R33", "R34", "R35"},
]


def as_sorted_sets(label_sets):
    return sorted(frozenset(s) for s in label_sets)


# ---------------------------------------------------------------------------
# Decomposition validation
# ---------------------------------------------------------------------------


def test_decomposition_validation():
    net = parse_network("A -> B\nB -> C\nC -> A")
    with pytest.raises(ValueError):
        Decomposition(net, ((0, 1),))
    with pytest.raises(ValueError):
        Decomposition(net, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Decomposition(net, ((1, 0), (2,)))
    d = Decomposition.from_blocks(net, [[2], [1, 0]])
    assert d.blocks == ((0, 1), (2,))


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------


def test_trivial_decomposition_is_independent():
    net = fixtures.load("schmitz")
    trivial = Decomposition.from_blocks(net, [range(len(net.reactions))])
    assert trivial.trivial
    assert is_independent(trivial)
    assert is_incidence_independent(trivial)


def test_dependent_blocks_detected():
    # Two copies of the same direction split across blocks share their span.
    net = parse_network("A -> B\n2 A -> 2 B\nB -> C")
    split = Decomposition.from_blocks(net, [[0, 2], [1]])
    assert not is_independent(split)


def test_core_complement_split_is_dependent():
    fal = fixtures.load("fal")
    around = subnetwork_by_labels(
        fal, ["R1", "R4", "R5", "R12", "R38", "R45", "R46", "R18", "R19"]
    )
    core_labels = {"R1", "R4", "R5", "R18", "R19", "R38"}
    core_idx = [i for i, r in enumerate(around.reactions) if r.label in core_labels]
    rest_idx = [i for i, r in enumerate(around.reactions) if r.label not in core_labels]
    assert not is_independent(Decomposition.from_blocks(around, [core_idx, rest_idx]))


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_linkage_class_decomposition_is_incidence_independent(name):
    net = fixtures.load(name)
    from crnkit.core import build_matrices

    complexes = build_matrices(net).complexes
    index = {cpx: k for k, cpx in enumerate(complexes)}
    linkage, _, _ = linkage_partitions(net)
    member = {}
    for class_id, block in enumerate(linkage):
        for cpx_index in block:
            member[cpx_index] = class_id
    groups: dict[int, list[int]] = {}
    for j, rxn in enumerate(net.reactions):
        groups.setdefault(member[index[rxn.reactant]], []).append(j)
    decomposition = Decomposition.from_blocks(net, groups.values())
    assert is_incidence_independent(decomposition)


# ---------------------------------------------------------------------------
# FID on the bundled models
# ---------------------------------------------------------------------------


def test_fid_schmitz_blocks():
    got = fid(fixtures.load("schmitz"))
    assert as_sorted_sets(got.label_sets()) == as_sorted_sets(SCHMITZ_BLOCKS)


def test_fid_fal_blocks():
    got = fid(fixtures.load("fal"))
    assert as_sorted_sets(got.label_sets()) == as_sorted_sets(FAL_BLOCKS)


def test_fid_maclean_blocks():
    got = fid(fixtures.load("maclean"))
    assert as_sorted_sets(got.label_sets()) == as_sorted_sets(MACLEAN_BLOCKS)


def test_fid_maclean_is_incidence_independent():
    # Hand count: per-block complexes minus connected components sum to
    # 9-3 + 2-1 + 2-1 + 2-1 + 2-1 + 6-2 + 6-2 = 18 = 28 - 10 for the parent.
    assert is_incidence_independent(fid(fixtures.load("maclean")))


def test_decomposition_numbers_block_profiles():
    fal_numbers = decomposition_numbers(fid(fixtures.load("fal")))
    assert fal_numbers.parent.as_tuple() == (15, 21, 19, 9, 5, 23, 7, 12, 7, 12, 15, 2, 4)
    blocks = {
        frozenset(labels): numbers
        for labels, numbers in zip(fid(fixtures.load("fal")).label_sets(), fal_numbers.blocks)
    }
    assert blocks[frozenset(FAL_BLOCKS[0])].as_tuple() == (5, 7, 6, 2, 3, 7, 2, 5, 2, 4, 5, 1, 1)

    maclean_numbers = decomposition_numbers(fid(fixtures.load("maclean")))
    maclean_blocks = {
        frozenset(labels): numbers
        for labels, numbers in zip(
            fid(fixtures.load("maclean")).label_sets(), maclean_numbers.blocks
        )
    }
    sixth = maclean_blocks[frozenset(MACLEAN_BLOCKS[5])]
    assert sixth.species == 6
    assert sixth.rank == 3
    assert sixth.deficiency == 1

    schmitz_numbers = decomposition_numbers(fid(fixtures.load("schmitz")))
    schmitz_blocks = {
        frozenset(labels): numbers
        for labels, numbers in zip(
            fid(fixtures.load("schmitz")).label_sets(), schmitz_numbers.blocks
        )
    }
    first = schmitz_blocks[frozenset(SCHMITZ_BLOCKS[0])]
    assert first.rank == 6
    assert first.deficiency == 2


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(networks())
def test_fid_is_independent_and_ranks_add(net):
    decomposition = fid(net)
    assert is_independent(decomposition)
    parent = network_numbers(net)
    assert parent.rank == sum(
        network_numbers(block).rank for block in decomposition.block_networks()
    )


@given(networks(), st.randoms(use_true_random=False))
def test_fid_invariant_under_reaction_permutation(net, rng):
    reactions = list(net.reactions)
    rng.shuffle(reactions)
    shuffled = Network(reactions)
    original = {frozenset(s) for s in fid(net).label_sets()}
    permuted = {frozenset(s) for s in fid(shuffled).label_sets()}
    assert original == permuted


@given(networks(max_species=5, max_reactions=7))
def test_fid_matches_the_per_reaction_expansion(net):
    # the blocks read off one elimination are those of expanding every
    # dependent reaction apart with solve_unique (tests/oracles.py)
    assert fid(net).blocks == oracles.fid(net).blocks


@pytest.mark.parametrize("name", fixtures.available())
def test_fid_matches_the_per_reaction_expansion_on_fixtures(name):
    net = fixtures.load(name)
    assert fid(net).blocks == oracles.fid(net).blocks
