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
    fid,
    is_incidence_independent,
    is_independent,
)
from crnkit.structure import linkage_partitions, network_numbers
from netgen import networks


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
    assert len(trivial.blocks) == 1
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


def test_fid_maclean_is_incidence_independent():
    # Hand count: per-block complexes minus connected components sum to
    # 9-3 + 2-1 + 2-1 + 2-1 + 2-1 + 6-2 + 6-2 = 18 = 28 - 10 for the parent.
    assert is_incidence_independent(fid(fixtures.load("maclean")))


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


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_fid_matches_the_per_reaction_expansion_on_fixtures(name):
    net = fixtures.load(name)
    assert fid(net).blocks == oracles.fid(net).blocks
