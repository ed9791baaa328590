"""Tests for the network data model, .crn text format, and matrix builders."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnkit import fixtures
from crnkit.core import (
    Complex,
    CrnParseError,
    Network,
    Reaction,
    build_matrices,
    common_reactions,
    parse_network,
    reaction_vectors,
    serialize_network,
    subnetwork,
    subnetwork_by_labels,
)
from netgen import networks

MULTISPECIES_TEXT = """\
2 X1 -> X3 @ R1
X2 + X3 -> X3 @ R2
X3 -> X2 + X3 @ R3
3 X4 -> X2 + X3 @ R4
2 X1 -> 3 X4 @ R5
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_single_reaction_with_coefficients():
    net = parse_network("2 X1 + X2 -> X3")
    assert len(net.reactions) == 1
    rxn = net.reactions[0]
    assert rxn.reactant == Complex({"X1": 2, "X2": 1})
    assert rxn.product == Complex({"X3": 1})
    assert rxn.label is None
    assert net.species == ("X1", "X2", "X3")


def test_parse_reversible_expands_forward_first():
    net = parse_network("A4 <-> 0")
    assert len(net.reactions) == 2
    assert net.reactions[0].reactant == Complex({"A4": 1})
    assert net.reactions[0].product == Complex()
    assert net.reactions[1].reactant == Complex()
    assert net.reactions[1].product == Complex({"A4": 1})


def test_parse_label():
    net = parse_network("A1 -> A2 @ R14")
    assert net.reactions[0].label == "R14"


def test_parse_coefficient_without_space():
    net = parse_network("2X1 -> X2")
    assert net.reactions[0].reactant == Complex({"X1": 2})


def test_parse_repeated_species_terms_accumulate():
    net = parse_network("X1 + X1 -> X2")
    assert net.reactions[0].reactant == Complex({"X1": 2})


def test_parse_trivial_reaction_rejected():
    with pytest.raises(CrnParseError) as info:
        parse_network("X -> X")
    assert info.value.line == 1
    with pytest.raises(CrnParseError):
        parse_network("0 -> 0")


def test_parse_duplicate_reaction_rejected_with_line():
    with pytest.raises(CrnParseError) as info:
        parse_network("A -> B\nA -> B")
    assert info.value.line == 2


def test_parse_duplicate_label_rejected_with_line():
    with pytest.raises(CrnParseError, match="duplicate reaction label 'x'") as info:
        parse_network("A -> B @x\nB -> C @x\n")
    assert info.value.line == 2


def test_parse_comments_and_blanks_keep_line_numbers():
    with pytest.raises(CrnParseError) as info:
        parse_network("# header\n\nA -> %\n")
    assert info.value.line == 3


@pytest.mark.parametrize(
    "bad",
    ["2 -> X", "X + -> Y", "0 X1 -> Y", "X = Y", "A -> B @ ", "A -> B @ R1 R2"],
)
def test_parse_rejects_malformed_lines(bad):
    with pytest.raises(CrnParseError):
        parse_network(bad)


def test_parse_zero_token_only_stands_alone():
    with pytest.raises(CrnParseError):
        parse_network("0 + X1 -> X2")


# ---------------------------------------------------------------------------
# data model validation
# ---------------------------------------------------------------------------


def test_complex_validation():
    with pytest.raises(ValueError):
        Complex({"X1": 0})
    with pytest.raises(ValueError):
        Complex({"1X": 1})
    # a bool is an int to isinstance, and True would print as a coefficient of 1
    for coeff in (True, False, 1.0, 2.5):
        with pytest.raises(ValueError, match="must be a positive integer"):
            Complex({"X1": coeff})
    assert not Complex().terms
    assert Complex({"X1": 1}).coefficient("X1") == 1
    assert Complex({"X1": 1}).coefficient("X2") == 0


def test_reaction_equality_ignores_label():
    a, b = Complex({"X": 1}), Complex({"Y": 1})
    assert Reaction(a, b, "R1") == Reaction(a, b, "R9")
    assert len({Reaction(a, b, "R1"), Reaction(a, b, "R9")}) == 1
    with pytest.raises(ValueError):
        Reaction(a, a)


def test_network_rejects_duplicate_labels_and_bad_species_list():
    a, b, c = Complex({"X": 1}), Complex({"Y": 1}), Complex({"Z": 1})
    with pytest.raises(ValueError):
        Network([Reaction(a, b, "R1"), Reaction(b, c, "R1")])
    with pytest.raises(ValueError):
        Network([Reaction(a, b)], species=["X", "Y", "Z"])
    with pytest.raises(ValueError):
        Network([])
    reordered = Network([Reaction(a, b)], species=["Y", "X"])
    assert reordered.species == ("Y", "X")


def test_indices_of_labels():
    net = parse_network("A -> B @ R1\nB -> C @ R2")
    assert net.indices_of_labels(["R2", "R1"]) == [1, 0]
    with pytest.raises(KeyError):
        net.indices_of_labels(["R3"])


# ---------------------------------------------------------------------------
# matrices (hand-frozen case)
# ---------------------------------------------------------------------------


def test_species_order_is_first_appearance():
    net = parse_network(MULTISPECIES_TEXT)
    assert net.species == ("X1", "X3", "X2", "X4")


def test_build_matrices_frozen_case():
    net = parse_network(MULTISPECIES_TEXT)
    mats = build_matrices(net)
    assert [str(c) for c in mats.complexes] == ["2 X1", "X3", "X2 + X3", "3 X4"]
    assert mats.molecularity == [
        [2, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 3],
    ]
    assert mats.incidence == [
        [-1, 0, 0, 0, -1],
        [1, 1, -1, 0, 0],
        [0, -1, 1, 1, 0],
        [0, 0, 0, -1, 1],
    ]
    assert mats.stoichiometric == [
        [-2, 0, 0, 0, -2],
        [1, 0, 0, 1, 0],
        [0, -1, 1, 1, 0],
        [0, 0, 0, -3, 3],
    ]
    assert mats.reactant_matrix == [
        [2, 0, 0, 0, 2],
        [0, 1, 1, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 3, 0],
    ]


def test_build_matrices_trivial_cases():
    inflow = parse_network("0 -> A")
    mats = build_matrices(inflow)
    assert mats.molecularity == [[0, 1]]
    assert mats.stoichiometric == [[1]]

    pair = parse_network("A -> B\nB -> A")
    stoich = build_matrices(pair).stoichiometric
    assert all(row[0] == -row[1] for row in stoich)


@given(networks())
def test_stoichiometric_columns_are_product_minus_reactant(net):
    mats = build_matrices(net)
    vectors = reaction_vectors(net)
    for j, rxn in enumerate(net.reactions):
        for i, name in enumerate(net.species):
            expected = rxn.product.coefficient(name) - rxn.reactant.coefficient(name)
            assert mats.stoichiometric[i][j] == expected
            assert vectors[j][i] == expected


@given(networks())
def test_incidence_columns_have_unit_entries(net):
    mats = build_matrices(net)
    for j in range(len(net.reactions)):
        minus_col = [row[j] for row in mats.incidence_minus]
        plus_col = [row[j] for row in mats.incidence_plus]
        assert sum(minus_col) == 1 and all(x in (0, 1) for x in minus_col)
        assert sum(plus_col) == 1 and all(x in (0, 1) for x in plus_col)


# ---------------------------------------------------------------------------
# serialization round-trip
# ---------------------------------------------------------------------------


def test_serialize_formatting():
    # Terms inside a complex are rendered in network species order.
    net = parse_network("0 -> A4\n2 X1 + A4 -> X1")
    text = serialize_network(net)
    assert text == "0 -> A4\nA4 + 2 X1 -> X1\n"


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_fixture_round_trip(name):
    net = fixtures.load(name)
    assert parse_network(serialize_network(net)) == net


@given(networks())
def test_round_trip_random_networks(net):
    assert parse_network(serialize_network(net)) == net


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def test_fixture_sizes():
    expected = {
        "lee": (15, 22),
        "fal": (15, 23),
        "maclean": (19, 31),
        "schmitz": (11, 17),
        "schmitz-augmented": (11, 20),
        "schmitz-reduced": (11, 18),
    }
    for name, (num_species, num_reactions) in expected.items():
        net = fixtures.load(name)
        assert len(net.species) == num_species, name
        assert len(net.reactions) == num_reactions, name


def test_unknown_fixture():
    with pytest.raises(KeyError):
        fixtures.load("nope")


# ---------------------------------------------------------------------------
# set algebra
# ---------------------------------------------------------------------------


def test_subnetwork_identity_and_errors():
    net = fixtures.load("schmitz")
    assert subnetwork(net, range(len(net.reactions))) == net
    with pytest.raises(ValueError):
        subnetwork(net, [])
    with pytest.raises(ValueError):
        subnetwork(net, [0, 0])
    with pytest.raises(IndexError):
        subnetwork(net, [99])


@pytest.mark.parametrize("name", fixtures.NAMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_subnetwork_is_the_network_of_the_kept_reactions(name, data):
    # built without Network.__init__, it must be what __init__ builds
    net = fixtures.load(name)
    count = len(net.reactions)
    keep = data.draw(st.lists(st.integers(0, count - 1), min_size=1, unique=True), label="keep")
    for chosen in (keep, range(count)):
        sub = subnetwork(net, chosen)
        want = Network([net.reactions[i] for i in sorted(chosen)])
        assert (sub.species, sub.reactions, sub.labels) == (
            want.species, want.reactions, want.labels
        )
        assert sub == want and hash(sub) == hash(want) and repr(sub) == repr(want)


def test_subnetwork_errors_keep_their_messages():
    net = fixtures.load("schmitz")
    with pytest.raises(ValueError) as empty:
        Network([])
    for indices, error, message in (
        ([], ValueError, str(empty.value)),
        ([0, 0], ValueError, "reaction indices must be distinct"),
        ([3, 1, 3], ValueError, "reaction indices must be distinct"),
        ([99], IndexError, "reaction index 99 out of range"),
        ([0, -1], IndexError, "reaction index -1 out of range"),
    ):
        with pytest.raises(error) as raised:
            subnetwork(net, indices)
        assert str(raised.value) == message


def test_subnetwork_restricts_species():
    net = fixtures.load("fal")
    sub = subnetwork_by_labels(net, ["R1", "R4", "R5", "R18", "R19", "R38"])
    assert len(sub.reactions) == 6
    assert set(sub.species) == {"A1", "A4", "A8", "A12", "A13"}


def test_union_builds_augmented_networks():
    # the two schmitz variants are schmitz with reactions added, none of them
    # already in schmitz
    schmitz = {r.arrow for r in fixtures.load("schmitz").reactions}
    for name, added, count in (
        ("schmitz-augmented", "A4 -> 0\n0 -> A10\n0 -> A11", 20),
        ("schmitz-reduced", "A4 -> 0", 18),
    ):
        variant = {r.arrow for r in fixtures.load(name).reactions}
        assert len(variant) == count
        assert variant == schmitz | {r.arrow for r in parse_network(added).reactions}


def test_common_and_difference():
    lee, fal = fixtures.load("lee"), fixtures.load("fal")
    assert len(common_reactions(lee, fal)) == 19
    # the reactions of one model that the other lacks
    for first, second, only in (
        (lee, fal, {"R40", "R41", "R42"}),
        (fal, lee, {"R53", "R54", "R55", "R56"}),
    ):
        common = set(common_reactions(first, second))
        assert {r.label for r in first.reactions if r not in common} == only

    schmitz, maclean = fixtures.load("schmitz"), fixtures.load("maclean")
    assert {r.label for r in common_reactions(schmitz, maclean)} == {
        f"R{i}" for i in range(1, 10)
    }
    assert common_reactions(schmitz, schmitz) == list(schmitz.reactions)

