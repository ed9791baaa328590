"""Tests for embedded networks, rewrites, CSEN/CORE comparisons, kinetics."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnkit import fixtures
from crnkit.core import Complex, Network, parse_network
from crnkit.transform import (
    KineticSystem,
    RatedReaction,
    core,
    csen,
    embedded_network,
    restrict_reactions,
    same_dynamics,
)

import oracles
from netgen import complexes, networks

LEE = fixtures.load("lee")
FAL = fixtures.load("fal")
SCHMITZ = fixtures.load("schmitz")
MACLEAN = fixtures.load("maclean")
AUGMENTED = fixtures.load("schmitz-augmented")


def arrows(reactions):
    return {rxn.arrow for rxn in reactions}


def labels(reactions):
    return {rxn.label for rxn in reactions}


def cpx(text: str) -> Complex:
    net = parse_network(f"{text} -> ZZZPROBE" if text != "ZZZPROBE" else "0 -> ZZZPROBE")
    return net.reactions[0].reactant


def arrow(reactant: str, product: str):
    return (cpx(reactant), cpx(product))


# ---------------------------------------------------------------------------
# restriction / embedded networks
# ---------------------------------------------------------------------------


def test_restrict_drops_species_and_marks_changed_labels():
    net = parse_network("A + B -> C @R1\nC -> A @R2\n")
    out = restrict_reactions(net.reactions, {"A", "C"})
    assert [(r.label, r.arrow) for r in out] == [
        ("R1E", arrow("A", "C")),
        ("R2", arrow("C", "A")),
    ]


def test_restrict_to_single_species_keeps_flows():
    net = parse_network("A + B -> C @R1\nC -> A @R2\n")
    out = restrict_reactions(net.reactions, {"A"})
    assert [(r.label, r.arrow) for r in out] == [
        ("R1E", arrow("A", "0")),
        ("R2E", arrow("0", "A")),
    ]


def test_restrict_drops_trivial_and_collapses_duplicates():
    net = parse_network("A + B -> A + C @R1\nA + B -> D @R2\nA + C -> D @R3\n")
    out = restrict_reactions(net.reactions, {"A", "D"})
    assert [(r.label, r.arrow) for r in out] == [("R2E", arrow("A", "D"))]


def test_embedded_network_validates_input():
    net = parse_network("A -> B\n")
    with pytest.raises(ValueError):
        embedded_network(net, [])
    with pytest.raises(ValueError):
        embedded_network(net, ["A", "Z"])
    twin = parse_network("A + B -> A + C\n")
    with pytest.raises(ValueError):
        embedded_network(twin, ["A"])  # every reaction restricts to 0 -> 0


def test_embedded_identity_on_full_species_set():
    assert embedded_network(SCHMITZ, SCHMITZ.species) == SCHMITZ


def test_schmitz_embedded_on_shared_maclean_species():
    shared = [s for s in SCHMITZ.species if s in set(MACLEAN.species)]
    assert sorted(shared) == [f"A{i}" for i in range(1, 10)]
    emb = embedded_network(SCHMITZ, shared)
    assert len(emb.reactions) == 15
    by_label = {r.label: r for r in emb.reactions}
    assert by_label["R10E"].arrow == arrow("A8", "A1")
    assert by_label["R11E"].arrow == arrow("A9", "A3")
    unchanged = {f"R{i}" for i in range(1, 10)} | {"R14", "R15", "R16", "R17"}
    assert set(by_label) == unchanged | {"R10E", "R11E"}


def test_maclean_embedded_on_shared_schmitz_species():
    shared = [s for s in MACLEAN.species if s in set(SCHMITZ.species)]
    emb = embedded_network(MACLEAN, shared)
    assert len(emb.reactions) == 19
    by_label = {r.label: r for r in emb.reactions}
    assert by_label["R22E"].arrow == arrow("A2", "0")
    assert by_label["R23E"].arrow == arrow("0", "A2")
    assert by_label["R24E"].arrow == arrow("A3", "0")
    assert by_label["R25E"].arrow == arrow("0", "A3")
    assert by_label["R30E"].arrow == arrow("A1", "0")
    assert by_label["R31E"].arrow == arrow("0", "A1")
    assert by_label["R36"].arrow == arrow("A8", "A1")
    assert by_label["R38"].arrow == arrow("A4", "0")


# ---------------------------------------------------------------------------
# CSEN comparisons
# ---------------------------------------------------------------------------


def test_csen_requires_shared_species():
    with pytest.raises(ValueError):
        csen(parse_network("A -> B\n"), parse_network("C -> D\n"))


def test_csen_lee_fal():
    report = csen(LEE, FAL)
    assert len(report.common_species) == 14
    assert set(report.common_species) == set(LEE.species) - {"A22"}
    assert set(report.common_species) == set(FAL.species) - {"A28"}
    assert len(report.embedded1.reactions) == 22
    assert len(report.embedded2.reactions) == 23
    assert len(report.common_original) == 19
    assert labels(report.embedding_derived) == {"R41E", "R42E"}
    assert arrows(report.embedding_derived) == {arrow("A23", "A2"), arrow("A2", "A23")}
    assert labels(report.unique1) == {"R40E"}
    assert arrows(report.unique1) == {arrow("A13 + A2", "A13 + A23")}
    assert labels(report.unique2) == {"R53E", "R56E"}
    assert arrows(report.unique2) == {arrow("A13 + A2", "0"), arrow("0", "A13 + A23")}


def test_csen_schmitz_maclean():
    report = csen(SCHMITZ, MACLEAN)
    assert sorted(report.common_species) == [f"A{i}" for i in range(1, 10)]
    assert len(report.embedded1.reactions) == 15
    assert len(report.embedded2.reactions) == 19
    assert labels(report.common_original) == {f"R{i}" for i in range(1, 10)}
    assert arrows(report.embedding_derived) == {arrow("A8", "A1"), arrow("A9", "A3")}
    assert labels(report.embedding_derived) == {"R10E", "R11E"}
    assert arrows(report.unique1) == {
        arrow("A1", "A2"),
        arrow("A2", "A1"),
        arrow("A1", "A3"),
        arrow("A3", "A1"),
    }
    assert arrows(report.unique2) == {
        arrow("A4", "0"),
        arrow("A5", "0"),
        arrow("A2", "0"),
        arrow("0", "A2"),
        arrow("A3", "0"),
        arrow("0", "A3"),
        arrow("A1", "0"),
        arrow("0", "A1"),
    }


def test_csen_fal_maclean():
    report = csen(FAL, MACLEAN)
    assert set(report.common_species) == {"A1", "A2", "A4", "A6", "A7", "A8", "A12", "A13"}
    assert len(report.embedded1.reactions) == 16
    assert labels(report.common_original) == {"R1", "R4", "R5", "R18", "R19", "R38"}
    assert arrows(report.embedding_derived) == {
        arrow("0", "A1"),
        arrow("A2", "0"),
        arrow("0", "A2"),
        arrow("0", "A13"),
    }
    assert arrows(report.unique1) == {
        arrow("A1", "A2"),
        arrow("A2", "A1"),
        arrow("A8", "0"),
        arrow("A4 + A6", "A7"),
        arrow("A7", "A4 + A6"),
        arrow("A13 + A2", "0"),
    }
    assert arrows(report.unique2) == {
        arrow("A6", "A7"),
        arrow("A7", "A6"),
        arrow("A13", "0"),
        arrow("A13 + A1", "0"),
        arrow("0", "A13 + A1"),
        arrow("0", "A13 + A2"),
        arrow("A8", "A1"),
    }


def test_csen_classes_partition_the_embedded_union():
    for first, second in [(LEE, FAL), (SCHMITZ, MACLEAN), (FAL, MACLEAN)]:
        report = csen(first, second)
        classes = [
            arrows(report.common_original),
            arrows(report.embedding_derived),
            arrows(report.unique1),
            arrows(report.unique2),
        ]
        union = arrows(report.embedded1.reactions) | arrows(report.embedded2.reactions)
        assert set.union(*classes) == union
        assert sum(len(c) for c in classes) == len(union)


# ---------------------------------------------------------------------------
# CORE comparisons
# ---------------------------------------------------------------------------


def test_core_requires_common_reactions():
    with pytest.raises(ValueError):
        core(parse_network("A -> B\n"), parse_network("A -> 2 B\n"))


def test_core_fal_maclean():
    report = core(FAL, MACLEAN)
    assert labels(report.core.reactions) == {"R1", "R4", "R5", "R18", "R19", "R38"}
    assert report.rank == 3
    assert report.reversible
    assert report.deficiency == 0

    fal_view = report.parent1
    assert {frozenset(b) for b in fal_view.containing_blocks} == {
        frozenset({"R1", "R4", "R5", "R12", "R38", "R45", "R46"}),
        frozenset({"R18", "R19"}),
    }
    assert (fal_view.union_rank, fal_view.core_rank, fal_view.complement_rank) == (5, 3, 3)
    assert not fal_view.independent_inside_union

    mac_view = report.parent2
    assert {frozenset(b) for b in mac_view.containing_blocks} == {
        frozenset({f"R{i}" for i in range(1, 8)} | {"R36", "R37", "R38", "R39"}),
        frozenset({"R18", "R19"}),
    }
    assert (mac_view.union_rank, mac_view.core_rank, mac_view.complement_rank) == (5, 3, 4)
    assert not mac_view.independent_inside_union


def test_core_augmented_schmitz_maclean():
    report = core(AUGMENTED, MACLEAN)
    assert labels(report.core.reactions) == {f"R{i}" for i in range(1, 10)} | {"R38"}
    assert report.rank == 5
    assert report.reversible
    assert report.deficiency == 0
    mac_view = report.parent2
    assert {frozenset(b) for b in mac_view.containing_blocks} == {
        frozenset({f"R{i}" for i in range(1, 8)} | {"R36", "R37", "R38", "R39"}),
        frozenset({"R8", "R9"}),
    }
    # the common reactions already span the whole containing union
    assert mac_view.union_rank == mac_view.core_rank == 5
    assert mac_view.complement_rank == 3
    assert not mac_view.independent_inside_union


# ---------------------------------------------------------------------------
# kinetic systems
# ---------------------------------------------------------------------------


def _mass_action(net: Network) -> KineticSystem:
    return KineticSystem.mass_action(
        net, [Fraction(i + 2, 2 * i + 1) for i in range(len(net.reactions))]
    )


def test_mass_action_rate_constants_by_label():
    net = parse_network("A -> B @R1\nB -> A @R2\n")
    system = KineticSystem.mass_action(net, {"R1": 2, "R2": Fraction(1, 3)})
    assert [r.rate_constant for r in system.reactions] == [Fraction(2), Fraction(1, 3)]
    with pytest.raises(ValueError):
        KineticSystem.mass_action(net, {"R1": 2})
    with pytest.raises(ValueError):
        KineticSystem.mass_action(net, {"R1": 2, "R2": 1, "R9": 1})
    with pytest.raises(ValueError):
        KineticSystem.mass_action(net, [1])


def test_rated_reaction_validation():
    a, b = cpx("A"), cpx("B")
    with pytest.raises(ValueError):
        RatedReaction(a, a, Fraction(1), a)
    with pytest.raises(ValueError):
        RatedReaction(a, b, Fraction(0), a)


def test_rhs_matches_hand_computed_polynomials():
    net = parse_network("2 A -> B @R1\nB -> A @R2\n")
    system = KineticSystem.mass_action(net, [3, Fraction(1, 2)])
    x = {"A": Fraction(1, 2), "B": Fraction(4)}
    # rates: 3 * (1/2)^2 = 3/4 and (1/2) * 4 = 2
    assert system.rhs(x) == {"A": Fraction(-3, 2) + 2, "B": Fraction(3, 4) - 2}


def test_non_mass_action_rate_uses_its_own_exponents():
    rxn = RatedReaction(cpx("2 A"), cpx("A"), Fraction(5), cpx("A"))
    assert not rxn.is_mass_action
    assert rxn.rate({"A": Fraction(1, 3)}) == Fraction(5, 3)
    system = KineticSystem([rxn])
    assert system.rhs({"A": Fraction(1, 3)}) == {"A": -Fraction(5, 3)}


def _vector(rxn):
    """The reaction vector of a rated reaction, as its nonzero entries."""
    names = set(rxn.reactant.species + rxn.product.species)
    changes = ((n, rxn.product.coefficient(n) - rxn.reactant.coefficient(n)) for n in names)
    return {name: change for name, change in changes if change}


def test_shift_adds_species_vector_to_both_sides():
    system = _mass_action(parse_network("A -> B @R1\nB -> A @R2\n"))
    rxn, out = system.reactions[0], system.shift(0, {"A": 1}).reactions[0]
    assert (out.reactant, out.product) == arrow("2 A", "A + B")
    assert out.label == "R1"
    assert _vector(out) == _vector(rxn)
    assert (out.rate_constant, out.exponents) == (rxn.rate_constant, rxn.exponents)


def test_shift_rejects_negative_coefficients():
    system = _mass_action(parse_network("A -> B\n"))
    with pytest.raises(ValueError):
        system.shift(0, {"B": -1})


def test_split_replaces_reaction_with_two_parts():
    system = _mass_action(parse_network("A -> B @R1\nB -> A @R2\n"))
    out = system.split(0, arrow("A", "0"), arrow("0", "B"))
    assert [r.label for r in out.reactions] == ["R1a", "R1b", "R2"]
    assert [(r.reactant, r.product) for r in out.reactions[:2]] == [
        arrow("A", "0"),
        arrow("0", "B"),
    ]
    # a negative index counts from the end, as in a list
    assert system.split(-2, arrow("A", "0"), arrow("0", "B")).reactions == out.reactions
    # the parts of an unlabelled reaction stay unlabelled
    unlabelled = _mass_action(parse_network("A -> B\n"))
    parts = unlabelled.split(0, arrow("A", "0"), arrow("0", "B")).reactions
    assert [r.label for r in parts] == [None, None]


def test_kinetic_shift_and_split_preserve_dynamics():
    system = _mass_action(SCHMITZ)
    shifted = system.shift(0, {"A1": 1})
    assert same_dynamics(system, shifted)
    rxn = system.reactions[13]
    split = system.split(13, (rxn.reactant, Complex({})), (Complex({}), rxn.product))
    assert same_dynamics(system, split)
    assert len(split.reactions) == len(system.reactions) + 1


def test_same_dynamics_distinguishes_different_rates():
    net = parse_network("A -> B\n")
    one = KineticSystem.mass_action(net, [1])
    two = KineticSystem.mass_action(net, [2])
    assert not same_dynamics(one, two)
    other = KineticSystem.mass_action(parse_network("C -> D\n"), [1])
    with pytest.raises(ValueError):
        same_dynamics(one, other)


def test_same_dynamics_reads_float_rate_constants_exactly():
    # summed in another order, 0.1 + 0.2 + 0.3 is another float: sampling
    # compares those sums, the coefficient test compares exact rationals
    a, b = cpx("A"), cpx("B")
    forward = KineticSystem([RatedReaction(a, b, k, a) for k in (0.1, 0.2, 0.3)])
    backward = KineticSystem(reversed(forward.reactions))
    assert same_dynamics(forward, backward)
    assert not oracles.same_dynamics(forward, backward)


def test_rate_constants_must_be_positive_and_finite():
    a, b = cpx("A"), cpx("B")
    net = parse_network("A -> B @R1\n")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            RatedReaction(a, b, bad, a)
        with pytest.raises(ValueError):
            KineticSystem.mass_action(net, [bad])
        with pytest.raises(ValueError):
            KineticSystem.mass_action(net, {"R1": bad})


def test_split_validates_vector_sum_for_kinetic_systems():
    system = _mass_action(parse_network("A -> B\n"))
    with pytest.raises(ValueError):
        system.split(0, arrow("A", "0"), arrow("0", "2 B"))


def test_realizing_the_maclean_flows_from_schmitz_kinetics():
    """Rewrite the embedded Schmitz model, with its mass-action rates, into a
    system whose reactions all belong to the (augmented) embedded MacLean
    model: four exchange reactions split into flows, two flow copies shifted
    onto the A1 -> 2 A1 / 2 A1 -> A1 pair. The rewrite is exactly dynamics
    preserving and leaves 14 of the 19 reactions mass action."""
    shared = [s for s in SCHMITZ.species if s in set(MACLEAN.species)]
    nse = embedded_network(SCHMITZ, shared)
    system = KineticSystem.mass_action(
        nse, {r.label: Fraction(i + 3, i + 2) for i, r in enumerate(nse.reactions)}
    )

    def index_of(label):
        return next(i for i, r in enumerate(system.reactions) if r.label == label)

    zero = Complex({})
    for label in ("R14", "R15", "R16", "R17"):
        i = index_of(label)
        rxn = system.reactions[i]
        system = system.split(i, (rxn.reactant, zero), (zero, rxn.product))

    system = system.shift(index_of("R17b"), {"A1": 1})  # 0 -> A1 becomes A1 -> 2 A1
    system = system.shift(index_of("R16a"), {"A1": 1})  # A1 -> 0 becomes 2 A1 -> A1

    assert len(system.reactions) == 19
    assert sum(r.is_mass_action for r in system.reactions) == 14

    nme = embedded_network(MACLEAN, shared)
    expected = (arrows(nme.reactions) - {arrow("A4", "0"), arrow("A5", "0")}) | {
        arrow("A1", "2 A1"),
        arrow("2 A1", "A1"),
    }
    got = [ (r.reactant, r.product) for r in system.reactions ]
    assert set(got) == expected
    assert len(got) == len(set(got))

    original = KineticSystem.mass_action(
        nse, {r.label: Fraction(i + 3, i + 2) for i, r in enumerate(nse.reactions)}
    )
    assert same_dynamics(original, system)


def test_splitting_an_embedded_lee_reaction_preserves_dynamics_exactly():
    shared = [s for s in LEE.species if s in set(FAL.species)]
    nle = embedded_network(LEE, shared)
    assert len(nle.reactions) == 22
    system = KineticSystem.mass_action(
        nle, {r.label: Fraction(2 * i + 1, i + 4) for i, r in enumerate(nle.reactions)}
    )
    i = next(j for j, r in enumerate(system.reactions) if r.label == "R40E")
    zero = Complex({})
    rxn = system.reactions[i]
    split = system.split(i, (rxn.reactant, zero), (zero, rxn.product))
    part_a, part_b = split.reactions[i], split.reactions[i + 1]
    assert part_a.exponents == part_b.exponents == Complex({"A13": 1, "A2": 1})
    assert part_a.rate_constant == part_b.rate_constant == rxn.rate_constant
    assert part_a.is_mass_action and not part_b.is_mass_action
    assert same_dynamics(system, split)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(networks())
def test_embedding_on_all_species_is_identity(net):
    assert embedded_network(net, net.species) == net


@settings(max_examples=60, deadline=None)
@given(networks())
def test_shift_then_unshift_restores_the_network(net):
    system = _mass_action(net)
    name = net.species[0]
    restored = system.shift(0, {name: 2}).shift(0, {name: -2})
    assert (restored.species, restored.reactions) == (system.species, system.reactions)


@settings(max_examples=40, deadline=None)
@given(networks())
def test_mass_action_systems_are_mass_action(net):
    system = _mass_action(net)
    assert all(r.is_mass_action for r in system.reactions)
    point = {name: Fraction(1, 2) for name in net.species}
    values = system.rhs(point)
    assert set(values) == set(net.species)


def _rewrite(data, reactions, species):
    """Draw a shift or a split of one of ``reactions``: the method name and
    its arguments after the reaction index. Every complex stays on
    ``species``."""
    i = data.draw(st.integers(0, len(reactions) - 1))
    if data.draw(st.booleans()):
        name = data.draw(st.sampled_from(species))
        return "shift", i, ({name: data.draw(st.integers(1, 2))},)
    rxn = reactions[i]
    middle = data.draw(complexes(species))
    if middle in (rxn.reactant, rxn.product):
        name = species[0]
        middle = Complex({name: rxn.reactant.coefficient(name) + rxn.product.coefficient(name) + 1})
    return "split", i, ((rxn.reactant, middle), (middle, rxn.product))


@settings(max_examples=40, deadline=None)
@given(networks(), st.data())
def test_same_dynamics_agrees_with_the_sampling_oracle(net, data):
    fractions = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
    system = KineticSystem.mass_action(net, [data.draw(fractions) for _ in net.reactions])
    rewritten = system
    for _ in range(data.draw(st.integers(1, 3))):
        method, i, args = _rewrite(data, rewritten.reactions, net.species)
        rewritten = getattr(rewritten, method)(i, *args)
    j = data.draw(st.integers(0, len(rewritten.reactions) - 1))
    changed = list(rewritten.reactions)
    changed[j] = replace(changed[j], rate_constant=changed[j].rate_constant + data.draw(fractions))
    reordered = data.draw(st.permutations(rewritten.reactions))
    for other, expected in (
        (rewritten, True),
        (KineticSystem(changed), False),
        (KineticSystem(reordered), True),
    ):
        assert same_dynamics(system, other) is expected
        assert oracles.same_dynamics(system, other) is expected
