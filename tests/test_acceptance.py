"""End-to-end expectations for the bundled Wnt-signaling models.

Every number asserted here was frozen ahead of time from an independent
source — hand counts on the reaction lists, exhaustive sign-pattern search
on small cases, or exact rational linear algebra — and the suite checks
that the library reproduces each one.  Sections carry explicit wall-clock
budgets so the module stays usable as a routine regression gate.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from oracles import _signs, lifted_witness, oracle_verdict
from crnkit import fixtures
from crnkit.cli import main as cli_main
from crnkit.concord import (
    _Side,
    check_concordance,
    is_conservative,
    is_positive_dependent,
    m3cr,
    verify_witness,
)
from crnkit.core import (
    Complex,
    Network,
    common_reactions,
    parse_network,
    reaction_vectors,
    subnetwork,
    subnetwork_by_labels,
)
from crnkit.decomp import Decomposition, decomposition_numbers, fid, is_independent
from crnkit.kinetics import acr_scan, equilibrium_residual, free_parameters, parametrization
from crnkit.linalg import rank
from crnkit.transform import KineticSystem, core, csen, embedded_network, same_dynamics
from netgen import networks

LEE = fixtures.load("lee")
FAL = fixtures.load("fal")
SCHMITZ = fixtures.load("schmitz")
MACLEAN = fixtures.load("maclean")
AUGMENTED = fixtures.load("schmitz-augmented")

DURATIONS: dict[str, float] = {}


@pytest.fixture(autouse=True)
def _stopwatch(request):
    start = time.perf_counter()
    yield
    DURATIONS[request.node.name] = time.perf_counter() - start


def labels(reactions):
    return {rxn.label for rxn in reactions}


def cpx(text: str) -> Complex:
    net = parse_network(f"{text} -> ZZZPROBE" if text != "ZZZPROBE" else "0 -> ZZZPROBE")
    return net.reactions[0].reactant


def arrow(reactant: str, product: str):
    return (cpx(reactant), cpx(product))


def arrows(reactions):
    return {rxn.arrow for rxn in reactions}


def _without(net: Network, *drop: str) -> Network:
    keep = [r.label for r in net.reactions if r.label not in set(drop)]
    return subnetwork_by_labels(net, keep)


def _payload(capsys, *argv: str) -> dict:
    assert cli_main(list(argv) + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)["payload"]


# ---------------------------------------------------------------------------
# network profiles and structure flags
# ---------------------------------------------------------------------------

NUMBER_FIELDS = (
    "species",
    "complexes",
    "reactant_complexes",
    "reversible_pairs",
    "irreversible",
    "reactions",
    "linkage_classes",
    "strong_classes",
    "terminal_classes",
    "rank",
    "reactant_rank",
    "deficiency",
    "reactant_deficiency",
)

# reversible_pairs counts unordered arrow pairs, so
# 2 * reversible_pairs + irreversible == reactions in every profile.
PROFILES = {
    "lee": (15, 21, 19, 9, 4, 22, 8, 12, 8, 11, 15, 2, 4),
    "fal": (15, 21, 19, 9, 5, 23, 7, 12, 7, 12, 15, 2, 4),
    "maclean": (19, 28, 22, 12, 7, 31, 10, 16, 10, 14, 19, 4, 3),
    "schmitz": (11, 16, 14, 6, 5, 17, 5, 10, 5, 9, 11, 2, 3),
}

SHARED_FLAGS = {
    "branching": True,
    "closed": True,
    "cycle_terminal": False,
    "high_reactant_diversity": True,
    "maximally_closed": False,
    "point_terminal": False,
    "t_minimal": True,
    "weakly_reversible": False,
}


def test_network_profiles_of_the_four_models(capsys):
    start = time.perf_counter()
    for name, profile in PROFILES.items():
        payload = _payload(capsys, "analyze", f"fixture:{name}")
        assert payload["networkNumbers"] == dict(zip(NUMBER_FIELDS, profile)), name
        assert payload["structuralFlags"] == SHARED_FLAGS, name
        assert payload["kineticSubspaceCoincides"] == "yes"
        assert not payload["deficiencyZero"]["applies"]
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# finest independent decompositions
# ---------------------------------------------------------------------------

SCHMITZ_BLOCKS = {
    frozenset({"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R10", "R11", "R12", "R13"}):
        (8, 11, 9, 3, 5, 11, 3, 8, 3, 6, 8, 2, 1),
    frozenset({"R8", "R9"}): (3, 2, 2, 1, 0, 2, 1, 1, 1, 1, 2, 0, 0),
    frozenset({"R14", "R15"}): (2, 2, 2, 1, 0, 2, 1, 1, 1, 1, 2, 0, 0),
    frozenset({"R16", "R17"}): (2, 2, 2, 1, 0, 2, 1, 1, 1, 1, 2, 0, 0),
}

FAL_BLOCKS = {
    frozenset({"R1", "R4", "R5", "R12", "R38", "R45", "R46"}):
        (5, 7, 6, 2, 3, 7, 2, 5, 2, 4, 5, 1, 1),
    frozenset({"R14", "R15"}): (2, 2, 2, 1, 0, 2, 1, 1, 1, 1, 2, 0, 0),
    frozenset({"R18", "R19"}): (2, 2, 2, 1, 0, 2, 1, 1, 1, 1, 2, 0, 0),
    frozenset({"R43", "R44"}): (3, 2, 2, 1, 0, 2, 1, 1, 1, 1, 2, 0, 0),
    frozenset({"R47", "R48"}): (1, 2, 2, 1, 0, 2, 1, 1, 1, 1, 1, 0, 1),
    frozenset({"R49", "R50"}): (3, 2, 2, 1, 0, 2, 1, 1, 1, 1, 2, 0, 0),
    frozenset({"R51", "R52"}): (3, 2, 2, 1, 0, 2, 1, 1, 1, 1, 2, 0, 0),
    frozenset({"R53", "R54", "R55", "R56"}): (4, 5, 4, 1, 2, 4, 2, 4, 2, 2, 4, 1, 0),
}

MACLEAN_BLOCKS = {
    frozenset({"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R36", "R37", "R38", "R39"}):
        (6, 9, 7, 4, 3, 11, 3, 5, 3, 4, 6, 2, 1),
    frozenset({"R8", "R9"}): (3, 2, 2, 1, 0, 2, 1, 1, 1, 1, 2, 0, 0),
    frozenset({"R18", "R19"}): (2, 2, 2, 1, 0, 2, 1, 1, 1, 1, 2, 0, 0),
    frozenset({"R20", "R21"}): (2, 2, 2, 1, 0, 2, 1, 1, 1, 1, 2, 0, 0),
    frozenset({"R22", "R23"}): (2, 2, 2, 1, 0, 2, 1, 1, 1, 1, 2, 0, 0),
    frozenset({"R24", "R25", "R26", "R27", "R28", "R29"}):
        (6, 6, 4, 2, 2, 6, 2, 4, 2, 3, 4, 1, 0),
    frozenset({"R30", "R31", "R32", "R33", "R34", "R35"}):
        (6, 6, 4, 2, 2, 6, 2, 4, 2, 3, 4, 1, 0),
}

FID_TABLES = {"schmitz": SCHMITZ_BLOCKS, "fal": FAL_BLOCKS, "maclean": MACLEAN_BLOCKS}


def test_finest_independent_decompositions_and_their_block_profiles():
    start = time.perf_counter()
    for name, table in FID_TABLES.items():
        net = fixtures.load(name)
        decomposition = fid(net)
        label_sets = [frozenset(s) for s in decomposition.label_sets()]
        assert set(label_sets) == set(table), name
        numbers = decomposition_numbers(decomposition)
        assert numbers.parent.as_tuple() == PROFILES[name]
        for block_labels, block_numbers in zip(label_sets, numbers.blocks):
            assert block_numbers.as_tuple() == table[block_labels], (name, block_labels)
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# common-species embedded comparisons
# ---------------------------------------------------------------------------


def test_embedded_comparison_of_lee_and_fal():
    start = time.perf_counter()
    report = csen(LEE, FAL)
    assert set(report.common_species) == set(LEE.species) - {"A22"}
    assert set(report.common_species) == set(FAL.species) - {"A28"}
    assert len(report.common_original) == 19
    assert arrows(report.embedding_derived) == {arrow("A23", "A2"), arrow("A2", "A23")}
    assert arrows(report.unique1) == {arrow("A13 + A2", "A13 + A23")}
    assert arrows(report.unique2) == {arrow("A13 + A2", "0"), arrow("0", "A13 + A23")}
    assert time.perf_counter() - start < 1.0


def test_embedded_comparison_of_schmitz_and_maclean():
    start = time.perf_counter()
    report = csen(SCHMITZ, MACLEAN)
    assert sorted(report.common_species) == [f"A{i}" for i in range(1, 10)]
    assert labels(report.common_original) == {f"R{i}" for i in range(1, 10)}
    assert arrows(report.embedding_derived) == {arrow("A8", "A1"), arrow("A9", "A3")}
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
    assert time.perf_counter() - start < 1.0


def test_embedded_comparison_of_fal_and_maclean():
    start = time.perf_counter()
    report = csen(FAL, MACLEAN)
    assert set(report.common_species) == {"A1", "A2", "A4", "A6", "A7", "A8", "A12", "A13"}
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
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# concordance verdicts with certificates
# ---------------------------------------------------------------------------

CONCORDANCE_CASES = [
    ("lee", lambda: LEE, "Discordant"),
    ("schmitz", lambda: SCHMITZ, "Discordant"),
    ("fal", lambda: FAL, "Discordant"),
    ("maclean", lambda: MACLEAN, "Discordant"),
    (
        "augmented-maclean-shared",
        lambda: Network(common_reactions(AUGMENTED, MACLEAN)),
        "Concordant",
    ),
    # Dropping the lone A4 outflow from the shared set above removes exactly
    # the reaction whose support blocked every sign witness, so the remaining
    # nine shared reactions certify as Discordant on their own.
    (
        "schmitz-maclean-shared",
        lambda: Network(common_reactions(SCHMITZ, MACLEAN)),
        "Discordant",
    ),
    (
        "fal-maclean-shared",
        lambda: Network(common_reactions(FAL, MACLEAN)),
        "Concordant",
    ),
    ("fal-less-R51-R52", lambda: _without(FAL, "R51", "R52"), "Concordant"),
    ("augmented-less-R10-R11", lambda: _without(AUGMENTED, "R10", "R11"), "Concordant"),
    ("maclean-less-R36-R37", lambda: _without(MACLEAN, "R36", "R37"), "Concordant"),
]


@pytest.mark.parametrize(
    "factory,expected",
    [case[1:] for case in CONCORDANCE_CASES],
    ids=[case[0] for case in CONCORDANCE_CASES],
)
def test_concordance_verdict_and_certificate(factory, expected):
    start = time.perf_counter()
    net = factory()
    verdict = check_concordance(net)
    assert verdict.status == expected
    if expected == "Discordant":
        assert verify_witness(net, verdict.witness)
    else:
        assert verdict.witness is None
    assert time.perf_counter() - start < 120.0


@pytest.mark.parametrize(
    "factory",
    [case[1] for case in CONCORDANCE_CASES],
    ids=[case[0] for case in CONCORDANCE_CASES],
)
def test_every_pattern_a_certificate_refutes_is_infeasible(factory, monkeypatch):
    # every (rows, pattern) a side decides during the search, re-solved with
    # the LP set-up of the oracle: the circuits refute exactly the patterns
    # it finds infeasible, and let every feasible one through
    decided = {}
    feasible = _Side.feasible

    def recording(side, depth, masks):
        answer = feasible(side, depth, masks)
        decided[tuple(map(tuple, side.rows)), side.count, masks] = answer
        return answer

    monkeypatch.setattr(_Side, "feasible", recording)
    check_concordance(factory())
    assert False in decided.values()
    for (rows, count, masks), answer in decided.items():
        assert (oracles.signed_point(rows, _signs(count, masks)) is not None) == answer


def test_positive_dependence_and_nonconservativity_of_the_four_models():
    start = time.perf_counter()
    for net in (LEE, FAL, SCHMITZ, MACLEAN):
        dependent = is_positive_dependent(net)
        assert dependent.holds
        assert all(weight >= 1 for weight in dependent.vector)
        combo = [
            sum(weight * vec[i] for weight, vec in zip(dependent.vector, reaction_vectors(net)))
            for i in range(len(net.species))
        ]
        assert all(entry == 0 for entry in combo)
        conservative = is_conservative(net)
        assert not conservative.holds
        assert conservative.vector is None
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# maximal concordant containers of the shared reactions
# ---------------------------------------------------------------------------


def test_maximal_concordant_containers_of_shared_reactions():
    start = time.perf_counter()

    shared = common_reactions(AUGMENTED, MACLEAN)
    report = m3cr(AUGMENTED, shared)
    assert sorted(r.label for r in report.discordance_set) == ["R10", "R11"]
    assert labels(report.container.reactions) == labels(AUGMENTED.reactions) - {"R10", "R11"}
    assert labels(shared) <= labels(report.container.reactions)
    assert report.maximality_verified
    assert not report.order_dependent

    report = m3cr(MACLEAN, common_reactions(MACLEAN, AUGMENTED))
    assert sorted(r.label for r in report.discordance_set) == ["R36", "R37"]
    assert report.maximality_verified
    assert report.order_dependent

    report = m3cr(FAL, common_reactions(FAL, MACLEAN))
    assert sorted(r.label for r in report.discordance_set) == ["R55"]
    assert labels(report.container.reactions) == labels(FAL.reactions) - {"R55"}
    assert report.maximality_verified
    assert report.order_dependent
    assert check_concordance(report.container).concordant

    # Dropping the whole pair R51/R52 also leaves a concordant container (the
    # fal-less-R51-R52 verdict case), but not a maximal one: R51 can be
    # re-admitted on its own.
    assert check_concordance(_without(FAL, "R51")).concordant
    solo = check_concordance(_without(FAL, "R52"))
    assert solo.status == "Discordant"
    assert verify_witness(_without(FAL, "R52"), solo.witness)

    # The pair split is rank-additive against the rest of the network, and
    # the pair is concordant on its own.
    pair = subnetwork_by_labels(FAL, ["R51", "R52"])
    assert rank(reaction_vectors(FAL)) == rank(
        reaction_vectors(_without(FAL, "R51", "R52"))
    ) + rank(reaction_vectors(pair))
    assert check_concordance(pair).concordant

    assert time.perf_counter() - start < 600.0


# ---------------------------------------------------------------------------
# shared-reaction cores and their parent views
# ---------------------------------------------------------------------------


def test_shared_reaction_core_of_fal_and_maclean():
    start = time.perf_counter()
    report = core(FAL, MACLEAN)
    assert labels(report.core.reactions) == {"R1", "R4", "R5", "R18", "R19", "R38"}
    assert report.reversible
    assert report.rank == 3
    assert report.deficiency == 0

    fal_view = report.parent1
    assert (fal_view.union_rank, fal_view.core_rank, fal_view.complement_rank) == (5, 3, 3)
    assert not fal_view.independent_inside_union

    mac_view = report.parent2
    assert (mac_view.union_rank, mac_view.core_rank, mac_view.complement_rank) == (5, 3, 4)
    assert not mac_view.independent_inside_union
    assert time.perf_counter() - start < 1.0


def test_shared_reaction_core_of_augmented_schmitz_and_maclean():
    start = time.perf_counter()
    report = core(AUGMENTED, MACLEAN)
    assert labels(report.core.reactions) == {f"R{i}" for i in range(1, 10)} | {"R38"}
    assert report.reversible
    assert report.rank == 5
    assert report.deficiency == 0
    assert report.parent2.union_rank == 5
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# equilibrium parametrizations and robustness scans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", ["schmitz", "fal", "maclean"])
def test_parametrized_points_zero_every_rate_equation(model):
    start = time.perf_counter()
    net = fixtures.load(model)
    blocks = fid(net).block_networks()
    rng = random.Random(11)
    worst = 0.0
    for _ in range(100):
        k = {r.label: 10.0 ** rng.uniform(-1.0, 1.0) for r in net.reactions}
        free = {p: 10.0 ** rng.uniform(-2.0, 2.0) for p in free_parameters(model)}
        point = parametrization(model, k, free)
        worst = max(worst, equilibrium_residual(net, k, point))
        for block in blocks:
            block_k = {r.label: k[r.label] for r in block.reactions}
            block_x = {s: point[s] for s in block.species}
            worst = max(worst, equilibrium_residual(block, block_k, block_x))
    assert worst < 1e-9
    assert time.perf_counter() - start < 10.0


def test_robustness_scan_flags_exactly_one_species_in_one_model():
    start = time.perf_counter()
    rng = random.Random(3)
    for model, expected in [("schmitz", set()), ("fal", {"A26"}), ("maclean", set())]:
        net = fixtures.load(model)
        k = {r.label: 10.0 ** rng.uniform(-1.0, 1.0) for r in net.reactions}
        for seed in range(5):
            report = acr_scan(model, k, sample_count=100, seed=seed)
            assert set(report) == set(net.species)
            constant = {name for name, spread in report.items() if spread.constant}
            assert constant == expected, (model, seed)
        if model == "fal":
            scan = acr_scan(model, k, sample_count=100, seed=0)
            assert scan["A26"].value == pytest.approx(k["R47"] / k["R48"], rel=1e-9)
    assert time.perf_counter() - start < 10.0


def test_splitting_an_embedded_reaction_into_flows_preserves_dynamics():
    start = time.perf_counter()
    shared = [s for s in LEE.species if s in set(FAL.species)]
    embedded = embedded_network(LEE, shared)
    system = KineticSystem.mass_action(
        embedded, {r.label: Fraction(3 * i + 2, i + 5) for i, r in enumerate(embedded.reactions)}
    )
    i = next(j for j, r in enumerate(system.reactions) if r.label == "R40E")
    rxn = system.reactions[i]
    zero = Complex({})
    split = system.split(i, (rxn.reactant, zero), (zero, rxn.product))
    assert split.reactions[i].exponents == split.reactions[i + 1].exponents == rxn.reactant
    assert same_dynamics(system, split)
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------


def test_reaction_order_never_changes_the_finest_decomposition():
    rng = random.Random(7)
    for net in (SCHMITZ, FAL, MACLEAN):
        expected = {frozenset(s) for s in fid(net).label_sets()}
        for _ in range(20):
            order = list(net.reactions)
            rng.shuffle(order)
            shuffled = Network(order, net.species)
            assert {frozenset(s) for s in fid(shuffled).label_sets()} == expected


def _set_partitions(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + (part[i] + (head,),) + part[i + 1 :]
        yield part + ((head,),)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(networks(max_species=4, max_reactions=5))
def test_every_independent_partition_coarsens_the_finest_one(net):
    finest = fid(net)
    assert is_independent(finest)
    fine_blocks = [set(block) for block in finest.blocks]
    for blocks in _set_partitions(tuple(range(len(net.reactions)))):
        if is_independent(Decomposition.from_blocks(net, [list(b) for b in blocks])):
            for fine in fine_blocks:
                assert any(fine <= set(b) for b in blocks)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(networks(max_species=4, max_reactions=4))
def test_sign_search_agrees_with_exhaustive_enumeration(net):
    expected, oracle_witness = oracle_verdict(net)
    verdict = check_concordance(net)
    assert verdict.status == expected
    if expected == "Discordant":
        assert verify_witness(net, verdict.witness)
        assert verify_witness(net, oracle_witness)
    else:
        assert verdict.witness is None


def test_removing_reactions_can_flip_concordance_both_ways():
    flow = parse_network("0 -> A @R1\nA -> 0 @R2")
    assert check_concordance(flow).concordant
    assert check_concordance(subnetwork(flow, [0])).status == "Discordant"

    trio = parse_network("A -> B @R1\n2 A -> B @R2\nB -> A @R3")
    assert check_concordance(trio).concordant
    assert check_concordance(subnetwork(trio, [0, 1])).status == "Discordant"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(networks(max_species=4, max_reactions=5), st.data())
def test_lifted_certificates_stay_valid_in_the_parent(net, data):
    if len(net.reactions) < 2:
        return
    keep = data.draw(
        st.lists(
            st.integers(0, len(net.reactions) - 1),
            min_size=1,
            max_size=len(net.reactions) - 1,
            unique=True,
        )
    )
    child = subnetwork(net, keep)
    verdict = check_concordance(child)
    if verdict.status != "Discordant":
        return
    lifted = lifted_witness(net, child, verdict.witness)
    if lifted is not None:
        assert verify_witness(net, lifted)
        assert check_concordance(net).status == "Discordant"


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(networks())
def test_reported_discordance_certificates_always_verify(net):
    verdict = check_concordance(net)
    if verdict.status == "Discordant":
        assert verify_witness(net, verdict.witness)


PROPERTY_TESTS = (
    "test_reaction_order_never_changes_the_finest_decomposition",
    "test_every_independent_partition_coarsens_the_finest_one",
    "test_sign_search_agrees_with_exhaustive_enumeration",
    "test_removing_reactions_can_flip_concordance_both_ways",
    "test_lifted_certificates_stay_valid_in_the_parent",
    "test_reported_discordance_certificates_always_verify",
)


def test_property_suite_stays_inside_its_time_budget():
    assert sum(DURATIONS.get(name, 0.0) for name in PROPERTY_TESTS) < 300.0
