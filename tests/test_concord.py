"""Tests for concordance decisions, certificates, and concordant containers."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest.mock import patch

import oracles
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from crnkit import fixtures
from crnkit import concord, linalg
from crnkit.concord import (
    DEFAULT_NODE_BUDGET,
    SignWitness,
    UnverifiedMandatorySet,
    _ORIGIN,
    _assemble,
    _circuits,
    _Parent,
    _refuted,
    _Side,
    _signed_point,
    check_concordance,
    is_conservative,
    is_positive_dependent,
    m3cr,
    verify_witness,
)
from crnkit.core import (
    Network,
    common_reactions,
    parse_network,
    reaction_vectors,
    subnetwork,
    subnetwork_by_labels,
)
from crnkit.decomp import fid
from crnkit.linalg import lp_feasible
from netgen import networks

LEE = fixtures.load("lee")
FAL = fixtures.load("fal")
SCHMITZ = fixtures.load("schmitz")
MACLEAN = fixtures.load("maclean")
AUGMENTED = fixtures.load("schmitz-augmented")
REDUCED = fixtures.load("schmitz-reduced")
DATA = Path(__file__).parent / "data"


# --- hand-checked smalls ----------------------------------------------------


def test_single_irreversible_reaction_is_concordant():
    verdict = check_concordance(parse_network("A -> B @R1"))
    assert verdict.concordant
    assert verdict.search_nodes > 0


def test_reversible_pair_is_concordant():
    assert check_concordance(parse_network("A -> B @R1\nB -> A @R2")).concordant


def test_parallel_catalysis_is_discordant_with_zero_alpha():
    net = parse_network("A -> B @R1\n2 A -> B @R2")
    verdict = check_concordance(net)
    assert verdict.status == "Discordant"
    assert verdict.witness.alpha == (0, 0)
    a, b = net.species.index("A"), net.species.index("B")
    assert verdict.witness.sigma[a] == 0
    assert verdict.witness.sigma[b] != 0
    assert verify_witness(net, verdict.witness)


def test_pure_inflow_is_discordant():
    verdict = check_concordance(parse_network("0 -> A @R1"))
    assert verdict.status == "Discordant"
    assert verdict.witness.alpha == (0,)


def test_verdict_is_deterministic():
    first = check_concordance(SCHMITZ)
    second = check_concordance(SCHMITZ)
    assert first == second


@pytest.mark.parametrize("budget", [0, -1, True, 2.5])
def test_budget_below_one_is_rejected(budget):
    with pytest.raises(ValueError, match="node_budget must be a positive integer"):
        check_concordance(SCHMITZ, node_budget=budget)
    with pytest.raises(ValueError, match="node_budget must be a positive integer"):
        m3cr(FAL, common_reactions(FAL, MACLEAN), node_budget=budget)


def test_tiny_budget_returns_unknown():
    verdict = check_concordance(LEE, node_budget=3)
    assert verdict.status == "Unknown"
    assert verdict.witness is None
    assert not verdict.concordant
    assert verdict.search_nodes >= 3


# --- witness validation -----------------------------------------------------


def test_verify_witness_rejects_zero_sigma():
    net = parse_network("A -> B @R1\n2 A -> B @R2")
    zeros = (Fraction(0), Fraction(0))
    assert not verify_witness(net, SignWitness(zeros, zeros))


def test_verify_witness_accepts_hand_built_certificate():
    net = parse_network("A -> B @R1\n2 A -> B @R2")
    sigma = [Fraction(0), Fraction(0)]
    sigma[net.species.index("B")] = Fraction(1)
    assert verify_witness(net, SignWitness((Fraction(0), Fraction(0)), tuple(sigma)))


def test_verify_witness_rejects_sign_violations():
    net = parse_network("A -> B @R1\nB -> A @R2")
    # alpha = (1, 1) is in the kernel but sigma must then be positive on both
    # reactant supports; a negative B-coordinate breaks condition (i).
    sigma = [Fraction(0), Fraction(0)]
    sigma[net.species.index("A")] = Fraction(1)
    sigma[net.species.index("B")] = Fraction(-1)
    assert not verify_witness(net, SignWitness((Fraction(1), Fraction(1)), tuple(sigma)))


def test_verify_witness_checks_dimensions():
    net = parse_network("A -> B @R1")
    with pytest.raises(ValueError):
        verify_witness(net, SignWitness((Fraction(0),), (Fraction(1),)))


# --- positive dependence and conservativity ---------------------------------


def test_positive_dependence_toys():
    assert not is_positive_dependent(parse_network("A -> B @R1"))
    cert = is_positive_dependent(parse_network("A -> B @R1\nB -> A @R2"))
    assert cert
    assert cert.vector[0] == cert.vector[1] >= 1


def test_conservativity_toys():
    cert = is_conservative(parse_network("A -> B @R1\nB -> A @R2"))
    assert cert
    assert all(p >= 1 for p in cert.vector)
    inflow = is_conservative(parse_network("0 -> A @R1"))
    assert not inflow
    assert inflow.vector is None


@settings(max_examples=200, deadline=None)
@given(networks(max_species=6, max_reactions=7))
def test_cone_certificates_match_the_whole_lp(net):
    # the cone certificates ask a side, which answers from its row
    # certificates or block by block; one LP over the whole system must
    # give the same answer and the same point
    columns = reaction_vectors(net)
    for got, expected in (
        (is_positive_dependent(net),
         oracles.positive_point(list(zip(*columns)), len(net.reactions))),
        (is_conservative(net), oracles.positive_point(columns, len(net.species))),
    ):
        assert got.holds == expected.holds
        assert repr(got.vector) == repr(expected.vector)


# --- maximal concordant containers ------------------------------------------


def test_discordant_mandatory_set_is_rejected():
    net = parse_network("0 -> A @R1\nA -> 0 @R2\nA -> B @R3")
    with pytest.raises(ValueError, match="discordant"):
        m3cr(net, ["R1"])


def test_unverifiable_mandatory_set_is_rejected():
    everything = [r.label for r in LEE.reactions]
    with pytest.raises(ValueError, match="budget") as excinfo:
        m3cr(LEE, everything, node_budget=1)
    # its own ValueError, so that the CLI can exit 2 on an exhausted budget
    assert type(excinfo.value) is UnverifiedMandatorySet


# --- the search's sign masks against the per-entry tests it replaced --------

# a coordinate: the wanted sign times n/d, or (when the flag is set, or
# nothing is wanted) a rational that is zero half of the time, so that both
# answers of a conformance test come up often
cells = st.tuples(
    st.booleans(),
    st.integers(1, 12),
    st.one_of(st.just(0), st.integers(-12, 12)),
    st.integers(1, 4),
)


def _near(data, signs):
    drawn = data.draw(st.lists(cells, min_size=len(signs), max_size=len(signs)))
    return [
        Fraction(free if wanted is None or flip else wanted * n, d)
        for wanted, (flip, n, free, d) in zip(signs, drawn)
    ]


def _sign_list(data, count):
    return data.draw(st.lists(st.sampled_from((1, -1, 0, None)), min_size=count, max_size=count))


def _masks(sign):
    """The (plus, minus, zero) masks of a sign list."""
    return tuple(sum(1 << j for j, s in enumerate(sign) if s == wanted) for wanted in (1, -1, 0))


def _check_conforms(point, masks, conforms):
    # a side answers a pattern that wants a sign with the carried point
    # exactly when it conforms (one with no rows answers with a new point
    # otherwise), and a pattern that wants no sign with the origin
    carried = oracles.masked(point)
    answer = _Side([], len(point), {}).point(masks, carried)
    if masks[0] | masks[1]:
        assert (answer is carried) == conforms
    else:
        assert answer == ((), 0, 0)


def _read(point, count):
    """A side's point ``(parts, pos, neg)`` read through the one assembly, as
    the repr of its Fraction list and its masks."""
    parts, pos, neg = point
    return repr(list(_assemble(parts, count))), pos, neg


def _shown(point):
    """The oracle's masked Fraction list as ``_read`` shows a side's point."""
    values, pos, neg = point
    return repr(values), pos, neg


@settings(max_examples=100, deadline=None)
@given(networks(max_species=5, max_reactions=6), st.data())
def test_sign_masks_agree_with_per_entry_conformance(net, data):
    # one subset test serves the reaction masks of alpha and the species
    # masks of sigma
    classes = _sign_list(data, len(net.reactions))
    sign = _sign_list(data, len(net.species))
    assert oracles._signs(len(classes), _masks(classes)) == classes
    assert oracles._signs(len(sign), _masks(sign)) == sign
    for _ in range(2):
        alpha = _near(data, classes)
        _check_conforms(
            alpha, _masks(classes), oracles.alpha_conforms(alpha, _masks(classes))
        )
        sigma = _near(data, sign)
        _check_conforms(
            sigma, _masks(sign), oracles.sigma_conforms(sigma, range(len(sign)), sign)
        )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(networks(max_species=5, max_reactions=7), st.sampled_from((3, 12, DEFAULT_NODE_BUDGET)))
def test_forced_reaction_masks_match_the_counters_at_every_node(net, node_budget):
    # the masks the search forms from the reactions touched by + and by - and
    # those with a reactant still unsigned, against the per-reaction counters
    # of the pattern, at every child the search weighs
    search = _Parent(net).whole(node_budget)
    index = {name: i for i, name in enumerate(net.species)}
    supports = [tuple(index[name] for name, _ in rxn.reactant) for rxn in net.reactions]
    descend, alpha = search._descend, search.alpha
    # the nodes being expanded, each with the children it has still to weigh,
    # in the search's order: +, - (unless the first sign is pinned), 0
    expanding = []
    seen = []

    def expand(depth, masks, touched):
        children = []
        if depth < len(search.order):
            plus, minus, zero = masks
            bit = 1 << search.order[depth]
            children = [
                (plus | bit, minus, zero), (plus, minus | bit, zero), (plus, minus, zero | bit)
            ]
            if not plus | minus:
                del children[1]
        expanding.append(children)
        try:
            return descend(depth, masks, touched)
        finally:
            expanding.pop()

    class Weighing:
        # the alpha side, checking the forced masks of each child it weighs
        def feasible(self, depth, forced):
            child = expanding[-1].pop(0)
            sign = oracles._signs(search.species_count, child)
            assert forced == oracles.signature(supports, sign)
            seen.append(child)
            return alpha.feasible(depth, forced)

        def point(self, masks, carried):
            # a Discordant search rebuilds its witness through the real side
            return alpha.point(masks, carried)

    search._descend = expand
    search.alpha = Weighing()
    verdict = search.run()
    assert len(seen) >= verdict.search_nodes - 1


# --- counts the benchmark's tracer and the JSON reports depend on -----------


@pytest.mark.parametrize(
    "parent, other, nodes",
    [
        ("toy-a", "toy-b", 20),
        ("toy-b", "toy-a", 2),
        ("schmitz-reduced", "maclean", 316),
        ("schmitz-augmented", "maclean", 437),
    ],
)
def test_m3cr_search_node_totals(parent, other, nodes):
    def load(name):
        path = DATA / f"{name}.crn"
        if path.exists():
            return parse_network(path.read_text(encoding="utf-8"))
        return fixtures.load(name)

    net = load(parent)
    assert m3cr(net, common_reactions(net, load(other))).search_nodes == nodes


def _counted(calls):
    """``lp_feasible``, appending to ``calls`` on every call."""

    def counting(a_eq, b_eq):
        calls.append(None)
        return lp_feasible(a_eq, b_eq)

    return counting


@pytest.fixture
def lp_calls(monkeypatch):
    """One entry for every ``lp_feasible`` call the concordance module makes."""
    calls = []
    monkeypatch.setattr(concord, "lp_feasible", _counted(calls))
    return calls


@pytest.mark.parametrize(
    "run, nodes, solves",
    [
        (lambda: check_concordance(SCHMITZ), 23, 3),
        (lambda: check_concordance(FAL), 30, 14),
        (lambda: check_concordance(LEE), 56, 9),
        # the timed benchmark ops
        (lambda: check_concordance(AUGMENTED), 16, 4),
        (lambda: check_concordance(REDUCED), 16, 4),
        (lambda: m3cr(REDUCED, common_reactions(REDUCED, MACLEAN)), 316, 0),
    ],
    ids=["schmitz", "fal", "lee", "schmitz-augmented", "schmitz-reduced",
         "m3cr-reduced-vs-maclean"],
)
def test_lp_solves_per_search(run, nodes, solves, lp_calls):
    # circuits decide every pattern; LPs only rebuild the witness along a
    # Discordant leaf's path, and m3cr asks for no witness
    result = run()
    assert (result.search_nodes, len(lp_calls)) == (nodes, solves)
    if solves:
        assert result.status == "Discordant"


def test_a_search_with_no_lp_builds_no_fraction(monkeypatch, lp_calls):
    # the search keeps its points as integers over one denominator and
    # builds Fractions only for a returned witness
    net = subnetwork_by_labels(
        AUGMENTED, [r.label for r in AUGMENTED.reactions if r.label not in ("R10", "R11")]
    )
    made = []

    def fraction(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(concord, "Fraction", fraction)
    verdict = check_concordance(net)
    assert (verdict.status, verdict.search_nodes, len(lp_calls)) == ("Concordant", 23, 0)
    assert made == []
    # a Discordant search builds them, in the witness
    witness = check_concordance(SCHMITZ).witness
    assert len(made) >= sum(1 for v in witness.alpha + witness.sigma if v)


def test_the_lp_path_builds_no_fraction(monkeypatch, lp_calls):
    # lp_feasible takes and returns integers, and _signed_point reads its
    # point as numerators over its denominator, so a Concordant search
    # builds no Fraction in either module: by circuits it solves no LP, and
    # with every block over the circuit bound its LPs leave integer points
    net = subnetwork_by_labels(
        FAL, [r.label for r in FAL.reactions if r.label not in ("R51", "R52")]
    )
    made = []

    def fraction(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(concord, "Fraction", fraction)
    monkeypatch.setattr(linalg, "Fraction", fraction)
    verdict = check_concordance(net)
    assert (verdict.status, verdict.search_nodes, len(lp_calls)) == ("Concordant", 73, 0)
    monkeypatch.setattr(concord, "_CIRCUIT_SUBSETS", 0)
    verdict = check_concordance(net)
    assert (verdict.status, verdict.search_nodes) == ("Concordant", 73)
    assert lp_calls
    assert made == []


def test_m3cr_searches_each_reaction_set_once(monkeypatch):
    # every search of an m3cr call is built by its _Parent, one per reaction set
    seen = []
    search = concord._Parent.search

    def counting(parent, key, basis, node_budget):
        seen.append(tuple(key))
        return search(parent, key, basis, node_budget)

    monkeypatch.setattr(concord._Parent, "search", counting)
    report = m3cr(AUGMENTED, common_reactions(AUGMENTED, MACLEAN))
    assert len(seen) == len(set(seen)) == 23
    assert report.search_nodes == 437


def _network(name):
    """A bundled fixture, or a network of ``tests/data``."""
    path = DATA / f"{name}.crn"
    if path.exists():
        return parse_network(path.read_text(encoding="utf-8"))
    return fixtures.load(name)


M3CR_PAIRS = [
    ("toy-a", "toy-b"),
    ("toy-b", "toy-a"),
    ("schmitz-reduced", "maclean"),
    ("schmitz-augmented", "maclean"),
]


def _left_nullspace(net, key):
    """The RREF of the left nullspace of the reactions ``key`` of ``net``, by the
    Fraction oracle, over the parent's species and 0 off the set's."""
    sub = subnetwork(net, key)
    where = [net.species.index(name) for name in sub.species]
    rows = []
    for vector in oracles.nullspace_basis(oracles.coefficient_reaction_vectors(sub)):
        row = [Fraction(0)] * len(net.species)
        for i, value in zip(where, vector):
            row[i] = value
        rows.append(row)
    return oracles.rref(rows)[0]


def _assert_search_as_from_the_subnetwork(parent, net, key, basis):
    # the search of a reaction set in the parent's coordinates decides as the
    # subnetwork's own search does: it visits the same species in the same
    # order, its sigma rows span the same space, and it gives the same
    # verdict after the same nodes
    got = parent.search(key, basis, DEFAULT_NODE_BUDGET)
    sub = subnetwork(net, key)
    want = _Parent(sub).whole(DEFAULT_NODE_BUDGET)
    assert [net.species[i] for i in got.order] == [sub.species[i] for i in want.order]
    assert got.alpha.rows is parent.rows
    assert oracles.rref(got.sigma.rows)[0] == _left_nullspace(net, key)
    got_verdict, want_verdict = got.run(witness=False), want.run(witness=False)
    assert (got_verdict.status, got_verdict.search_nodes) == (
        want_verdict.status, want_verdict.search_nodes
    )


@settings(max_examples=200, deadline=None)
@given(networks(max_species=6, max_reactions=8), st.data())
def test_search_from_the_parent_arrays_is_the_subnetwork_search(net, data):
    # the parent's species in a drawn order, so that its indices and the
    # set's first-appearance order differ; each basis grown in a drawn order
    net = Network(net.reactions, data.draw(st.permutations(net.species)))
    keys = st.lists(st.integers(0, len(net.reactions) - 1), min_size=1, unique=True)
    parent = concord._Parent(net)
    for _ in range(3):
        key = data.draw(keys)
        _assert_search_as_from_the_subnetwork(parent, net, sorted(key), parent.basis(key))


@pytest.mark.parametrize("name, other", M3CR_PAIRS)
def test_every_set_m3cr_searches_is_built_as_its_subnetwork_would_be(name, other, monkeypatch):
    net = _network(name)
    searched = []
    search = concord._Parent.search

    def recording(parent, key, basis, node_budget):
        searched.append((parent, key, basis))
        return search(parent, key, basis, node_budget)

    monkeypatch.setattr(concord._Parent, "search", recording)
    m3cr(net, common_reactions(net, _network(other)))
    monkeypatch.undo()
    assert searched
    for parent, key, basis in searched:
        _assert_search_as_from_the_subnetwork(parent, net, key, basis)


@settings(max_examples=200, deadline=None)
@given(networks(max_species=6, max_reactions=8), st.permutations(range(8)))
@example(
    # a species on both sides (X1), a catalyst with no net change (X5) and a
    # reaction that adds no species and no rank (R3)
    net=parse_network("X2 + X1 -> 2 X1 + X3 @R1\nX3 + X5 -> X4 + X5 @R2\nX4 -> X3 @R3"),
    order=[0, 1, 2, 3, 4, 5, 6, 7],
)
def test_growing_a_basis_one_reaction_at_a_time(net, order):
    # after each reaction the rows are the primitive RREF of the set's left
    # nullspace (the Fraction oracle's, over the parent's species), its mask
    # holds the set's species, and a reaction that adds no species and no
    # rank returns the basis it was given
    parent = concord._Parent(net)
    basis = parent.basis([])
    key = []
    for cand in (r for r in order if r < len(net.reactions)):
        grown = parent.grow(basis, cand)
        key.append(cand)
        rows, present = grown[0].rows, grown[1]
        want = _left_nullspace(net, key)
        assert rows == [oracles.scale_to_integers(row) for row in want]
        species = subnetwork(net, sorted(key)).species
        assert present == sum(1 << net.species.index(name) for name in species)
        same_rank = len(want) - len(basis[0].rows) == present.bit_count() - basis[1].bit_count()
        assert (grown is basis) == (present == basis[1] and same_rank)
        basis = grown


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    networks(max_species=6, max_reactions=8),
    st.data(),
    st.sampled_from((3, 12, DEFAULT_NODE_BUDGET)),
)
def test_m3cr_with_a_shared_store_on_larger_networks(net, data, node_budget):
    # the species in a drawn order, unlike every reaction set's subnetwork
    net = Network(net.reactions, data.draw(st.permutations(net.species)))
    mandatory = data.draw(
        st.lists(
            st.sampled_from(net.reactions), min_size=1, max_size=3, unique_by=lambda r: r.arrow
        )
    )

    def outcome(construct):
        try:
            return construct(net, mandatory, node_budget)
        except ValueError as error:
            return str(error)

    assert outcome(m3cr) == outcome(oracles.m3cr)


def test_the_block_store_is_reused_within_an_m3cr_call(monkeypatch):
    # some search meets a block whose circuits an earlier search of the call
    # enumerated
    handed, enumerated_before = [], []
    split = concord._blocks

    def recording(rows, count, store):
        assert store is not None
        blocks = split(rows, count, store)
        handed.extend(blocks)
        enumerated_before.extend(block for block in blocks if block._circuits is not False)
        return blocks

    monkeypatch.setattr(concord, "_blocks", recording)
    report = m3cr(REDUCED, common_reactions(REDUCED, MACLEAN))
    assert report.search_nodes == 316
    assert enumerated_before
    assert len({id(block) for block in handed}) < len(handed)
    # m3cr asks for no witness, so no block holds an LP answer
    assert not any(block.answers for block in handed)


# --- certificate pruning against the search without certificates ----------


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.data())
def test_signed_point_from_masks_matches_the_sign_list_oracle(count, data):
    # the LP built straight from the masks, against the oracle's LP built
    # from the sign list of the same masks
    entries = st.lists(st.integers(-3, 3), min_size=count, max_size=count)
    rows = data.draw(st.lists(entries, max_size=3))
    masks = _masks(_sign_list(data, count))
    solved = _signed_point(rows, range(count), masks)
    want = oracles.signed_point(rows, oracles._signs(count, masks))
    assert (solved is None) == (want is None)
    # the circuits of the rows refute exactly the infeasible patterns
    assert _refuted(_circuits(range(count), rows) if rows else [], masks) == (want is None)
    if want is not None:
        assert _read(([solved], *solved[3:]), count) == _shown(oracles.masked(want))


def test_one_row_closed_form_matches_the_lp_on_every_small_row():
    # every integer row over 1-3 coordinates with entries in -2..2, under
    # every (+, -, 0, free) wish per coordinate, against the oracle's LP;
    # the closed form sees the coordinates spread out, as a block does, and
    # the row's circuits refute exactly the wishes with no point
    kinds = set()
    for count in (1, 2, 3):
        coords = [2 * k + 1 for k in range(count)]
        for row, signs in product(
            product(range(-2, 3), repeat=count), product((1, -1, 0, None), repeat=count)
        ):
            plus, minus, zero = _masks(signs)
            spread = tuple(sum(1 << j for k, j in enumerate(coords) if m >> k & 1)
                           for m in (plus, minus, zero))
            solved = _signed_point([list(row)], coords, spread)
            want = oracles.signed_point([list(row)], signs)
            b = sum(-w if s == 1 else w if s == -1 else 0 for w, s in zip(row, signs))
            kinds.add("b = 0" if not b else "infeasible" if want is None else "feasible")
            if all(s == 0 for s in signs):
                kinds.add("no columns")
            assert _refuted(_circuits(coords, [list(row)]), spread) == (want is None)
            if want is None:
                assert solved is None
            else:
                assert solved[0] == coords
                assert repr(list(_assemble([solved], 2 * count)[1::2])) == repr(want)
                assert solved[3:] == oracles.masked(want, coords)[1:]
    assert kinds == {"b = 0", "no columns", "feasible", "infeasible"}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    networks(max_species=5, max_reactions=7),
    st.data(),
    st.sampled_from((3, 12, DEFAULT_NODE_BUDGET)),
)
def test_certificates_change_nothing_but_the_solve_count(net, data, node_budget):
    # the species in a drawn order, which check_concordance keeps
    net = Network(net.reactions, data.draw(st.permutations(net.species)))
    calls = []
    with patch.object(concord, "lp_feasible", _counted(calls)):
        verdict = check_concordance(net, node_budget)
    oracle = oracles.CertificateFreeSearch(net, node_budget)
    want = oracle.run()
    assert (verdict.status, repr(verdict.witness), verdict.search_nodes) == (
        want.status, repr(want.witness), want.search_nodes
    )
    assert len(calls) <= oracle.solves
    if verdict.status == "Discordant":
        assert verify_witness(net, verdict.witness)


def test_a_pattern_the_carried_point_misses_gets_its_own_lp_point():
    # the search keeps no pool of earlier points: where the carried alpha does
    # not fit a pattern, that pattern's own LP answers, here with -R5 - R6,
    # although an earlier point, 2 R1 - 2 R2 - R5 - R6 + R7, fits it too
    net = parse_network(
        """
        X0 + 2 X1 -> X6 @R1
        2 X0 + 2 X1 -> 0 @R2
        0 -> 2 X0 + 2 X1 @R3
        2 X0 + 2 X7 -> 2 X3 @R4
        X7 + X5 -> 2 X6 + X5 @R5
        2 X6 + X5 -> X7 + X5 @R6
        2 X0 + 2 X6 -> 0 @R7
        """
    )
    assert net.species == ("X0", "X1", "X6", "X7", "X3", "X5")
    verdict = check_concordance(net)
    assert (verdict.status, verdict.search_nodes) == ("Discordant", 8)
    assert verdict.witness == SignWitness(
        tuple(map(Fraction, (0, 0, 0, 0, -1, -1, 0))),
        tuple(map(Fraction, (1, -1, -1, -1, 5, 0))),
    )
    assert verify_witness(net, verdict.witness)
    want = oracles.CertificateFreeSearch(net, DEFAULT_NODE_BUDGET).run()
    assert (verdict.status, repr(verdict.witness), verdict.search_nodes) == (
        want.status, repr(want.witness), want.search_nodes
    )


@settings(max_examples=150, deadline=None)
@given(networks(max_species=5, max_reactions=7), st.data())
def test_every_pattern_a_row_certificate_refutes_is_infeasible(net, data):
    # a pattern is drawn to fit one row certificate (oracles.row_certificates:
    # wanted + or 0 where it is positive, - or 0 where it is negative, one of
    # them signed, anything elsewhere); the LP of the certificate-free oracle
    # must find no point, and a circuit of the side must refute it
    search = _Parent(net).whole(DEFAULT_NODE_BUDGET)
    side = data.draw(st.sampled_from([s for s in (search.alpha, search.sigma) if s.rows]))
    row_certs = oracles.row_certificates(side.rows)
    wpos, wneg = data.draw(st.sampled_from(row_certs))
    signs = []
    for j in range(side.count):
        if wpos >> j & 1:
            signs.append(data.draw(st.sampled_from((1, 0))))
        elif wneg >> j & 1:
            signs.append(data.draw(st.sampled_from((-1, 0))))
        else:
            signs.append(data.draw(st.sampled_from((1, -1, 0, None))))
    support = [j for j in range(side.count) if (wpos | wneg) >> j & 1]
    signed = data.draw(st.sampled_from(support))
    signs[signed] = 1 if wpos >> signed & 1 else -1
    masks = _masks(signs)
    assert _refuted(row_certs, masks)
    assert side.point(masks, ([], 0, 0)) is None
    assert oracles.signed_point(side.rows, signs) is None
    assert any(_refuted(block.circuits(), masks) for block in side._build())


# --- the LP split along its independent blocks ------------------------------


@st.composite
def _block_diagonal(draw):
    """Integer rows in blocks on disjoint, shuffled columns, some columns in
    no row, the rows of all blocks interleaved."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    count = sum(sizes) + draw(st.integers(0, 2))
    columns = draw(st.permutations(range(count)))
    rows = []
    for b in range(len(sizes)):
        block = columns[sum(sizes[:b]):sum(sizes[:b + 1])]
        for _ in range(draw(st.integers(1, 2))):
            row = [0] * count
            for j in block:
                row[j] = draw(st.integers(-3, 3))
            rows.append(row)
    return draw(st.permutations(rows)), count


@settings(max_examples=300, deadline=None)
@given(_block_diagonal(), st.data())
def test_block_solve_matches_the_whole_lp(system, data):
    # one side answers a run of patterns, so later ones meet cached blocks
    # (rows of one block may be dependent); its circuits refute exactly the
    # patterns with no point
    rows, count = system
    side = _Side(rows, count, {})
    blocks = side._build()
    for _ in range(6):
        signs = _sign_list(data, count)
        masks = _masks(signs)
        solved = side.point(masks, _ORIGIN)
        want = oracles.signed_point(rows, signs)
        assert (solved is None) == (want is None)
        assert any(_refuted(block.circuits(), masks) for block in blocks) == (want is None)
        if want is not None:
            assert _read(solved, count) == _shown(oracles.masked(want))


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_alpha_blocks_are_the_fid_blocks(name):
    # the rows of N split as the finest independent decomposition does
    net = fixtures.load(name)
    search = _Parent(net).whole(DEFAULT_NODE_BUDGET)
    assert [tuple(block.coords) for block in search.alpha._build()] == list(fid(net).blocks)


def _as_tuples(blocks):
    return [(block.coords, block.mask, block.rows, block.answers) for block in blocks]


def _assert_set_up_as_before(net):
    # the search's rows and blocks are those of the set-up that eliminated
    # with a shared denominator, took the left nullspace of every reaction
    # and split each row by scanning it
    assert reaction_vectors(net) == oracles.coefficient_reaction_vectors(net)
    search = _Parent(net).whole(DEFAULT_NODE_BUDGET)
    assert search.order == oracles.CertificateFreeSearch(net, DEFAULT_NODE_BUDGET).order
    for side, rows in zip((search.alpha, search.sigma), oracles.search_rows(net)):
        assert side.rows == rows
        assert _as_tuples(side._build()) == oracles.row_blocks(rows, side.count)


@settings(max_examples=200, deadline=None)
@given(networks(max_species=5, max_reactions=7), st.data())
def test_search_set_up_matches_the_old_one(net, data):
    # the species in a drawn order, which the whole-network search keeps
    _assert_set_up_as_before(Network(net.reactions, data.draw(st.permutations(net.species))))


@pytest.mark.parametrize("name", fixtures.NAMES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_search_set_up_matches_the_old_one_on_fixture_subsets(name, data):
    net = fixtures.load(name)
    keep = data.draw(
        st.lists(st.integers(0, len(net.reactions) - 1), min_size=1, unique=True), label="keep"
    )
    _assert_set_up_as_before(subnetwork(net, keep))


def test_sides_with_a_zero_row_or_no_rows():
    zero = ([], 0, 0)
    side = _Side([[0]], 1, {})
    assert _as_tuples(side._build()) == oracles.row_blocks([[0]], 1) == [([0], 1, [], {})]
    assert [block.circuits() for block in side.blocks] == [[]]
    assert _read(side.point((1, 0, 0), zero), 1) == _shown(oracles.masked([Fraction(1)]))
    assert _read(side.point((0, 1, 0), zero), 1) == _shown(oracles.masked([Fraction(-1)]))
    empty = _Side([], 3, {})
    assert _as_tuples(empty._build()) == oracles.row_blocks([], 3) == [
        ([0], 1, [], {}), ([1], 2, [], {}), ([2], 4, [], {})
    ]
    point = empty.point((0b001, 0b100, 0b010), zero)
    assert _read(point, 3) == _shown(oracles.masked([Fraction(1), Fraction(0), Fraction(-1)]))
    # x1 - x2 = 0: its circuits, the row and its negation, refute x1 >= 1
    # with x2 = 0 and x2 >= 1 with x1 <= -1; nothing refutes x1, x2 >= 1 or
    # an unassigned x2
    circuits = _circuits([0, 1], [[1, -1]])
    assert circuits == [(0b01, 0b10), (0b10, 0b01)]
    assert _refuted(circuits, (0b01, 0, 0b10))
    assert _refuted(circuits, (0b10, 0b01, 0))
    assert not _refuted(circuits, (0b11, 0, 0))
    assert not _refuted(circuits, (0b01, 0, 0))


def test_species_in_no_left_null_row_are_signed_without_an_lp(lp_calls):
    search = _Parent(LEE).whole(DEFAULT_NODE_BUDGET)
    loose = [block.coords[0] for block in search.sigma._build() if not block.rows]
    assert len(loose) == 3
    masks = (1 << loose[0], 1 << loose[1], 1 << loose[2])
    parts, pos, neg = search.sigma.point(masks, ([], 0, 0))
    assert not lp_calls
    assert (pos, neg) == masks[:2]
    point = _assemble(parts, search.species_count)
    assert point == tuple(1 if j == loose[0] else -1 if j == loose[1] else 0 for j in range(len(point)))


def _assert_off_support_sigma_matches_the_elimination(net):
    search = _Parent(net).whole(DEFAULT_NODE_BUDGET)
    want = oracles.off_support_sigma(search.sigma.rows, search.order, search.species_count)
    assert repr(search._off_support_sigma()) == repr(want)


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_off_support_sigma_matches_the_elimination_on_fixtures(name):
    _assert_off_support_sigma_matches_the_elimination(fixtures.load(name))


def test_off_support_sigma_takes_no_nullspace_when_no_species_is_free(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(rows)
        return linalg._integer_nullspace(rows)

    # every species is a reactant
    search = _Parent(parse_network("A -> B @R1\nB -> A @R2")).whole(DEFAULT_NODE_BUDGET)
    monkeypatch.setattr(concord, "_integer_nullspace", counting)
    assert search._off_support_sigma() is None
    assert calls == []
    # B and C are no reactant, so their nullspace is taken
    monkeypatch.undo()
    search = _Parent(parse_network("A -> B @R1\nA -> C @R2")).whole(DEFAULT_NODE_BUDGET)
    monkeypatch.setattr(concord, "_integer_nullspace", counting)
    assert search._off_support_sigma() == [Fraction(0), Fraction(-1), Fraction(1)]
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text, want",
    [
        # every species is a reactant: nothing is off the supports
        ("A -> B @R1\nB -> A @R2", None),
        # the image is all of R^2, so no left-null rows; B is no reactant
        ("A -> B @R1\n0 -> A @R2", [0, 1]),
        # B alone is free and A + B is conserved: its column is independent
        ("A -> B @R1", None),
        # B and C are free and A + B + C is conserved: on B, C its row (1, 1) leaves C - B
        ("A -> B @R1\nA -> C @R2", [0, -1, 1]),
    ],
)
def test_off_support_sigma_hand_cases(text, want):
    net = parse_network(text)
    _assert_off_support_sigma_matches_the_elimination(net)
    got = _Parent(net).whole(DEFAULT_NODE_BUDGET)._off_support_sigma()
    assert got == (None if want is None else [Fraction(v) for v in want])


@settings(max_examples=200, deadline=None)
@given(networks(max_species=5, max_reactions=7))
def test_off_support_sigma_matches_the_elimination(net):
    # with every species a reactant, the search skips the elimination
    _assert_off_support_sigma_matches_the_elimination(net)


# --- the search against the point-carrying search ---------------------------
#
# oracles.CertificateFreeSearch carries a point down the tree and answers
# each pattern from it, from its alpha cache, or by one LP. The library
# decides each pattern by circuits and rebuilds the witness along the leaf's
# path, so verdict, witness and node count must be the same, and also with
# every block of two or more rows over the circuit bound, deciding by LP.

BOUNDS = [concord._CIRCUIT_SUBSETS, 0]


def _assert_as_the_point_carrying_search(net, node_budget, bound):
    with patch.object(concord, "_CIRCUIT_SUBSETS", bound):
        verdict = check_concordance(net, node_budget)
    want = oracles.CertificateFreeSearch(net, node_budget).run()
    assert (verdict.status, repr(verdict.witness), verdict.search_nodes) == (
        want.status, repr(want.witness), want.search_nodes
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    networks(max_species=6, max_reactions=8),
    st.data(),
    st.sampled_from((3, 12, DEFAULT_NODE_BUDGET)),
)
def test_search_over_the_circuit_bound_is_the_point_carrying_search(net, data, node_budget):
    # at the bound, test_certificates_change_nothing_but_the_solve_count
    net = Network(net.reactions, data.draw(st.permutations(net.species)))
    _assert_as_the_point_carrying_search(net, node_budget, 0)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", fixtures.NAMES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_search_on_fixture_subsets_is_the_point_carrying_search(name, bound, data):
    net = fixtures.load(name)
    keep = data.draw(
        st.lists(st.integers(0, len(net.reactions) - 1), min_size=1, unique=True), label="keep"
    )
    _assert_as_the_point_carrying_search(subnetwork(net, keep), DEFAULT_NODE_BUDGET, bound)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", fixtures.NAMES)
def test_search_on_the_fixtures_is_the_point_carrying_search(name, bound):
    _assert_as_the_point_carrying_search(fixtures.load(name), DEFAULT_NODE_BUDGET, bound)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name, other", [*M3CR_PAIRS, ("fal", "maclean")])
def test_m3cr_is_the_point_carrying_construction(name, other, bound):
    net = _network(name)
    shared = common_reactions(net, _network(other))
    with patch.object(concord, "_CIRCUIT_SUBSETS", bound):
        report = m3cr(net, shared)
    assert report == oracles.m3cr(net, shared, check=oracles.certificate_free_verdict)


# --- circuits against the plain enumeration --------------------------------


@st.composite
def _matrices_with_parallel_columns(draw):
    """Integer rows whose columns include zero, repeated, negated and scaled
    copies of others, in a drawn order; the rows may be dependent."""
    height = draw(st.integers(1, 4))
    columns = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=height, max_size=height), min_size=1, max_size=7
        )
    )
    copies = draw(
        st.lists(
            st.tuples(st.integers(0, len(columns) - 1), st.sampled_from((0, 1, -1, 2, -3))),
            max_size=4,
        )
    )
    columns += [[factor * x for x in columns[k]] for k, factor in copies]
    columns = draw(st.permutations(columns))
    return [list(row) for row in zip(*columns)]


def _spread(masks, coords):
    """Masks over entries, moved onto the coordinates ``coords``."""
    return {
        tuple(sum(1 << j for k, j in enumerate(coords) if mask >> k & 1) for mask in pair)
        for pair in masks
    }


@settings(max_examples=300, deadline=None)
@given(_matrices_with_parallel_columns(), st.data())
def test_circuits_match_the_plain_enumeration(rows, data):
    count = len(rows[0])
    coords = sorted(
        data.draw(st.lists(st.integers(0, 14), min_size=count, max_size=count, unique=True))
    )
    found = _circuits(coords, rows)
    assert len(found) == len(set(found))
    assert set(found) == _spread(oracles.plain_circuits(rows), coords)
    # over the bound a block decides by LP, but one row is its own circuit
    want = found if len(rows) == 1 else None if any(map(any, rows)) else []
    with patch.object(concord, "_CIRCUIT_SUBSETS", 0):
        assert _circuits(coords, rows) == want


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_circuits_of_the_fixture_blocks_match_the_plain_enumeration(name):
    search = _Parent(fixtures.load(name)).whole(DEFAULT_NODE_BUDGET)
    for side in (search.alpha, search.sigma):
        for block in side._build():
            want = _spread(oracles.plain_circuits(block.rows), range(len(block.coords)))
            assert set(block.circuits()) == _spread(want, block.coords)


def test_the_circuit_bound_counts_subsets():
    # the schmitz 6-row reaction block over 11 reactions: 8 column classes
    # and rank 6, so C(8, 5) = 56 subsets
    search = _Parent(SCHMITZ).whole(DEFAULT_NODE_BUDGET)
    block = max(search.alpha._build(), key=lambda block: len(block.rows))
    assert (len(block.rows), len(block.coords)) == (6, 11)
    with patch.object(concord, "_CIRCUIT_SUBSETS", 55):
        assert _circuits(block.coords, block.rows) is None
    with patch.object(concord, "_CIRCUIT_SUBSETS", 56):
        assert set(_circuits(block.coords, block.rows)) == set(block.circuits())
