"""Tests for mass-action rates, residuals, equilibria, and the robustness scan."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st
from netgen import networks

from crnkit import fixtures, kinetics
from crnkit.core import parse_network
from crnkit.decomp import fid
from crnkit.kinetics import (
    acr_scan,
    equilibrium_residual,
    free_parameters,
    mass_action_rhs,
    parametrization,
    parametrization_names,
)
from crnkit.transform import KineticSystem

SCHMITZ = fixtures.load("schmitz")
FAL = fixtures.load("fal")
MACLEAN = fixtures.load("maclean")
LINE = parse_network("A -> B @R1")

MODELS = ("schmitz", "fal", "maclean")


def random_rates(net, rng):
    return {rxn.label: 10.0 ** rng.uniform(-1.0, 1.0) for rxn in net.reactions}


def random_free(name, rng):
    return {p: 10.0 ** rng.uniform(-2.0, 2.0) for p in free_parameters(name)}


def random_fraction(rng):
    return Fraction(rng.randint(1, 99), rng.randint(1, 99))


# --- right-hand side oracles (hand-computed) ---------------------------------


def test_rhs_matches_hand_computation_on_two_reactions():
    # rate(R1) = 2 * 3 * 0.5 = 3, rate(R2) = 5 * 2 = 10
    net = parse_network("A + B -> C @R1\nC -> A @R2")
    f = mass_action_rhs(net, {"R1": 2.0, "R2": 5.0}, {"A": 3.0, "B": 0.5, "C": 2.0})
    assert f == {"A": 7.0, "B": -3.0, "C": -7.0}


def test_rhs_squares_the_doubled_reactant():
    net = parse_network("2 A -> B @R1")
    f = mass_action_rhs(net, {"R1": 4.0}, {"A": 3.0, "B": 1.0})
    assert f == {"A": -72.0, "B": 36.0}


def test_rhs_of_pure_inflow_ignores_concentrations():
    net = parse_network("0 -> A @R1")
    assert mass_action_rhs(net, {"R1": 2.5}, {"A": 7.0}) == {"A": 2.5}


def test_rhs_rejects_bad_input():
    net = parse_network("A -> B @R1")
    with pytest.raises(ValueError, match="positive"):
        mass_action_rhs(net, {"R1": 1.0}, {"A": 0.0, "B": 1.0})
    with pytest.raises(ValueError, match="missing rate constant"):
        mass_action_rhs(net, {}, {"A": 1.0, "B": 1.0})
    with pytest.raises(ValueError, match="unknown rate constant"):
        mass_action_rhs(net, {"R1": 1.0, "R9": 1.0}, {"A": 1.0, "B": 1.0})
    with pytest.raises(ValueError, match="R1 must be positive"):
        mass_action_rhs(net, {"R1": -2.0}, {"A": 1.0, "B": 1.0})
    with pytest.raises(ValueError, match="missing concentration"):
        mass_action_rhs(net, {"R1": 1.0}, {"A": 1.0})
    with pytest.raises(ValueError, match="label"):
        mass_action_rhs(parse_network("A -> B"), {}, {"A": 1.0, "B": 1.0})


_X = {"A": 1.0, "B": 1.0}
_FAL_RATES = {rxn.label: 1.0 for rxn in FAL.reactions}
_FAL_FREE = {"sigma2": 1.0, "a7": 1.0, "a23": 1.0}
_LINE_SYSTEM = KineticSystem.mass_action(LINE, {"R1": 1.0})
_LINE_RATE = _LINE_SYSTEM.reactions[0]


# positive means positive and finite, for every kinetic input and on every
# path; an infinite R19 or a7 would come out of the fal parametrization as an
# infinite A12 or A7
@pytest.mark.parametrize(
    "evaluate, message",
    [
        (lambda: mass_action_rhs(LINE, {"R1": math.inf}, _X), "rate constant for R1 must be"),
        (
            lambda: equilibrium_residual(LINE, {"R1": math.inf}, _X),
            "rate constant for R1 must be",
        ),
        (
            lambda: parametrization("fal", {**_FAL_RATES, "R19": math.inf}, _FAL_FREE),
            "rate constant for R19 must be",
        ),
        (
            lambda: mass_action_rhs(LINE, {"R1": 1.0}, {**_X, "A": math.inf}),
            "concentration of A must be",
        ),
        (lambda: _LINE_SYSTEM.rhs({**_X, "A": math.inf}), "concentration of A must be"),
        (lambda: _LINE_SYSTEM.rhs({**_X, "B": math.nan}), "concentration of B must be"),
        (lambda: _LINE_RATE.rate({"A": -math.inf}), "concentration of A must be"),
        (lambda: _LINE_RATE.rate({"A": -2.0}), "concentration of A must be"),
        (lambda: _LINE_SYSTEM.rhs({"B": 1.0}), "missing concentration for A"),
        (lambda: _LINE_RATE.rate({"B": 1.0}), "missing concentration for A"),
        (
            lambda: parametrization("fal", _FAL_RATES, {**_FAL_FREE, "a7": math.inf}),
            "free parameter a7 must be",
        ),
    ],
    ids=["rhs-rate", "residual-rate", "parametrization-rate", "rhs-concentration",
         "system-rhs-concentration", "system-rhs-nan", "rate-concentration",
         "rate-negative-concentration", "system-rhs-missing", "rate-missing",
         "parametrization-free"],
)
def test_infinite_kinetic_inputs_are_refused(evaluate, message):
    with pytest.raises(ValueError, match=message):
        evaluate()


# --- the float kernel the one evaluator replaced (tests/oracles.py) ------------

positive_floats = st.floats(min_value=1e-3, max_value=1e3)


@given(st.data())
def test_float_input_gives_exactly_what_the_float_kernel_gave(data):
    net = data.draw(networks())
    k = {rxn.label: data.draw(positive_floats) for rxn in net.reactions}
    x = {name: data.draw(positive_floats) for name in net.species}
    assert mass_action_rhs(net, k, x) == oracles.mass_action_rhs(net, k, x)
    assert equilibrium_residual(net, k, x) == oracles.equilibrium_residual(net, k, x)


# --- residual normalization ---------------------------------------------------


def test_residual_is_zero_at_a_balanced_exchange():
    net = parse_network("0 -> A @R1\nA -> 0 @R2")
    assert equilibrium_residual(net, {"R1": 1.0, "R2": 1.0}, {"A": 1.0}) == 0.0


def test_residual_of_pure_outflow_is_unscaled():
    # nothing produces A, so the scale floor of 1 applies: |f| = 2 * 3 = 6
    net = parse_network("A -> 0 @R1")
    assert equilibrium_residual(net, {"R1": 2.0}, {"A": 3.0}) == 6.0


def test_residual_scales_by_gross_production():
    net = parse_network("0 -> A @R1")
    assert equilibrium_residual(net, {"R1": 100.0}, {"A": 5.0}) == 1.0
    assert equilibrium_residual(net, {"R1": 0.25}, {"A": 5.0}) == 0.25


# --- built-in equilibrium parametrizations ------------------------------------


def test_parametrization_names_cover_the_three_models():
    assert parametrization_names() == MODELS


def test_free_parameter_names():
    assert free_parameters("schmitz") == ("sigma1", "tau2")
    assert free_parameters("fal") == ("sigma2", "a7", "a23")
    assert free_parameters("maclean") == ("sigma1", "sigma2", "d12", "tau12", "tau13")


def test_free_parameters_pass_straight_through_to_their_species():
    k = {rxn.label: 1.0 for rxn in SCHMITZ.reactions}
    point = parametrization("schmitz", k, {"sigma1": 1.0, "tau2": 0.37})
    assert point["A6"] == 0.37

    k = {rxn.label: 1.0 for rxn in MACLEAN.reactions}
    free = {"sigma1": 1.0, "sigma2": 1.0, "d12": 0.5, "tau12": 2.25, "tau13": 9.0}
    point = parametrization("maclean", k, free)
    assert point["A6"] == 0.5
    assert point["A17"] == 2.25
    assert point["A21"] == 9.0


def test_one_fal_coordinate_is_a_pure_rate_ratio():
    rng = random.Random(5)
    for _ in range(3):
        k = random_rates(FAL, rng)
        point = parametrization("fal", k, random_free("fal", rng))
        assert point["A26"] == pytest.approx(k["R47"] / k["R48"], rel=1e-12)


def test_parametrization_rejects_bad_input():
    k = {rxn.label: 1.0 for rxn in SCHMITZ.reactions}
    with pytest.raises(ValueError, match="no equilibrium parametrization"):
        parametrization("lee", k, {})
    with pytest.raises(ValueError, match="free parameters"):
        parametrization("schmitz", k, {"sigma1": 1.0})
    with pytest.raises(ValueError, match="must be positive"):
        parametrization("schmitz", k, {"sigma1": 1.0, "tau2": -1.0})
    with pytest.raises(ValueError, match="missing rate constant"):
        parametrization("schmitz", dict(list(k.items())[:-1]), {"sigma1": 1.0, "tau2": 1.0})


@pytest.mark.parametrize("name", MODELS)
def test_parametrized_points_are_equilibria_of_parent_and_fid_blocks(name):
    net = fixtures.load(name)
    blocks = fid(net).block_networks()
    rng = random.Random(hash(name) % 1000)
    k = random_rates(net, rng)
    for _ in range(25):
        x = parametrization(name, k, random_free(name, rng))
        assert all(value > 0 for value in x.values())
        assert equilibrium_residual(net, k, x) < 1e-9
        for block in blocks:
            kb = {rxn.label: k[rxn.label] for rxn in block.reactions}
            xb = {s: x[s] for s in block.species}
            assert equilibrium_residual(block, kb, xb) < 1e-9


@pytest.mark.parametrize("name", MODELS)
def test_fraction_parameters_give_exact_equilibria_of_parent_and_fid_blocks(name):
    net = fixtures.load(name)
    blocks = fid(net).block_networks()
    rng = random.Random(MODELS.index(name))
    for _ in range(4):
        k = {rxn.label: random_fraction(rng) for rxn in net.reactions}
        x = parametrization(name, k, {p: random_fraction(rng) for p in free_parameters(name)})
        assert all(type(value) is Fraction for value in x.values())
        assert set(mass_action_rhs(net, k, x).values()) == {0}
        assert equilibrium_residual(net, k, x) == 0
        for block in blocks:
            kb = {rxn.label: k[rxn.label] for rxn in block.reactions}
            xb = {s: x[s] for s in block.species}
            assert set(mass_action_rhs(block, kb, xb).values()) == {0}
        if name == "fal":
            assert x["A26"] == k["R47"] / k["R48"]


@pytest.mark.parametrize("name", MODELS)
def test_perturbing_a_parametrized_point_breaks_the_residual(name):
    net = fixtures.load(name)
    k = {rxn.label: 1.0 for rxn in net.reactions}
    x = parametrization(name, k, {p: 1.0 for p in free_parameters(name)})
    bumped = dict(x)
    bumped[net.species[0]] *= 2.0
    assert equilibrium_residual(net, k, bumped) > 1e-3


# --- robustness scan -----------------------------------------------------------


def test_scan_finds_the_single_robust_fal_species():
    rng = random.Random(23)
    k = random_rates(FAL, rng)
    for seed in range(5):
        report = acr_scan("fal", k, sample_count=40, seed=seed)
        constant = {s for s, row in report.items() if row.constant}
        assert constant == {"A26"}
        assert report["A26"].value == pytest.approx(k["R47"] / k["R48"], rel=1e-9)
        assert report["A26"].spread < 1e-9


@pytest.mark.parametrize("name", ["schmitz", "maclean"])
def test_scan_finds_no_robust_species_elsewhere(name):
    net = fixtures.load(name)
    rng = random.Random(29)
    k = random_rates(net, rng)
    for seed in range(3):
        report = acr_scan(name, k, sample_count=40, seed=seed)
        assert not any(row.constant for row in report.values())
        assert all(row.value is None for row in report.values())


def test_scan_reports_every_species_and_is_seeded():
    k = {rxn.label: 1.0 for rxn in SCHMITZ.reactions}
    report = acr_scan("schmitz", k, sample_count=10, seed=4)
    assert tuple(report) == SCHMITZ.species
    again = acr_scan("schmitz", k, sample_count=10, seed=4)
    assert {s: row.spread for s, row in report.items()} == {
        s: row.spread for s, row in again.items()
    }
    with pytest.raises(ValueError, match="at least 2"):
        acr_scan("schmitz", k, sample_count=1)


@pytest.mark.parametrize(
    "change",
    [{"R1": -1.0}, {"R1": math.inf}, {"R99": 1.0}],
    ids=["negative", "infinite", "unknown"],
)
def test_scan_refuses_a_bad_rate_map_before_any_draw(monkeypatch, change):
    k = {**{rxn.label: 1.0 for rxn in SCHMITZ.reactions}, **change}
    with pytest.raises(ValueError) as want:
        parametrization("schmitz", k, {"sigma1": 1.0, "tau2": 1.0})
    draws = []

    class CountingRandom(random.Random):
        def uniform(self, a, b):
            draws.append((a, b))
            return super().uniform(a, b)

    monkeypatch.setattr(kinetics.random, "Random", CountingRandom)
    with pytest.raises(ValueError) as got:
        acr_scan("schmitz", k, sample_count=10)
    assert str(got.value) == str(want.value)
    assert draws == []


def test_scan_checks_its_rate_map_once(monkeypatch):
    calls = []
    check = kinetics._rate_constants

    def counting(net, k):
        calls.append(None)
        return check(net, k)

    monkeypatch.setattr(kinetics, "_rate_constants", counting)
    acr_scan("fal", {rxn.label: 1.0 for rxn in FAL.reactions}, sample_count=20)
    assert len(calls) == 1
