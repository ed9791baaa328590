"""Mass-action kinetics: right-hand sides, residuals, and equilibrium parametrizations.

One evaluator computes reaction rates and species rates for every kinetic
path in the package, ``transform.KineticSystem`` included. It computes in
the number type of its inputs: floats give binary64 results, and
``fractions.Fraction`` gives exact ones, so a closed-form equilibrium can be
checked to zero the rate equations exactly. The robustness scan and the CLI
draw floats and compare against tolerances.

Rate constants, concentrations and free parameters, here and in
``transform.RatedReaction``, pass one rule, ``_positive``: positive and finite.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from numbers import Real

from . import fixtures
from .core import Complex, Network

__all__ = [
    "SpeciesSpread",
    "acr_scan",
    "equilibrium_residual",
    "free_parameters",
    "mass_action_rhs",
    "parametrization",
    "parametrization_names",
]


def _positive(value: Real, what: str) -> Real:
    """``value``, if it is positive and finite; ``what`` names it in the error."""
    if not 0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite")
    return value


def _rate_constants(net: Network, k: Mapping[str, Real]) -> list[Real]:
    """The rate constants in reaction order, checked to pair one to one with
    the labelled reactions and to be positive and finite."""
    labels = net.labels
    if None in labels:
        raise ValueError("every reaction needs a label to pair with a rate constant")
    missing = [label for label in labels if label not in k]
    if missing:
        raise ValueError(f"missing rate constant for {missing[0]}")
    extra = sorted(set(k) - set(labels))
    if extra:
        raise ValueError(f"unknown rate constant {extra[0]}")
    return [_positive(k[label], f"rate constant for {label}") for label in labels]


def _check_concentrations(species: Iterable[str], x: Mapping[str, Real]) -> None:
    """Check that ``x`` gives every one of ``species`` a positive, finite
    concentration."""
    for name in species:
        if name not in x:
            raise ValueError(f"missing concentration for {name}")
        _positive(x[name], f"concentration of {name}")


def _rate(k: Real, exponents: Complex, x: Mapping[str, Real]) -> Real:
    """The monomial ``k * Π x[s]**e`` over the (species, exponent) pairs."""
    for name, power in exponents:
        k *= x[name] ** power
    return k


def _species_rates(
    species: Sequence[str],
    reactions: Iterable[tuple[Real, Complex, Complex, Complex]],
    x: Mapping[str, Real],
) -> tuple[dict[str, Real], dict[str, Real]]:
    """Net and gross production of each species at ``x``, once ``x`` is
    checked by ``_check_concentrations``.

    ``reactions`` yields (rate constant, rate exponents, reactant, product).
    The arithmetic stays in the type of the inputs: floats give floats,
    ``Fraction``s give exact results.
    """
    _check_concentrations(species, x)
    f = dict.fromkeys(species, 0)
    gross = dict.fromkeys(species, 0)
    for k, exponents, reactant, product in reactions:
        rate = _rate(k, exponents, x)
        for name, coeff in reactant:
            f[name] -= rate * coeff
        for name, coeff in product:
            f[name] += rate * coeff
            gross[name] += rate * coeff
    return f, gross


def _mass_action_reactions(
    net: Network, constants: Sequence[Real]
) -> Iterable[tuple[Real, Complex, Complex, Complex]]:
    """The ``_species_rates`` reactions of ``net`` under mass action, with
    ``constants`` from ``_rate_constants``."""
    return ((c, rxn.reactant, rxn.reactant, rxn.product) for c, rxn in zip(constants, net.reactions))


def mass_action_rhs(
    net: Network, k: Mapping[str, Real], x: Mapping[str, Real]
) -> dict[str, Real]:
    """The species-formation rate f(x) = N·K(x) under mass-action kinetics."""
    return _species_rates(net.species, _mass_action_reactions(net, _rate_constants(net, k)), x)[0]


def equilibrium_residual(
    net: Network, k: Mapping[str, Real], x: Mapping[str, Real]
) -> Real:
    """max_i |f_i| / max(1, gross production of species i); 0 at equilibria."""
    return _residual(net, _rate_constants(net, k), x)


def _residual(net: Network, constants: Sequence[Real], x: Mapping[str, Real]) -> Real:
    """``equilibrium_residual`` with ``constants`` from ``_rate_constants``."""
    f, gross = _species_rates(net.species, _mass_action_reactions(net, constants), x)
    return max(abs(f[name]) / max(1, gross[name]) for name in net.species)


# --- built-in equilibrium parametrizations ----------------------------------


@dataclass(frozen=True)
class _Parametrization:
    free_names: tuple[str, ...]
    evaluate: object  # (k-by-index, free) -> species map


def _schmitz_point(k, free):
    s1, t2 = free["sigma1"], free["tau2"]
    s2 = (
        k[16] * k[6] * k[11] * (k[5] + k[10]) * s1
        / (k[17] * k[4] * k[10] * (k[7] + k[11]))
    )
    den = k[2] * s2 + k[3] * s1 + s1 * s2
    return {
        "A1": s1 * (k[5] + k[10]) / (k[4] * k[10]),
        "A2": k[14] * s1 * (k[5] + k[10]) / (k[4] * k[10] * k[15]),
        "A3": s2 * (k[7] + k[11]) / (k[6] * k[11]),
        "A4": k[1] * (k[3] + s2) / den,
        "A5": k[1] * k[2] / den,
        "A6": t2,
        "A7": k[1] * k[2] * k[8] * t2 / (k[9] * den),
        "A8": k[1] * s1 * (k[3] + s2) / (k[10] * den),
        "A9": k[1] * k[2] * s2 / (k[11] * den),
        "A10": k[1] * s1 * (k[3] + s2) / (k[12] * den),
        "A11": k[1] * k[2] * s2 / (k[13] * den),
    }


def _fal_point(k, free):
    s2, a7, a23 = free["sigma2"], free["a7"], free["a23"]
    a13 = k[54] / s2
    a2 = k[55] * s2 * a23 / (k[54] * (k[53] + s2))
    den = k[38] * k[5] * k[14] + k[38] * k[14] * k[45] + a2 * k[4] * k[15] * k[45]
    a27 = (
        a23 * k[1] * k[14] * k[44] * k[48] * k[51] * (k[5] + k[45])
        / (k[43] * k[47] * k[52] * den)
    )
    return {
        "A1": a2 * k[15] / k[14],
        "A2": a2,
        "A4": k[1] * k[14] * (k[5] + k[45]) / den,
        "A6": a7 * k[50] * den / (k[1] * k[14] * k[49] * (k[5] + k[45])),
        "A7": a7,
        "A8": a2 * k[1] * k[4] * k[15] / den,
        "A10": a2 * k[1] * k[4] * k[15] * k[45] / (k[12] * den),
        "A12": a13 * k[19] / k[18],
        "A13": a13,
        "A23": a23,
        "A24": a27 * k[52] * den / (k[1] * k[14] * k[51] * (k[5] + k[45])),
        "A25": a2 * k[1] * k[4] * k[15] * k[45] / (k[46] * den),
        "A26": k[47] / k[48],
        "A27": a27,
        "A28": a23 * k[53] * k[55] / (k[56] * (k[53] + s2)),
    }


def _maclean_point(k, free):
    s1, s2 = free["sigma1"], free["sigma2"]
    d12, t12, t13 = free["d12"], free["tau12"], free["tau13"]
    big1 = (
        (k[5] + k[36]) * s1 * k[6] * k[1]
        * (k[2] * k[7] + k[2] * k[37] + s2 * k[37] + k[39] * k[37]
           + k[3] * k[7] + k[39] * k[7])
    )
    big2 = k[4] * k[6] * k[1] * (k[5] + k[36]) * (
        k[37] * s2 + (k[3] + k[39]) * (k[7] + k[37])
    )
    big3 = k[4] * k[6] * k[2] * k[1] * (k[5] + k[36]) * (k[7] + k[37])
    big4 = k[4] * k[2] * s2 * k[1] * (k[5] + k[36]) * (k[7] + k[37])
    big5 = (
        k[4] * s1 * k[6] * k[1]
        * (k[2] * k[7] + k[2] * k[37] + s2 * k[37] + k[39] * k[37]
           + k[3] * k[7] + k[39] * k[7])
    )
    big6 = k[4] * k[6] * (
        k[36] * s1 * (k[7] * k[2] + k[7] * k[3] + k[37] * k[2]
                      + k[7] * k[39] + k[37] * k[39] + k[37] * s2)
        + (k[5] + k[36]) * (k[37] * s2 * k[2] + k[7] * k[39] * k[2]
                            + k[37] * k[39] * k[2] + k[37] * s2 * k[38]
                            + k[7] * k[3] * k[38] + k[7] * k[39] * k[38]
                            + k[37] * k[3] * k[38] + k[37] * k[39] * k[38])
    )
    big7 = k[4] * k[6] * k[2] * s2 * k[1] * (k[5] + k[36])
    ratio13 = (k[21] / k[20]) * ((k[25] + k[26]) / (k[24] * k[26])) * k[29] \
        * (big3 / big4) * t13
    cross = (big1 * big3) / (big2 * big4)
    return {
        "A1": big1 / big2,
        "A2": (k[23] / k[22]) * ((k[28] + k[29]) / k[27]) * (t13 / t12),
        "A3": big4 / big3,
        "A4": big2 / big6,
        "A5": big3 / big6,
        "A6": d12,
        "A7": (k[8] / k[9]) * (big3 / big6) * d12,
        "A8": big5 / big6,
        "A9": big7 / big6,
        "A12": (k[19] / k[18]) * ratio13,
        "A13": ratio13,
        "A14": ((k[25] + k[26]) / (k[24] * k[26])) * k[29] * (big3 / big4) * t13,
        "A15": ((k[28] + k[29]) / k[27]) * (t13 / t12),
        "A16": (k[21] / k[20]) * (k[22] / k[23]) * (k[29] / k[35])
        * (k[27] / (k[24] * k[26])) * ((k[25] + k[26]) / (k[28] + k[29]))
        * ((k[30] * k[32]) / k[33]) * ((k[34] + k[35]) / (k[31] + k[32]))
        * cross * t12,
        "A17": t12,
        "A18": (k[21] / k[20]) * ((k[29] * k[30]) / (k[24] * k[26]))
        * ((k[25] + k[26]) / (k[31] + k[32])) * cross * t13,
        "A19": (k[29] / k[26]) * t13,
        "A20": (k[32] / k[35]) * (k[21] / k[20]) * ((k[29] * k[30]) / (k[24] * k[26]))
        * ((k[25] + k[26]) / (k[31] + k[32])) * cross * t13,
        "A21": t13,
    }


_PARAMETRIZATIONS = {
    "schmitz": _Parametrization(("sigma1", "tau2"), _schmitz_point),
    "fal": _Parametrization(("sigma2", "a7", "a23"), _fal_point),
    "maclean": _Parametrization(("sigma1", "sigma2", "d12", "tau12", "tau13"), _maclean_point),
}


def parametrization_names() -> tuple[str, ...]:
    return tuple(_PARAMETRIZATIONS)


def free_parameters(name: str) -> tuple[str, ...]:
    return _fixture(name).free_names


def _fixture(name: str) -> _Parametrization:
    try:
        return _PARAMETRIZATIONS[name]
    except KeyError:
        raise ValueError(
            f"no equilibrium parametrization for {name!r};"
            f" choose one of {', '.join(_PARAMETRIZATIONS)}"
        ) from None


def parametrization(
    name: str, k: Mapping[str, Real], free: Mapping[str, Real]
) -> dict[str, Real]:
    """A positive equilibrium of the named model at the given parameters.

    ``Fraction`` rate constants and free parameters give the exact point.
    """
    fixture = _fixture(name)
    if set(free) != set(fixture.free_names):
        raise ValueError(
            f"free parameters for {name} are {', '.join(fixture.free_names)}"
        )
    for pname, value in free.items():
        _positive(value, f"free parameter {pname}")
    net = fixtures.load(name)
    return _equilibrium(name, net, _rate_constants(net, k), free)


def _equilibrium(
    name: str, net: Network, constants: Sequence[Real], free: Mapping[str, Real]
) -> dict[str, Real]:
    """``parametrization`` with ``constants`` from ``_rate_constants`` and
    ``free`` already checked; each concentration is still checked."""
    indexed = {int(rxn.label[1:]): c for rxn, c in zip(net.reactions, constants)}
    point = _PARAMETRIZATIONS[name].evaluate(indexed, dict(free))
    return {
        species: _positive(point[species], f"parametrized concentration of {species}")
        for species in net.species
    }


@dataclass(frozen=True)
class SpeciesSpread:
    """Observed equilibrium spread of one species across sampled parameters."""

    constant: bool
    spread: float
    value: float | None


def acr_scan(
    name: str,
    k: Mapping[str, float],
    sample_count: int = 100,
    seed: int = 0,
) -> dict[str, SpeciesSpread]:
    """Scan sampled equilibria for species whose value never moves.

    Free parameters are drawn log-uniformly from [1e-2, 1e2]; a species
    counts as constant when its relative spread across all samples stays
    below 1e-9. The rate constants are checked once, before the first draw.
    """
    if sample_count < 2:
        raise ValueError("sample_count must be at least 2")
    fixture = _fixture(name)
    net = fixtures.load(name)
    constants = _rate_constants(net, k)
    rng = random.Random(seed)
    values: dict[str, list[float]] = {}
    for _ in range(sample_count):
        free = {pname: 10.0 ** rng.uniform(-2.0, 2.0) for pname in fixture.free_names}
        point = _equilibrium(name, net, constants, free)
        for species, value in point.items():
            values.setdefault(species, []).append(value)
    report = {}
    for species, samples in values.items():
        top = max(samples)
        spread = (top - min(samples)) / top
        constant = spread < 1e-9
        report[species] = SpeciesSpread(constant, spread, top if constant else None)
    return report
