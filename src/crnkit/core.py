"""Reaction-network data model, the .crn text format, and constituent matrices.

A network is an immutable, ordered value: species order is first-appearance
order (or an explicit caller-supplied order covering exactly the occurring
species), reaction order is source order. Reaction identity is structural —
the (reactant, product) complex pair — so labels decorate but never
distinguish, which is what makes set algebra over reactions from different
models meaningful.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .linalg import Matrix

_SPECIES_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TERM = re.compile(r"(\d+)?\s*([A-Za-z_][A-Za-z0-9_]*)")


class CrnParseError(ValueError):
    """Malformed .crn text; ``line`` is the offending 1-based line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class Complex:
    """A formal combination of species with positive integer coefficients.

    The empty combination is the zero complex (written ``0`` in text form).
    Complexes are immutable and compare by their coefficient maps.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[str, int] | Iterable[tuple[str, int]] = ()) -> None:
        items = dict(terms)
        for species, coeff in items.items():
            if not _SPECIES_TOKEN.fullmatch(species):
                raise ValueError(f"invalid species name {species!r}")
            if not isinstance(coeff, int) or coeff <= 0:
                raise ValueError(f"coefficient of {species} must be a positive integer")
        object.__setattr__(self, "_terms", tuple(sorted(items.items())))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Complex is immutable")

    @property
    def terms(self) -> tuple[tuple[str, int], ...]:
        return self._terms

    @property
    def species(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, species: str) -> int:
        for name, coeff in self._terms:
            if name == species:
                return coeff
        return 0

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def format(self, species_order: Sequence[str] | None = None) -> str:
        """Render as .crn text, ordering terms by ``species_order`` if given."""
        if not self._terms:
            return "0"
        terms = list(self._terms)
        if species_order is not None:
            position = {name: i for i, name in enumerate(species_order)}
            terms.sort(key=lambda item: position.get(item[0], len(position)))
        return " + ".join(name if coeff == 1 else f"{coeff} {name}" for name, coeff in terms)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Complex({dict(self._terms)!r})"


@dataclass(frozen=True)
class Reaction:
    """An ordered pair of distinct complexes, optionally labelled.

    Equality and hashing ignore the label: two reactions are the same
    reaction when they convert the same reactant into the same product.
    """

    reactant: Complex
    product: Complex
    label: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.reactant == self.product:
            raise ValueError("trivial reaction: reactant equals product")

    @property
    def arrow(self) -> tuple[Complex, Complex]:
        return (self.reactant, self.product)

    def reverse(self, label: str | None = None) -> Reaction:
        return Reaction(self.product, self.reactant, label)

    def format(self, species_order: Sequence[str] | None = None) -> str:
        text = f"{self.reactant.format(species_order)} -> {self.product.format(species_order)}"
        if self.label is not None:
            text += f" @ {self.label}"
        return text

    def __str__(self) -> str:
        return self.format()


def _first_appearance(reactions: Sequence[Reaction]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for rxn in reactions:
        for side in (rxn.reactant, rxn.product):
            for name, _ in side:
                seen.setdefault(name)
    return tuple(seen)


class Network:
    """An immutable reaction network: ordered species and ordered reactions.

    Reactions must be pairwise distinct as (reactant, product) pairs, labels
    (when present) must be unique, and the species list covers exactly the
    species occurring in some complex.
    """

    __slots__ = ("_species", "_reactions")

    def __init__(self, reactions: Iterable[Reaction], species: Sequence[str] | None = None) -> None:
        rxns = tuple(reactions)
        if not rxns:
            raise ValueError("a network needs at least one reaction")
        arrows: set[tuple[Complex, Complex]] = set()
        for rxn in rxns:
            if rxn.arrow in arrows:
                raise ValueError(f"duplicate reaction: {rxn}")
            arrows.add(rxn.arrow)
        labels: set[str] = set()
        for rxn in rxns:
            if rxn.label is not None:
                if rxn.label in labels:
                    raise ValueError(f"duplicate reaction label {rxn.label!r}")
                labels.add(rxn.label)
        occurring = _first_appearance(rxns)
        if species is None:
            ordered = occurring
        else:
            ordered = tuple(species)
            if len(set(ordered)) != len(ordered) or set(ordered) != set(occurring):
                raise ValueError("species list must cover exactly the occurring species")
        object.__setattr__(self, "_species", ordered)
        object.__setattr__(self, "_reactions", rxns)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Network is immutable")

    @property
    def species(self) -> tuple[str, ...]:
        return self._species

    @property
    def reactions(self) -> tuple[Reaction, ...]:
        return self._reactions

    @property
    def labels(self) -> tuple[str | None, ...]:
        return tuple(rxn.label for rxn in self._reactions)

    def indices_of_labels(self, labels: Iterable[str]) -> list[int]:
        position = {rxn.label: i for i, rxn in enumerate(self._reactions) if rxn.label}
        return [position[label] for label in labels]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self._species == other._species
            and self._reactions == other._reactions
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self._species, tuple((r.reactant, r.product, r.label) for r in self._reactions)))

    def __repr__(self) -> str:
        return f"Network({len(self._species)} species, {len(self._reactions)} reactions)"


@dataclass(frozen=True)
class NetworkMatrices:
    """The constituent matrices of a network, all exact rationals.

    Rows of ``molecularity`` follow the network species order; its columns,
    and the rows of the incidence matrices, follow ``complexes`` (distinct
    complexes in first-appearance order, reactant before product). Columns of
    the incidence and stoichiometric matrices follow reaction order.
    """

    molecularity: Matrix
    incidence: Matrix
    incidence_plus: Matrix
    incidence_minus: Matrix
    stoichiometric: Matrix
    reactant_matrix: Matrix
    complexes: tuple[Complex, ...]


def _complexes(net: Network) -> tuple[Complex, ...]:
    """Distinct complexes in first-appearance order, reactant before product."""
    seen: dict[Complex, None] = {}
    for rxn in net.reactions:
        seen.setdefault(rxn.reactant)
        seen.setdefault(rxn.product)
    return tuple(seen)


def build_matrices(net: Network) -> NetworkMatrices:
    """Assemble molecularity, incidence, stoichiometric, and reactant matrices."""
    complexes = _complexes(net)
    index = {cpx: k for k, cpx in enumerate(complexes)}
    num_complexes = len(complexes)
    num_reactions = len(net.reactions)

    molecularity = [
        [Fraction(cpx.coefficient(name)) for cpx in complexes] for name in net.species
    ]
    incidence_plus = [[Fraction(0)] * num_reactions for _ in range(num_complexes)]
    incidence_minus = [[Fraction(0)] * num_reactions for _ in range(num_complexes)]
    for j, rxn in enumerate(net.reactions):
        incidence_minus[index[rxn.reactant]][j] = Fraction(1)
        incidence_plus[index[rxn.product]][j] = Fraction(1)
    incidence = [
        [plus - minus for plus, minus in zip(plus_row, minus_row)]
        for plus_row, minus_row in zip(incidence_plus, incidence_minus)
    ]
    # Equivalent to molecularity @ incidence (resp. @ incidence_minus), but
    # read straight off the reactions; the products would dominate runtime.
    stoichiometric = [[Fraction(v) for v in row] for row in zip(*reaction_vectors(net))]
    reactant_matrix = [
        [Fraction(rxn.reactant.coefficient(name)) for rxn in net.reactions]
        for name in net.species
    ]
    return NetworkMatrices(
        molecularity=molecularity,
        incidence=incidence,
        incidence_plus=incidence_plus,
        incidence_minus=incidence_minus,
        stoichiometric=stoichiometric,
        reactant_matrix=reactant_matrix,
        complexes=complexes,
    )


def reaction_vectors(net: Network) -> list[list[int]]:
    """The stoichiometric matrix's columns as integer vectors, one per reaction,
    read straight off the reactions (product minus reactant, in species order)."""
    return [
        [rxn.product.coefficient(name) - rxn.reactant.coefficient(name) for name in net.species]
        for rxn in net.reactions
    ]


# ---------------------------------------------------------------------------
# .crn text format
# ---------------------------------------------------------------------------


def _parse_complex(fragment: str, line: int) -> Complex:
    fragment = fragment.strip()
    if not fragment:
        raise CrnParseError("empty complex", line)
    if fragment == "0":
        return Complex()
    terms: dict[str, int] = {}
    for piece in fragment.split("+"):
        piece = piece.strip()
        match = _TERM.fullmatch(piece)
        if match is None:
            raise CrnParseError(f"cannot read term {piece!r}", line)
        coeff = int(match.group(1)) if match.group(1) else 1
        if coeff == 0:
            raise CrnParseError("stoichiometric coefficients must be positive", line)
        name = match.group(2)
        terms[name] = terms.get(name, 0) + coeff
    return Complex(terms)


def parse_network(text: str) -> Network:
    """Parse .crn text into a network.

    One reaction per line (``complex -> complex``, optionally ``@ label``);
    ``<->`` expands to two reactions with the forward direction first and the
    label, if any, attached to the forward direction. ``#`` starts a comment
    line. Species order is first appearance in the text.
    """
    reactions: list[Reaction] = []
    arrows: set[tuple[Complex, Complex]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label: str | None = None
        if "@" in line:
            body, _, label_text = line.partition("@")
            label = label_text.strip()
            if not label or re.search(r"\s|@", label):
                raise CrnParseError("malformed label", lineno)
            line = body.strip()
        if "<->" in line:
            left, _, right = line.partition("<->")
            reversible = True
        elif "->" in line:
            left, _, right = line.partition("->")
            reversible = False
        else:
            raise CrnParseError("expected '->' or '<->'", lineno)
        reactant = _parse_complex(left, lineno)
        product = _parse_complex(right, lineno)
        if reactant == product:
            raise CrnParseError("trivial reaction: reactant equals product", lineno)
        parsed = [Reaction(reactant, product, label)]
        if reversible:
            parsed.append(Reaction(product, reactant))
        for rxn in parsed:
            if rxn.arrow in arrows:
                raise CrnParseError(f"duplicate reaction: {rxn}", lineno)
            arrows.add(rxn.arrow)
        reactions.extend(parsed)
    return Network(reactions)


def serialize_network(net: Network) -> str:
    """Render a network as .crn text; ``parse_network`` inverts this exactly."""
    lines = [rxn.format(net.species) for rxn in net.reactions]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# set algebra over reactions
# ---------------------------------------------------------------------------


def subnetwork(net: Network, reaction_indices: Iterable[int]) -> Network:
    """The subnetwork on the selected reactions (network reaction order kept)."""
    indices = list(reaction_indices)
    if len(set(indices)) != len(indices):
        raise ValueError("reaction indices must be distinct")
    for i in indices:
        if not 0 <= i < len(net.reactions):
            raise IndexError(f"reaction index {i} out of range")
    chosen = [net.reactions[i] for i in sorted(indices)]
    return Network(chosen)


def subnetwork_by_labels(net: Network, labels: Iterable[str]) -> Network:
    """Convenience wrapper over ``subnetwork`` addressing reactions by label."""
    return subnetwork(net, net.indices_of_labels(labels))


def union(net1: Network, net2: Network) -> Network:
    """Set union of reactions (net1's first); labels kept where unambiguous."""
    merged: list[Reaction] = list(net1.reactions)
    arrows = {rxn.arrow for rxn in merged}
    taken = {rxn.label for rxn in merged if rxn.label}
    for rxn in net2.reactions:
        if rxn.arrow in arrows:
            continue
        if rxn.label in taken:
            rxn = Reaction(rxn.reactant, rxn.product)
        merged.append(rxn)
        arrows.add(rxn.arrow)
        if rxn.label:
            taken.add(rxn.label)
    return Network(merged)


def common_reactions(net1: Network, net2: Network) -> list[Reaction]:
    """net1's reactions structurally present in net2 (net1 order and labels)."""
    present = {rxn.arrow for rxn in net2.reactions}
    return [rxn for rxn in net1.reactions if rxn.arrow in present]


def difference(net1: Network, net2: Network) -> list[Reaction]:
    """net1's reactions structurally absent from net2."""
    present = {rxn.arrow for rxn in net2.reactions}
    return [rxn for rxn in net1.reactions if rxn.arrow not in present]
