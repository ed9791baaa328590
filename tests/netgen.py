"""Hypothesis strategies for small random reaction networks (shared by suites)."""

from __future__ import annotations

from hypothesis import strategies as st

from crnkit.core import Complex, Network, Reaction

SPECIES_POOL = ("X1", "X2", "X3", "X4", "X5", "X6")


@st.composite
def complexes(draw, species=SPECIES_POOL[:4], max_size=2, max_coeff=2):
    names = draw(
        st.lists(st.sampled_from(species), min_size=0, max_size=max_size, unique=True)
    )
    return Complex({name: draw(st.integers(1, max_coeff)) for name in names})


@st.composite
def networks(draw, max_species=4, max_reactions=5, max_coeff=2):
    """A random network with 1..max_reactions distinct non-trivial reactions."""
    pool = SPECIES_POOL[:max_species]
    count = draw(st.integers(1, max_reactions))
    reactions: list[Reaction] = []
    arrows: set[tuple[Complex, Complex]] = set()
    for _ in range(count):
        for _attempt in range(15):
            reactant = draw(complexes(pool, max_coeff=max_coeff))
            product = draw(complexes(pool, max_coeff=max_coeff))
            if reactant != product and (reactant, product) not in arrows:
                arrows.add((reactant, product))
                reactions.append(Reaction(reactant, product, label=f"R{len(reactions) + 1}"))
                break
    if not reactions:
        reactions.append(Reaction(Complex(), Complex({pool[0]: 1}), label="R1"))
    return Network(reactions)
