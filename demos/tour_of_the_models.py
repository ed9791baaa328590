"""A quick tour of the four bundled Wnt-signaling models.

Prints the counting profile, the structure flags, positive dependence and
conservativity, and the finest independent decomposition of each network,
with whether it is incidence independent.  Takes about a second.

    python3 demos/tour_of_the_models.py
"""

from crnkit import fixtures
from crnkit.concord import is_conservative, is_positive_dependent
from crnkit.decomp import decomposition_numbers, fid, is_incidence_independent
from crnkit.structure import network_numbers, structural_flags

FIELDS = (
    "species",
    "complexes",
    "reactant complexes",
    "reversible pairs",
    "irreversible",
    "reactions",
    "linkage classes",
    "strong classes",
    "terminal classes",
    "rank",
    "reactant rank",
    "deficiency",
    "reactant deficiency",
)


def yes_no(flag):
    return "yes" if flag else "no"


def main():
    for name in ("lee", "fal", "maclean", "schmitz"):
        net = fixtures.load(name)
        print(f"== {name} " + "=" * (46 - len(name)))
        numbers = network_numbers(net)
        for field, value in zip(FIELDS, numbers.as_tuple()):
            print(f"  {field:<22}{value}")

        flags = structural_flags(numbers)
        on = [f for f in vars(flags) if getattr(flags, f)]
        print("  flags:", ", ".join(on))
        print("  positive dependent:", yes_no(is_positive_dependent(net).holds))
        print("  conservative:", yes_no(is_conservative(net).holds))

        decomposition = fid(net)
        profiles = decomposition_numbers(decomposition).blocks
        independent = yes_no(is_incidence_independent(decomposition))
        print(
            f"  finest independent decomposition: {len(profiles)} blocks,"
            f" incidence independent: {independent}"
        )
        for labels, block in zip(decomposition.label_sets(), profiles):
            shown = sorted(labels, key=lambda s: int(s.lstrip("R")))
            print(f"    rank {block.rank}, deficiency {block.deficiency}:", ", ".join(shown))
        print()


if __name__ == "__main__":
    main()
