"""Bundled Wnt-signaling model networks, addressable by short name."""

from __future__ import annotations

from functools import cache
from importlib import resources

from ..core import Network, parse_network

NAMES = ("lee", "fal", "maclean", "schmitz", "schmitz-augmented", "schmitz-reduced")


@cache
def load(name: str) -> Network:
    """The bundled network of that name, parsed once per process.

    Every call with the same name returns the same ``Network``; networks are
    immutable, so sharing one is safe.
    """
    if name not in NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(NAMES)}")
    text = resources.files(__package__).joinpath(f"{name}.crn").read_text(encoding="utf-8")
    return parse_network(text)
