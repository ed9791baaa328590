"""The benchmark's tracer (``perfbench/layers.py``) wraps crnkit functions by
name; every one it lists must exist, or a traced run fails at ``getattr``."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for module_name, attr, _ in layers.TARGETS:
        module = importlib.import_module(f"crnkit.{module_name}")
        assert callable(getattr(module, attr, None)), f"crnkit.{module_name}.{attr}"
