"""Every public function of crnkit has a use outside its own tests: it is named
in ``README.md``, in a demo, in the benchmark harness (``perfbench/*.py``),
or on a line of the package other than its own definition. The check reads
files and imports modules; it solves nothing."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import crnkit

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(crnkit.__file__).resolve().parent


def _public_functions() -> list[str]:
    """``module.function`` for each public module-level function of crnkit."""
    modules = ["crnkit"] + [
        f"crnkit.{info.name}"
        for info in pkgutil.iter_modules(crnkit.__path__)
        if info.name != "__main__"  # importing it would run the CLI
    ]
    found = []
    for module_name in modules:
        module = importlib.import_module(module_name)
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module_name
            ):
                found.append(f"{module_name}.{name}")
    return found


def _lines(paths) -> list[str]:
    return [line for path in paths for line in path.read_text(encoding="utf-8").splitlines()]


def test_every_public_function_is_used_or_documented():
    functions = _public_functions()
    assert "crnkit.structure.network_numbers" in functions
    documented = _lines(
        [ROOT / "README.md", *sorted(ROOT.glob("demos/*.py")), *sorted(ROOT.glob("perfbench/*.py"))]
    )
    package = _lines(sorted(PACKAGE.rglob("*.py")))
    unused = []
    for qualified in functions:
        name = qualified.rpartition(".")[2]
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"def {name}\(")
        if not any(word.search(line) for line in documented) and not any(
            word.search(line) and not definition.match(line) for line in package
        ):
            unused.append(qualified)
    assert not unused, f"public functions with no caller and no documented use: {unused}"
