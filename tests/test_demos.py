"""The three scripts in ``demos/`` and the ``python`` block of ``README.md``
run to completion, the scripts printing their findings."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

KEY_LINES = {
    "tour_of_the_models.py": (
        "  finest independent decomposition: 7 blocks, incidence independent: yes"
    ),
    "discordance_certificates.py": "  every excluded reaction re-breaks concordance: True",
    "equilibrium_robustness.py": "fal equilibrium holds A26 constant",
}


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


@pytest.mark.parametrize("script", sorted(KEY_LINES))
def test_demo_runs_and_prints_its_key_line(script):
    proc = _run([str(ROOT / "demos" / script)])
    assert proc.returncode == 0, proc.stderr
    assert KEY_LINES[script] in proc.stdout


def test_the_readme_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    proc = _run(["-c", blocks[0]])
    assert proc.returncode == 0, proc.stderr
