"""The three scripts in ``demos/`` run to completion and print their findings."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

KEY_LINES = {
    "tour_of_the_models.py": "  finest independent decomposition: 7 blocks",
    "discordance_certificates.py": "  every excluded reaction re-breaks concordance: True",
    "equilibrium_robustness.py": "fal equilibrium holds A26 constant",
}


@pytest.mark.parametrize("script", sorted(KEY_LINES))
def test_demo_runs_and_prints_its_key_line(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert KEY_LINES[script] in proc.stdout
