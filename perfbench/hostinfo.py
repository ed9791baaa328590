"""Host record and host noise, read-only.

The figures come from files the kernel exposes (``/proc/cpuinfo``,
``/proc/stat``, ``/proc/loadavg``); nothing is written there and no cache is
dropped. The git SHA is read from ``.git`` in the checkout when there is one;
otherwise a digest of ``src/`` identifies the code.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_sha(root: Path) -> str:
    head_file = root / ".git" / "HEAD"
    if not head_file.is_file():
        return "none (not a git checkout)"
    head = head_file.read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unresolved ({ref})"


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_record(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "src_digest": source_digest(root),
    }


def noise_sample() -> dict:
    """CPU tick counters and load averages at one instant."""
    stat = _read("/proc/stat") or ""
    ticks = None
    for line in stat.splitlines():
        if line.startswith("cpu "):
            ticks = [int(v) for v in line.split()[1:]]
            break
    loadavg = _read("/proc/loadavg")
    return {"ticks": ticks, "loadavg": loadavg.split()[:3] if loadavg else None}


def noise_between(before: dict, after: dict) -> dict:
    """Steal share of all CPU ticks between two samples, and the load averages."""
    out = {"loadavg_start": before["loadavg"], "loadavg_end": after["loadavg"]}
    if before["ticks"] and after["ticks"] and len(before["ticks"]) > 7:
        delta = [b - a for a, b in zip(before["ticks"], after["ticks"])]
        total = sum(delta[:8])  # user..steal; guest time is already in user
        out["steal_ticks"] = delta[7]
        out["steal_share"] = round(delta[7] / total, 4) if total else 0.0
    return out
