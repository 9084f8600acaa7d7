"""Read-only facts about the machine a result was measured on."""

from __future__ import annotations

import os
import platform
from importlib import metadata
from pathlib import Path

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _size_bytes(text: str) -> int:
    text = text.strip().upper()
    for suffix, mult in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if text.endswith(suffix):
            return int(text[:-1]) * mult
    return int(text)


def cache_sizes() -> dict[str, int]:
    """Data/unified cache size in bytes per level, e.g. {"L2": 2097152}."""
    out = {}
    try:
        for index in sorted(CACHE_DIR.glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            out[f"L{level}"] = _size_bytes((index / "size").read_text())
    except (OSError, ValueError):
        pass
    return out


def facts() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": _cpu_model(),
        "cache_bytes": cache_sizes(),
    }
