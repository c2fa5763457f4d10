"""Helpers shared by the benchmark modules (table/JSON persistence, output directory)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

RESULTS_DIR = Path(__file__).parent / "results"


def save_table(name: str, text: str) -> None:
    """Print a rendered table and persist it under ``benchmarks/results/``."""
    print("\n" + text + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def save_json(name: str, payload: Any) -> Path:
    """Persist a JSON-serialisable payload under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
