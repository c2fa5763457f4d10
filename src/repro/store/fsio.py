"""Crash-safe filesystem primitives of the result store.

Every durable artifact in :mod:`repro.store` is one JSON file, and every
write follows the same two rules:

* **atomic publish** — content is written to a temporary sibling and
  ``os.replace``-d into place, so a reader (or a concurrent writer) never
  observes a half-written file and a crash mid-write leaves at most a
  stale ``*.tmp`` orphan, never a corrupt published file;
* **tolerant reads** — a file that is missing, truncated, or not valid
  JSON reads as *absent* (``None``) rather than raising, so one corrupt
  entry costs a recompute instead of wedging the store.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Any

__all__ = [
    "atomic_write_json",
    "atomic_write_text",
    "read_json_tolerant",
]


def atomic_write_text(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` atomically (tmp sibling + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # unique tmp name: concurrent writers of the same path must not trample
    # each other's in-flight temporaries
    tmp = path.parent / f".{path.name}.{uuid.uuid4().hex}.tmp"
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # failed before the rename: drop the orphan
            try:
                tmp.unlink()
            except OSError:
                pass


def atomic_write_json(path: Path, payload: Any, indent: int | None = None) -> None:
    """Publish a JSON payload at ``path`` atomically (sorted keys, stable bytes)."""
    atomic_write_text(path, json.dumps(payload, indent=indent, sort_keys=True) + "\n")


def read_json_tolerant(path: Path) -> Any | None:
    """Read a JSON file; missing/truncated/corrupt files read as ``None``."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    try:
        return json.loads(text)
    except ValueError:
        return None

