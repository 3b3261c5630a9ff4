"""Atomic JSON state files shared by the supervisor and its workers.

The service's cross-process state — heartbeats, checkpoint-adjacent
reports, stop requests — lives in small JSON documents inside each
tenant's state directory.  Writers go through
:func:`repro.util.atomic.write_json_atomic` (re-exported here), the
writer :func:`repro.stream.checkpoint.save_checkpoint` also uses for its
frontier document, so a reader never observes a torn document: it sees
the previous complete version or the new one, nothing in between.
Readers treat a missing
or (transiently) undecodable file as "no document yet" rather than an
error — the writer may simply not have produced one.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.util.atomic import write_json_atomic

__all__ = ["read_json", "touch_marker", "write_json_atomic"]


def read_json(path: "str | os.PathLike[str]") -> Optional[Dict[str, Any]]:
    """Read a JSON document written by :func:`write_json_atomic`.

    Returns ``None`` when the file does not exist or does not decode —
    with atomic writers the latter can only be a foreign or damaged
    file, and the service treats both as "no usable document".
    """
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def touch_marker(path: "str | os.PathLike[str]") -> None:
    """Create an empty marker file (stop requests); idempotent."""
    with open(os.fspath(path), "a", encoding="utf-8"):
        pass
