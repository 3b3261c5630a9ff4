"""The one rename-atomic JSON writer.

Every persisted document a reader can observe — engine checkpoint
frontiers, service heartbeats and reports — goes through
:func:`write_json_atomic`: the document is encoded in one C-encoder
pass (:func:`json.dumps`), written to a sibling ``.tmp`` file with a
single write, fsynced, and renamed over the target.  A reader (or a
crash) therefore sees the previous complete document or the next one,
never a torn file.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict


def write_json_atomic(path: "str | os.PathLike[str]", document: Dict[str, Any]) -> None:
    """Write ``document`` to ``path`` so readers never see a torn file.

    The bytes are exactly what ``json.dump(document, handle,
    separators=(",", ":"))`` would produce.
    """
    target = os.fspath(path)
    data = json.dumps(document, separators=(",", ":")).encode("utf-8")
    temp_path = f"{target}.tmp"
    with open(temp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, target)
