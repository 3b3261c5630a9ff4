"""On-disk per-file result cache for ``repro lint``.

Per-module rules are pure functions of *(file bytes, rule set)*, so
their findings can be reused across runs: the cache key is a SHA-256
over the reported path, the rule-set version
(:data:`repro.devtools.rules.RULESET_VERSION` — bumped whenever rule
semantics change), the selected per-module rule ids (tagged with each
rule's scope, so widening a rule to a new subpackage invalidates its
entries), and the file text.  Any edit, rename, rule change, scope
change, or selection change misses naturally; nothing is ever
invalidated in place.

Entries are small JSON files (the *raw* findings, before suppression
and baseline handling — both of those depend on driver flags and are
applied by the driver every run).  Writes are atomic
(temp file + ``os.replace``) so a killed lint run never leaves a
corrupt entry; unreadable entries are treated as misses.  Project-wide
rules (mutability, R001) are never cached — their findings depend on
other files.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, List, Optional, Sequence

from repro.devtools.base import Finding
from repro.devtools.rules import RULESET_VERSION

#: Schema of the cache entries themselves.
_ENTRY_VERSION = 1


class LintCache:
    """A directory of per-file lint results."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def key(self, path: str, text: str, rule_ids: Sequence[str]) -> str:
        digest = hashlib.sha256()
        digest.update(RULESET_VERSION.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(",".join(sorted(rule_ids)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.replace("\\", "/").encode("utf-8"))
        digest.update(b"\x00")
        digest.update(text.encode("utf-8"))
        return digest.hexdigest()

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[List[Finding]]:
        try:
            with open(
                self._entry_path(key), "r", encoding="utf-8"
            ) as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(document, dict)
            or document.get("version") != _ENTRY_VERSION
            or not isinstance(document.get("findings"), list)
        ):
            self.misses += 1
            return None
        findings = []
        try:
            for entry in document["findings"]:
                findings.append(
                    Finding(
                        rule=str(entry["rule"]),
                        path=str(entry["path"]),
                        line=int(entry["line"]),
                        column=int(entry["column"]),
                        message=str(entry["message"]),
                        snippet=str(entry.get("snippet", "")),
                    )
                )
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return findings

    def put(self, key: str, findings: Sequence[Finding]) -> None:
        document: Dict[str, object] = {
            "version": _ENTRY_VERSION,
            "findings": [finding.to_json() for finding in findings],
        }
        try:
            os.makedirs(self.directory, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w",
                encoding="utf-8",
                dir=self.directory,
                suffix=".tmp",
                delete=False,
            )
            with handle:
                json.dump(document, handle)
            os.replace(handle.name, self._entry_path(key))
        except OSError:
            # A read-only or full disk degrades to an uncached run.
            try:
                os.unlink(handle.name)
            except (OSError, UnboundLocalError):
                pass
