"""Rule modules; importing this package populates the registry."""

from repro.devtools.rules import (  # noqa: F401
    atomicity,
    columnarrules,
    contract,
    determinism,
    eventtime,
    exceptions,
    flowrules,
    horizonrules,
    mutability,
    timeaxis,
)

#: Bump whenever rule semantics change in a way that invalidates cached
#: per-file results (the on-disk lint cache keys on this + the rule ids
#: + the file bytes).
RULESET_VERSION = "2026.10-no-codec-family"
