"""Semantic-drift rules (S401–S405): one engine, four executions.

The repository runs the paper's funnel — merge → timeline → failure →
sanitise → match → coverage → flaps — in four execution modes (batch,
columnar, stream, service).  The comparison between syslog
and IS-IS is only meaningful while every mode computes the *same*
semantics; these rules make that correspondence a checked property.
Since the engine unification the post-ingest phases live once, in
:mod:`repro.engine`; S405 is the rule that keeps them from ever
triplicating again.

All five rules are thin views over :class:`repro.devtools.spine
.SpineAnalysis` — the memoised project pass that walks each mode's call
graph from its entry point and compares what it finds against the
registered correspondence map (the same pass that emits the committed
``engine-spec.json``).  On a project whose modules do not contain any
mode entry point (fixture trees), the pass records nothing and the
rules stay silent.

Spine rules are project-wide by construction: whether ``stream/
engine.py`` drifted can only be decided by looking at ``core/
reconstruct.py`` too, so findings are computed once per project in the
main process and never enter the per-file cache.
"""

from __future__ import annotations

from typing import Iterator

from repro.devtools.base import Finding, Project, Rule, SourceModule, register
from repro.devtools.spine import get_spine


class _SpineRule(Rule):
    """Shared driver: findings come from the memoised spine pass."""

    scope = None
    project_wide = True

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        for finding in get_spine(project).findings[self.id]:
            if finding.path == module.path:
                yield finding


@register
class UnregisteredImplementationRule(_SpineRule):
    id = "S401"
    name = "phase-implementation-unregistered"
    rationale = (
        "Every execution mode must resolve each funnel phase to the "
        "single shared helper or to a correspondence registered in "
        "devtools/spine.py with a reason; an unregistered twin is a "
        "sixth engine nobody's equivalence tests cover, and a mode "
        "that skips a phase entirely compares different semantics "
        "across channels."
    )


@register
class ConstantDriftRule(_SpineRule):
    id = "S402"
    name = "phase-constant-drift"
    rationale = (
        "Thresholds, windows, and tie-breakers exist in one copy plus "
        "registered twins.  A numeric literal at a phase binding site, "
        "a mode that never reads a declared config parameter, or an "
        "event sort by a non-canonical key means the copies have "
        "drifted — the exact failure the paper's 10-second window and "
        "10-minute flap rule are most sensitive to."
    )


@register
class PhaseOrderDriftRule(_SpineRule):
    id = "S403"
    name = "phase-order-drift"
    rationale = (
        "The funnel's phase order is part of its semantics: sanitising "
        "before merging or matching before sanitising yields different "
        "failure sets from identical inputs.  Each mode's first reach "
        "of every ordered phase must follow the canonical rank order."
    )


@register
class UnregisteredEntryPointRule(_SpineRule):
    id = "S404"
    name = "engine-entry-unregistered"
    rationale = (
        "A function that calls phase implementations but is reachable "
        "from no registered execution mode is a new entry point into "
        "engine semantics — it will never be traced, never drift-"
        "checked, and never covered by the cross-mode equivalence "
        "suites.  Declare it in devtools/spine.py (as a mode, a "
        "correspondence, or an extra caller with a reason)."
    )


@register
class PhaseResolutionDriftRule(_SpineRule):
    id = "S405"
    name = "phase-resolution-drift"
    rationale = (
        "After the engine unification each post-ingest phase has "
        "exactly one implementation — the per-link machine in "
        "repro.engine — and every registered implementation of every "
        "phase must funnel into that sink.  A mode that resolves a "
        "phase to two implementations, or an implementation that no "
        "longer reaches the canonical core, is the divergent "
        "triplication this repository just paid to remove, growing "
        "back."
    )
