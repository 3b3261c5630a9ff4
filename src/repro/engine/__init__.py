"""repro.engine — the one per-link engine core behind all four modes.

Every execution mode — batch (:func:`repro.core.pipeline.run_analysis`),
columnar (``ingest="columnar"``), stream
(:class:`repro.stream.engine.StreamEngine`), and the always-on service
(:func:`repro.service.worker.run_worker`) — runs the paper's funnel
(§3.4, §4.1, §4.2): merge → timeline → failure → sanitise → match /
coverage → flaps.  This package holds the *single* implementation of
each post-ingest phase as an incremental per-link state machine:

:class:`~repro.engine.merge.RunMerger`
    message → transition merging (the merge-window rule);
:class:`~repro.engine.timeline.TimelineBuilder`
    transition → timeline → failure reconstruction under an ambiguity
    strategy, emitting failures the moment they are provably final;
:class:`~repro.engine.sanitize.Sanitizer` /
:func:`~repro.engine.sanitize.classify_failure`
    §4.2's cleaning rules (listener-outage masking, ticket
    verification of >24 h failures);
:class:`~repro.engine.matching.Matcher` /
:class:`~repro.engine.matching.CoverageScorer`
    §3.4's greedy one-to-one failure matching and Table 3's
    None/One/Both reporter accounting;
:class:`~repro.engine.flaps.FlapDetector`
    §4.1's ten-minute flap rule.

The modes are *drivers*: batch feeds each machine to exhaustion and
reads the canonical result; stream feeds watermark-by-watermark and
uses frontiers to finalise early; the service wraps the stream driver.
``tests/test_engine_conformance.py`` checks at run time that every mode
reaches each phase's implementation in this package, in funnel order —
see docs/architecture.md.
"""

from repro.engine.flaps import FlapDetector, FlapEpisode, FlapRun
from repro.engine.matching import (
    CoverageScorer,
    FailureMatchResult,
    Matcher,
    TransitionCoverage,
)
from repro.engine.merge import RunMerger
from repro.engine.sanitize import (
    DROP_LISTENER,
    DROP_UNVERIFIED,
    KEEP,
    KEEP_VERIFIED,
    SanitizationConfig,
    SanitizationReport,
    Sanitizer,
    apply_disposition,
    classify_failure,
)
from repro.engine.timeline import TimelineBuilder

__all__ = [
    "CoverageScorer",
    "DROP_LISTENER",
    "DROP_UNVERIFIED",
    "FailureMatchResult",
    "FlapDetector",
    "FlapEpisode",
    "FlapRun",
    "KEEP",
    "KEEP_VERIFIED",
    "Matcher",
    "RunMerger",
    "SanitizationConfig",
    "SanitizationReport",
    "Sanitizer",
    "TimelineBuilder",
    "TransitionCoverage",
    "apply_disposition",
    "classify_failure",
]
