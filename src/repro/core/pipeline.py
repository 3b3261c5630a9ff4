"""One call from dataset to full analysis results.

:func:`run_analysis` executes the paper's entire methodology in order:

1. parse the central syslog file; mine the config inventory into a
   :class:`~repro.core.links.LinkResolver`;
2. replay the LSP archive through the listener; extract IS and IP
   reachability transitions;
3. reconstruct link state and failures from both channels;
4. sanitise both failure sets (§4.2) — listener-outage removal for both,
   ticket verification of >24 h failures for syslog;
5. match transitions (Tables 2 and 3) and failures (Table 4, §4.3);
6. detect flapping episodes (§4.1).

The returned :class:`AnalysisResult` carries every intermediate product so
the benches and examples can drill into any table without re-running the
expensive steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.extract_isis import IsisExtraction, IsisExtractionConfig, extract_isis
from repro.core.extract_syslog import (
    SyslogExtraction,
    SyslogExtractionConfig,
    extract_syslog,
)
from repro.core.events import FailureEvent
from repro.core.flapping import FlapEpisode, detect_flap_episodes, flap_intervals
from repro.core.links import LinkResolver
from repro.core.matching import (
    FailureMatchResult,
    MatchConfig,
    TransitionCoverage,
    count_matching_reporters,
    match_failures,
)
from repro.core.sanitize import SanitizationConfig, SanitizationReport, sanitize_failures
from repro.faults.ledger import IngestReport
from repro.intervals import IntervalSet
from repro.simulation.dataset import Dataset
from repro.syslog.collector import SyslogCollector


@dataclass(frozen=True)
class AnalysisOptions:
    """Configuration for a full analysis run (paper defaults throughout)."""

    syslog: SyslogExtractionConfig = field(default_factory=SyslogExtractionConfig)
    isis: IsisExtractionConfig = field(default_factory=IsisExtractionConfig)
    matching: MatchConfig = field(default_factory=MatchConfig)
    sanitization: SanitizationConfig = field(default_factory=SanitizationConfig)
    flap_gap_threshold: float = 600.0


@dataclass
class AnalysisResult:
    """Every product of the §3–§4 methodology for one dataset."""

    resolver: LinkResolver
    syslog: SyslogExtraction
    isis: IsisExtraction
    syslog_sanitized: SanitizationReport
    isis_sanitized: SanitizationReport
    failure_match: FailureMatchResult
    coverage: TransitionCoverage
    flap_episodes: List[FlapEpisode]
    flap_intervals: Dict[str, IntervalSet]
    horizon_start: float
    horizon_end: float
    options: AnalysisOptions
    #: Drop ledger of a lenient (``strict=False``) run; ``None`` when the
    #: caller did not ask for one.  Empty on clean inputs.
    ingest: Optional[IngestReport] = None

    @property
    def syslog_failures(self) -> List[FailureEvent]:
        """Sanitised syslog failures (what every table consumes)."""
        return self.syslog_sanitized.kept

    @property
    def isis_failures(self) -> List[FailureEvent]:
        """Sanitised IS-IS failures."""
        return self.isis_sanitized.kept

    @property
    def horizon_years(self) -> float:
        return (self.horizon_end - self.horizon_start) / (365.0 * 86400.0)


def run_analysis(
    dataset: Dataset,
    options: Optional[AnalysisOptions] = None,
    *,
    strict: bool = True,
    report: Optional[IngestReport] = None,
    ingest: str = "scalar",
) -> AnalysisResult:
    """Run the complete methodology against one dataset.

    ``strict=True`` (the default) dies on the first malformed syslog line
    or undecodable LSP record, as the original pipeline did.
    ``strict=False`` is the hardened mode for artifacts left behind by a
    crashed collector or listener: bad records are quarantined into
    ``report`` (an :class:`~repro.faults.ledger.IngestReport`, created on
    demand and attached to the result as ``result.ingest``) and the
    analysis completes on everything salvageable.  On clean inputs both
    modes produce byte-identical results.

    ``ingest`` selects the syslog parse engine: ``"scalar"`` is the
    per-line reference parser, ``"columnar"`` the vectorised fast path of
    :mod:`repro.columnar`, contractually identical on every input (and
    silently equivalent to scalar when numpy is unavailable).  It never
    changes results, only wall-clock.
    """
    if ingest not in ("scalar", "columnar"):
        raise ValueError(f"unknown ingest engine {ingest!r}")
    if options is None:
        options = AnalysisOptions()
    if not strict and report is None:
        report = IngestReport()
    resolver = LinkResolver(dataset.inventory)
    horizon_start = dataset.analysis_start
    horizon_end = dataset.horizon_end

    if ingest == "columnar":
        from repro.columnar import parse_log_columnar

        entries = parse_log_columnar(
            dataset.syslog_text, strict=strict, report=report
        )
    else:
        entries = SyslogCollector.parse_log(
            dataset.syslog_text, strict=strict, report=report
        )
    syslog = extract_syslog(
        entries, resolver, horizon_start, horizon_end, options.syslog
    )
    isis = extract_isis(
        dataset.lsp_records,
        resolver,
        horizon_start,
        horizon_end,
        options.isis,
        strict=strict,
        report=report,
    )

    syslog_sanitized = sanitize_failures(
        syslog.failures,
        dataset.listener_outages,
        dataset.tickets,
        options.sanitization,
    )
    isis_sanitized = sanitize_failures(
        isis.failures,
        dataset.listener_outages,
        tickets=None,
        config=options.sanitization,
    )

    failure_match = match_failures(
        syslog_sanitized.kept, isis_sanitized.kept, options.matching
    )
    coverage = count_matching_reporters(
        isis.is_transitions, syslog.isis_messages, options.matching
    )
    episodes = detect_flap_episodes(
        isis_sanitized.kept, options.flap_gap_threshold
    )

    return AnalysisResult(
        resolver=resolver,
        syslog=syslog,
        isis=isis,
        syslog_sanitized=syslog_sanitized,
        isis_sanitized=isis_sanitized,
        failure_match=failure_match,
        coverage=coverage,
        flap_episodes=episodes,
        flap_intervals=flap_intervals(episodes, horizon_start=horizon_start),
        horizon_start=horizon_start,
        horizon_end=horizon_end,
        options=options,
        ingest=report,
    )
