"""Syslog's false positives (§4.3).

A false positive is a syslog-reconstructed failure that the IS-IS listener
never saw — a "failure" that did not impact traffic.  The paper's findings,
which the report fields mirror:

* 21 % of syslog failures are false positives, but they carry little
  downtime (17.5 h);
* short failures (≤ 10 s) are 83 % of false positives by count yet under an
  hour of downtime; the remaining long ones carry 94 % of FP downtime;
* nearly all long false positives fall inside flapping periods;
* the sub-second ones trace to aborted three-way handshakes and adjacency
  resets — identifiable by the Cisco cause phrase on the Down message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.events import FailureEvent
from repro.core.flapping import in_flap
from repro.core.matching import FailureMatchResult
from repro.intervals import IntervalSet
from repro.util.timefmt import SECONDS_PER_HOUR

#: Cause phrases marking recovery blips rather than real failures.
BLIP_REASONS = ("adjacency reset", "3-way handshake failed")


@dataclass
class FalsePositiveReport:
    """§4.3's false-positive accounting."""

    false_positives: List[FailureEvent] = field(default_factory=list)
    total_syslog_failures: int = 0
    short_threshold: float = 10.0

    @property
    def count(self) -> int:
        return len(self.false_positives)

    @property
    def fraction_of_syslog(self) -> float:
        if not self.total_syslog_failures:
            return 0.0
        return self.count / self.total_syslog_failures

    @property
    def downtime_hours(self) -> float:
        return sum(f.duration for f in self.false_positives) / SECONDS_PER_HOUR

    # -------------------------------------------------- short/long split
    def short(self) -> List[FailureEvent]:
        return [f for f in self.false_positives if f.duration <= self.short_threshold]

    def long(self) -> List[FailureEvent]:
        return [f for f in self.false_positives if f.duration > self.short_threshold]

    @property
    def short_fraction(self) -> float:
        return len(self.short()) / self.count if self.count else 0.0

    @property
    def short_downtime_hours(self) -> float:
        return sum(f.duration for f in self.short()) / SECONDS_PER_HOUR

    @property
    def long_downtime_hours(self) -> float:
        return sum(f.duration for f in self.long()) / SECONDS_PER_HOUR

    # ------------------------------------------------------- attribution
    sub_second: List[FailureEvent] = field(default_factory=list)
    blip_reason: List[FailureEvent] = field(default_factory=list)
    long_in_flap: List[FailureEvent] = field(default_factory=list)

    @property
    def long_in_flap_fraction(self) -> float:
        long = self.long()
        return len(self.long_in_flap) / len(long) if long else 0.0


def classify_false_positives(
    match_result: FailureMatchResult,
    total_syslog_failures: int,
    flap_intervals_by_link: Dict[str, IntervalSet],
    short_threshold: float = 10.0,
) -> FalsePositiveReport:
    """Build the §4.3 report from a syslog-vs-IS-IS failure matching.

    ``match_result`` must have syslog as side ``a``; its ``only_a`` are the
    false positives.
    """
    report = FalsePositiveReport(
        false_positives=list(match_result.only_a),
        total_syslog_failures=total_syslog_failures,
        short_threshold=short_threshold,
    )
    for failure in report.false_positives:
        if failure.duration <= 1.0:
            report.sub_second.append(failure)
        reason = ""
        if failure.start_transition is not None and failure.start_transition.messages:
            reason = failure.start_transition.messages[0].reason
        if any(phrase in reason for phrase in BLIP_REASONS):
            report.blip_reason.append(failure)
        if failure.duration > short_threshold and in_flap(
            flap_intervals_by_link, failure.link, failure.start
        ):
            report.long_in_flap.append(failure)
    return report
