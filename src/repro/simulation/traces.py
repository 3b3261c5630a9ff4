"""Failure-trace import/export: CSV in, CSV out, trace-driven campaigns.

Two use cases:

* **export** — dump a campaign's ground truth (or a channel's
  reconstruction) as a flat CSV for external tooling;
* **import/replay** — drive the whole measurement simulation from a
  *user-supplied* failure trace instead of the stochastic workload: take
  your own network's outage log, map it onto the simulated topology, and
  see what syslog/IS-IS/SNMP would each have reported of it.

The CSV schema is deliberately minimal — one row per failure:

    link_id,start,end,cause,flap_member

``cause`` is ``physical``/``protocol``; unknown columns are ignored so
traces exported with extra annotations round-trip.  On import, the
observation-shaping choices the generator normally draws (first detector,
skews, suppression, blips) are re-drawn deterministically from a seed, so
a replay is reproducible without requiring those internals in the file.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.simulation.failures import (
    FailureCause,
    GroundTruthFailure,
    LinkWorkload,
    _build_failure,
)
from repro.simulation.workload import LinkClassProfile, cenic_default_workload
from repro.topology.model import LinkClass, Network
from repro.util.rand import child_rng

_HEADER = ["link_id", "start", "end", "cause", "flap_member"]


def export_failures_csv(
    failures: Sequence[GroundTruthFailure],
) -> str:
    """Serialise ground-truth failures to the trace CSV schema."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_HEADER)
    for failure in failures:
        writer.writerow(
            [
                failure.link_id,
                f"{failure.start:.3f}",
                f"{failure.end:.3f}",
                failure.cause.value,
                int(failure.flap_member),
            ]
        )
    return buffer.getvalue()


def write_failures_csv(
    failures: Sequence[GroundTruthFailure], path: Union[str, Path]
) -> None:
    Path(path).write_text(export_failures_csv(failures), encoding="utf-8")


class TraceFormatError(ValueError):
    """Raised when a trace file violates the schema."""


def parse_trace_csv(text: str) -> List[Tuple[str, float, float, FailureCause, bool]]:
    """Parse trace CSV into raw rows (no topology validation yet)."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or not set(_HEADER[:3]) <= set(reader.fieldnames):
        raise TraceFormatError(
            f"trace must have at least columns {_HEADER[:3]}"
        )
    rows = []
    for line_number, row in enumerate(reader, start=2):
        try:
            start = float(row["start"])
            end = float(row["end"])
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(f"line {line_number}: bad times") from exc
        if end <= start:
            raise TraceFormatError(
                f"line {line_number}: end must exceed start"
            )
        cause_text = (row.get("cause") or "protocol").strip().lower()
        try:
            cause = FailureCause(cause_text)
        except ValueError as exc:
            raise TraceFormatError(
                f"line {line_number}: unknown cause {cause_text!r}"
            ) from exc
        flap_text = (row.get("flap_member") or "0").strip().lower()
        flap = flap_text in ("1", "true", "yes")
        rows.append((row["link_id"], start, end, cause, flap))
    return rows


def workloads_from_trace(
    text: str,
    network: Network,
    seed: int,
    profiles: Dict[LinkClass, LinkClassProfile] = None,
) -> List[LinkWorkload]:
    """Turn a trace into per-link workloads ready for the scenario runner.

    Observation-shaping randomness (detector choice, skews, suppression,
    blips) is re-drawn per link from ``seed`` using the class profile's
    probabilities; the trace fixes link, timing, cause, and flap flags.
    Failures on one link must not overlap.  The imported trace replaces
    the stochastic failure schedule; media flaps are not generated (a
    trace records failures, not carrier noise).
    """
    if profiles is None:
        defaults = cenic_default_workload()
        profiles = {LinkClass.CORE: defaults.core, LinkClass.CPE: defaults.cpe}

    rows = parse_trace_csv(text)
    by_link: Dict[str, List[Tuple[float, float, FailureCause, bool]]] = {}
    for link_id, start, end, cause, flap in rows:
        if link_id not in network.links:
            raise TraceFormatError(f"unknown link id {link_id!r}")
        by_link.setdefault(link_id, []).append((start, end, cause, flap))

    workloads: List[LinkWorkload] = []
    for link_id in sorted(by_link):
        link = network.links[link_id]
        profile = profiles[link.link_class]
        rng = child_rng(seed, f"trace:{link_id}")
        ordered = sorted(by_link[link_id])
        for (s1, e1, *_), (s2, *_rest) in zip(ordered, ordered[1:]):
            if s2 < e1:
                raise TraceFormatError(
                    f"overlapping failures on {link_id} at {s2:.1f}"
                )
        workload = LinkWorkload(link_id=link_id, episode_rate=0.0)
        episode = 0
        for start, end, cause, flap in ordered:
            episode += 1
            failure = _build_failure(
                rng,
                link_id,
                (link.router_a, link.router_b),
                profile,
                start,
                end - start,
                episode,
                flap_member=flap,
            )
            # _build_failure re-draws the cause; pin the trace's.
            if failure.cause is not cause:
                failure = _pin_cause(failure, cause, rng, profile)
            workload.failures.append(failure)
        workloads.append(workload)
    return workloads


def _pin_cause(
    failure: GroundTruthFailure,
    cause: FailureCause,
    rng,
    profile: LinkClassProfile,
) -> GroundTruthFailure:
    """Rebuild per-cause detection fields for a trace-pinned cause."""
    import dataclasses

    if cause is FailureCause.PHYSICAL:
        delayed = rng.random() < profile.delayed_end_probability
        skew = (
            rng.uniform(*profile.hold_skew_range)
            if delayed
            else rng.uniform(0.0, 1.5)
        )
    else:
        delayed = False
        skew = rng.uniform(*profile.protocol_skew_range)
    if failure.flap_member:
        delayed = False
        skew = min(skew, rng.uniform(0.0, 1.0))
    return dataclasses.replace(
        failure, cause=cause, delayed_second=delayed, second_skew=skew
    )
