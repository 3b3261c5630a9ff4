"""Checkpoint/resume: a live-state frontier plus an append-only results segment.

A checkpoint of a :class:`~repro.stream.engine.StreamEngine` is two files:

* the **frontier document** (``path``) holds only live machine state —
  open message runs, per-link timeline machines, held failures awaiting
  their ticket horizon, undecided match candidates, coverage rings and
  pending transitions, open flap runs, counters — plus the results
  segment's committed byte length, a running :func:`zlib.crc32` of
  those bytes and how many entries of each product list they hold.  It
  is replaced atomically on every save, and its size is bounded by the
  network's links, not by the campaign's length;
* the **results segment** (``path + ".results"``) is append-only: each
  save appends one JSON line holding the products finalised since the
  previous save — raw failures, sanitisation decisions, match pairs and
  verdicts, unmatched coverage transitions, flap episodes — each encoded
  exactly once.  Products that refer to a failure carry its index into
  the raw failure list, and so does the frontier's live state.

Saving appends and fsyncs the segment first (after cutting it to the
length this engine itself committed, so a stale or torn tail is never
extended), then renames the new frontier into place.  A crash between
the two leaves the previous frontier, whose committed length simply
excludes the new tail.  The one exception is an engine's first save
over a checkpoint it did not load: it cuts the old segment to zero, so
a crash before its rename loses the previous checkpoint (which then
loads as a typed error, never as another run's results).  Loading reads
the committed prefix, checks its CRC and re-reads every product; any
damage inside the committed region surfaces as a typed
:class:`CheckpointError`.

Floats survive exactly (JSON carries them as shortest-round-trip
decimal), frozensets become sorted lists, and sentinel infinities become
``null``, so a restored engine is value-identical to the checkpointed
one and the resumed stream finishes with byte-identical results; the
test suite cuts streams at arbitrary points to enforce this.

The frontier also records how many events the engine had consumed.
Event delivery is deterministic (the merge's tie-breaks are fixed), so
resuming is simply: rebuild the engine, skip that many events, continue.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.events import FailureEvent, LinkMessage, Transition
from repro.core.flapping import FlapEpisode
from repro.core.links import LinkResolver
from repro.core.matching import MatchConfig
from repro.core.pipeline import AnalysisOptions
from repro.core.sanitize import SanitizationConfig, SanitizationReport
from repro.core.extract_isis import IsisExtractionConfig
from repro.core.extract_syslog import SyslogExtractionConfig
from repro.intervals import IntervalSet
from repro.intervals.timeline import AmbiguityStrategy, LinkState
from repro.ticketing import TicketSystem
from repro.util.atomic import write_json_atomic

#: Bumped whenever the checkpoint layout changes incompatibly.
CHECKPOINT_VERSION = 2


class CheckpointError(Exception):
    """A checkpoint document is unreadable or incompatible."""


# ------------------------------------------------------------- event codecs
def encode_message(message: LinkMessage) -> List[Any]:
    return [
        message.time,
        message.link,
        message.direction,
        message.reporter,
        message.source,
        message.category,
        message.reason,
    ]


def decode_message(raw: List[Any]) -> LinkMessage:
    time, link, direction, reporter, source, category, reason = raw
    return LinkMessage(
        time=time,
        link=link,
        direction=direction,
        reporter=reporter,
        source=source,
        category=category,
        reason=reason,
    )


def encode_transition(transition: Transition) -> List[Any]:
    return [
        transition.time,
        transition.link,
        transition.direction,
        transition.source,
        sorted(transition.reporters),
        [encode_message(message) for message in transition.messages],
    ]


def decode_transition(raw: List[Any]) -> Transition:
    time, link, direction, source, reporters, messages = raw
    return Transition(
        time=time,
        link=link,
        direction=direction,
        source=source,
        reporters=frozenset(reporters),
        messages=tuple(decode_message(message) for message in messages),
    )


def encode_failure(failure: FailureEvent) -> List[Any]:
    return [
        failure.link,
        failure.start,
        failure.end,
        failure.source,
        None
        if failure.start_transition is None
        else encode_transition(failure.start_transition),
        None
        if failure.end_transition is None
        else encode_transition(failure.end_transition),
    ]


def decode_failure(raw: List[Any]) -> FailureEvent:
    link, start, end, source, start_transition, end_transition = raw
    return FailureEvent(
        link=link,
        start=start,
        end=end,
        source=source,
        start_transition=None
        if start_transition is None
        else decode_transition(start_transition),
        end_transition=None
        if end_transition is None
        else decode_transition(end_transition),
    )


def encode_episode(episode: FlapEpisode) -> List[Any]:
    return [episode.link, episode.start, episode.end, episode.failure_count]


def decode_episode(raw: List[Any]) -> FlapEpisode:
    link, start, end, failure_count = raw
    return FlapEpisode(link=link, start=start, end=end, failure_count=failure_count)


def encode_report(report: SanitizationReport) -> Dict[str, Any]:
    return {
        "kept": [encode_failure(f) for f in report.kept],
        "removed_listener_overlap": [
            encode_failure(f) for f in report.removed_listener_overlap
        ],
        "removed_unverified_long": [
            encode_failure(f) for f in report.removed_unverified_long
        ],
        "verified_long": [encode_failure(f) for f in report.verified_long],
    }


def decode_report(raw: Dict[str, Any]) -> SanitizationReport:
    report = SanitizationReport()
    report.kept = [decode_failure(f) for f in raw["kept"]]
    report.removed_listener_overlap = [
        decode_failure(f) for f in raw["removed_listener_overlap"]
    ]
    report.removed_unverified_long = [
        decode_failure(f) for f in raw["removed_unverified_long"]
    ]
    report.verified_long = [decode_failure(f) for f in raw["verified_long"]]
    return report


def _encode_maybe_inf(value: float) -> Optional[float]:
    # JSON has no infinities; the engine's pre-first-event watermark is
    # the only non-finite value in its state.
    return None if math.isinf(value) else value


def _decode_watermark(raw: Optional[float]) -> float:
    return -math.inf if raw is None else raw


# ----------------------------------------------------------- options codec
def encode_options(options: "StreamOptions") -> Dict[str, Any]:  # noqa: F821
    analysis = options.analysis
    return {
        "drain_interval": options.drain_interval,
        "syslog": {
            "merge_window": analysis.syslog.merge_window,
            "strategy": analysis.syslog.strategy.value,
        },
        "isis": {
            "merge_window": analysis.isis.merge_window,
            "strategy": analysis.isis.strategy.value,
        },
        "matching": {"window": analysis.matching.window},
        "sanitization": {
            "long_failure_threshold": analysis.sanitization.long_failure_threshold,
            "ticket_slack": analysis.sanitization.ticket_slack,
        },
        "flap_gap_threshold": analysis.flap_gap_threshold,
    }


def decode_options(raw: Dict[str, Any]) -> "StreamOptions":  # noqa: F821
    from repro.stream.engine import StreamOptions

    return StreamOptions(
        analysis=AnalysisOptions(
            syslog=SyslogExtractionConfig(
                merge_window=raw["syslog"]["merge_window"],
                strategy=AmbiguityStrategy(raw["syslog"]["strategy"]),
            ),
            isis=IsisExtractionConfig(
                merge_window=raw["isis"]["merge_window"],
                strategy=AmbiguityStrategy(raw["isis"]["strategy"]),
            ),
            matching=MatchConfig(window=raw["matching"]["window"]),
            sanitization=SanitizationConfig(
                long_failure_threshold=raw["sanitization"][
                    "long_failure_threshold"
                ],
                ticket_slack=raw["sanitization"]["ticket_slack"],
            ),
            flap_gap_threshold=raw["flap_gap_threshold"],
        ),
        drain_interval=raw["drain_interval"],
    )


# ------------------------------------------------------- segment bookkeeping
def segment_path(path: str) -> str:
    """The results segment that belongs to the frontier document ``path``."""
    return f"{path}.results"


class SegmentMark:
    """What one engine has committed to one results segment.

    ``written`` maps each product list (``"matcher.pairs"``, ...) to how
    many of its entries the segment holds; ``refs`` maps each
    channel's raw failures (by identity) to their index in
    ``engine.raw_failures[channel]``, extended as the lists grow.
    """

    __slots__ = ("path", "length", "crc", "written", "refs")

    def __init__(
        self,
        path: str,
        length: int = 0,
        crc: int = 0,
        written: Optional[Dict[str, int]] = None,
        refs: Optional[Dict[str, Dict[int, int]]] = None,
    ) -> None:
        self.path = os.path.abspath(path)
        self.length = length
        self.crc = crc
        self.written: Dict[str, int] = written if written is not None else {}
        self.refs: Dict[str, Dict[int, int]] = refs if refs is not None else {}


class _Delta:
    """One save's view of the engine: products past the mark, by reference."""

    def __init__(
        self, engine: "StreamEngine", mark: SegmentMark  # noqa: F821
    ) -> None:
        self.written = mark.written
        #: What the segment holds once this save's chunk is appended.
        self.counts: Dict[str, int] = {}
        self.refs = mark.refs
        for channel, failures in engine.raw_failures.items():
            refs = self.refs.setdefault(channel, {})
            for index in range(len(refs), len(failures)):
                refs[id(failures[index])] = index

    def new(self, name: str, items: Sequence[Any]) -> Sequence[Any]:
        """The entries of product list ``name`` the segment lacks."""
        self.counts[name] = len(items)
        return items[self.written.get(name, 0) :]

    def ref(self, channel: str, failure: FailureEvent) -> int:
        """The raw-failure index that stands for ``failure``."""
        return self.refs[channel][id(failure)]


def _deref(failures: List[FailureEvent], index: int) -> FailureEvent:
    if not 0 <= index < len(failures):
        raise CheckpointError(
            f"failure reference {index} is outside the {len(failures)} "
            f"raw failures the results segment holds"
        )
    return failures[index]


# ------------------------------------------------------------ engine codec
def encode_engine(
    engine: "StreamEngine", delta: _Delta  # noqa: F821
) -> Dict[str, Any]:
    """The engine's live frontier plus one results chunk.

    ``"results"`` is a one-element list holding the products finalised
    since ``delta``'s mark; :func:`load_checkpoint` returns the same
    shape with every chunk the segment holds.
    """
    from repro.stream.engine import MERGER_KEYS
    from repro.stream.sources import ISIS_CHANNEL, SYSLOG_CHANNEL

    if engine.finished:
        raise CheckpointError("a finished engine cannot be checkpointed")
    channels = (SYSLOG_CHANNEL, ISIS_CHANNEL)
    sanitizers = {
        channel: _encode_sanitizer(engine.sanitizers[channel], delta, channel)
        for channel in channels
    }
    matcher_live, matcher_results = _encode_matcher(engine.matcher, delta)
    coverage_live, coverage_results = _encode_coverage(engine.coverage, delta)
    flaps_live, flaps_results = _encode_flaps(engine.flaps, delta)
    return {
        "version": CHECKPOINT_VERSION,
        "options": encode_options(engine.options),
        "horizon_start": engine.horizon_start,
        "horizon_end": engine.horizon_end,
        "watermark": _encode_maybe_inf(engine.watermark),
        "events_consumed": engine.events_consumed,
        "counters": dict(engine.counters),
        "mergers": {
            key: _encode_merger(engine.mergers[key]) for key in MERGER_KEYS
        },
        "timelines": {
            channel: {
                link: _encode_timeline(timeline)
                for link, timeline in sorted(engine.timelines[channel].items())
            }
            for channel in channels
        },
        "sanitizers": {channel: sanitizers[channel][0] for channel in channels},
        "matcher": matcher_live,
        "coverage": coverage_live,
        "flaps": flaps_live,
        "results": [
            {
                "raw_failures": {
                    channel: [
                        encode_failure(f)
                        for f in delta.new(
                            f"raw.{channel}", engine.raw_failures[channel]
                        )
                    ]
                    for channel in channels
                },
                "sanitizers": {
                    channel: sanitizers[channel][1] for channel in channels
                },
                "matcher": matcher_results,
                "coverage": coverage_results,
                "flaps": flaps_results,
            }
        ],
    }


def decode_engine(
    state: Dict[str, Any],
    resolver: LinkResolver,
    listener_outages: IntervalSet,
    tickets: Optional[TicketSystem],
) -> "StreamEngine":  # noqa: F821
    from repro.stream.engine import MERGER_KEYS, StreamEngine
    from repro.stream.sources import ISIS_CHANNEL, SYSLOG_CHANNEL

    if not isinstance(state, dict):
        raise CheckpointError(
            f"checkpoint document is {type(state).__name__}, not an object"
        )
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} is not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    # A version-tagged document can still be structurally mangled (a torn
    # write, a bit flip that survived JSON) — decoding it must fail as a
    # typed CheckpointError the caller can fall back from, never as a
    # bare KeyError/TypeError deep inside a codec.
    try:
        engine = StreamEngine(
            resolver,
            state["horizon_start"],
            state["horizon_end"],
            listener_outages,
            tickets,
            decode_options(state["options"]),
        )
        engine.watermark = _decode_watermark(state["watermark"])
        engine.events_consumed = state["events_consumed"]
        engine.counters = dict(state["counters"])
        chunks = state["results"]
        raw = engine.raw_failures
        for key in MERGER_KEYS:
            _decode_merger(engine.mergers[key], state["mergers"][key])
        for channel in (SYSLOG_CHANNEL, ISIS_CHANNEL):
            for chunk in chunks:
                raw[channel].extend(
                    decode_failure(f) for f in chunk["raw_failures"][channel]
                )
            for link, raw_timeline in state["timelines"][channel].items():
                engine.timelines[channel][link] = _decode_timeline(
                    engine, channel, link, raw_timeline
                )
            _decode_sanitizer(
                engine.sanitizers[channel],
                state["sanitizers"][channel],
                [chunk["sanitizers"][channel] for chunk in chunks],
                raw[channel],
            )
        _decode_matcher(
            engine.matcher,
            state["matcher"],
            [chunk["matcher"] for chunk in chunks],
            raw,
        )
        _decode_coverage(
            engine.coverage,
            state["coverage"],
            [chunk["coverage"] for chunk in chunks],
        )
        _decode_flaps(
            engine.flaps, state["flaps"], [chunk["flaps"] for chunk in chunks]
        )
    except CheckpointError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as error:
        raise CheckpointError(
            f"checkpoint structure invalid at {type(error).__name__}: {error}"
        ) from error
    return engine


def restore_engine(
    state: Dict[str, Any],
    resolver: LinkResolver,
    listener_outages: IntervalSet,
    tickets: Optional[TicketSystem],
) -> "StreamEngine":  # noqa: F821
    """Rebuild an engine from :func:`load_checkpoint` output.

    The engine keeps appending to the segment it was loaded from, past
    the product counts the frontier's segment record commits.
    """
    engine = decode_engine(state, resolver, listener_outages, tickets)
    try:
        segment = state["segment"]
        engine._segment = SegmentMark(
            segment["path"],
            segment["length"],
            segment["crc"],
            dict(segment["written"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"checkpoint has no results segment record ({error!r})"
        ) from error
    return engine


# ------------------------------------------------------- component codecs
def _encode_merger(merger: "RunMerger") -> Dict[str, Any]:  # noqa: F821
    return {
        "transition_count": merger.transition_count,
        "open_runs": {
            link: [encode_message(m) for m in run]
            for link, run in sorted(merger.open_runs.items())
        },
    }


def _decode_merger(
    merger: "RunMerger", raw: Dict[str, Any]  # noqa: F821
) -> None:
    merger.transition_count = raw["transition_count"]
    for link, run in raw["open_runs"].items():
        merger.open_runs[link] = [decode_message(m) for m in run]


#: The four lists of a sanitisation report, in segment order.
_REPORT_LISTS = (
    "kept",
    "removed_listener_overlap",
    "removed_unverified_long",
    "verified_long",
)


def _encode_sanitizer(
    sanitizer: "Sanitizer", delta: _Delta, channel: str  # noqa: F821
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    report = sanitizer.report
    decided = {
        name: [
            delta.ref(channel, f)
            for f in delta.new(
                f"sanitizer.{channel}.{name}", getattr(report, name)
            )
        ]
        for name in _REPORT_LISTS
    }
    live = {
        "held": {
            link: [delta.ref(channel, f) for f in queue]
            for link, queue in sorted(sanitizer.held.items())
        },
    }
    return live, {"report": decided}


def _decode_sanitizer(
    sanitizer: "Sanitizer",  # noqa: F821
    raw: Dict[str, Any],
    results: List[Dict[str, Any]],
    failures: List[FailureEvent],
) -> None:
    for part in results:
        for name in _REPORT_LISTS:
            getattr(sanitizer.report, name).extend(
                _deref(failures, i) for i in part["report"][name]
            )
    for link, queue in raw["held"].items():
        sanitizer.held[link] = deque(_deref(failures, i) for i in queue)


def _encode_timeline(timeline: "TimelineBuilder") -> Dict[str, Any]:  # noqa: F821
    return {
        "cursor": timeline.cursor,
        "state": timeline.state.value,
        "last_message_time": timeline.last_message_time,
        "tail": None
        if timeline.tail is None
        else [timeline.tail[0], timeline.tail[1], timeline.tail[2].value],
        "pending": [encode_transition(t) for t in timeline.pending],
        "pending_time": timeline.pending_time,
        "index": [
            [time, direction, encode_transition(transition)]
            for (time, direction), transition in sorted(timeline.index.items())
        ],
        "anomaly_count": timeline.anomaly_count,
        # Always empty between events (the engine collects after every
        # feed and advance); these failures are not in the segment yet.
        "emitted": [encode_failure(f) for f in timeline.emitted],
        "flushed": timeline.flushed,
    }


def _decode_timeline(
    engine: "StreamEngine",  # noqa: F821
    channel: str,
    link: str,
    raw: Dict[str, Any],
) -> "TimelineBuilder":  # noqa: F821
    from repro.core.events import SOURCE_ISIS_IS, SOURCE_SYSLOG
    from repro.stream.sources import SYSLOG_CHANNEL
    from repro.engine.timeline import TimelineBuilder

    timeline = TimelineBuilder(
        link,
        engine.horizon_start,
        engine.horizon_end,
        engine.options.analysis.syslog.strategy
        if channel == SYSLOG_CHANNEL
        else engine.options.analysis.isis.strategy,
        SOURCE_SYSLOG if channel == SYSLOG_CHANNEL else SOURCE_ISIS_IS,
    )
    timeline.cursor = raw["cursor"]
    timeline.state = LinkState(raw["state"])
    timeline.last_message_time = raw["last_message_time"]
    tail = raw["tail"]
    timeline.tail = (
        None if tail is None else (tail[0], tail[1], LinkState(tail[2]))
    )
    timeline.pending = [decode_transition(t) for t in raw["pending"]]
    timeline.pending_time = raw["pending_time"]
    timeline.index = {
        (time, direction): decode_transition(transition)
        for time, direction, transition in raw["index"]
    }
    timeline.anomaly_count = raw["anomaly_count"]
    timeline.emitted = [decode_failure(f) for f in raw["emitted"]]
    timeline.flushed = raw["flushed"]
    return timeline


def _encode_matcher(
    matcher: "Matcher", delta: _Delta  # noqa: F821
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    from repro.stream.sources import ISIS_CHANNEL, SYSLOG_CHANNEL

    def refs(name: str, channel: str, items: List[FailureEvent]) -> List[int]:
        return [delta.ref(channel, f) for f in delta.new(name, items)]

    live = {
        "links": {
            link: {
                "a_pending": len(state.a_pending),
                "b_pending": list(state.b_pending),
                "a_all": [delta.ref(SYSLOG_CHANNEL, f) for f in state.a_all],
                "b_all": [delta.ref(ISIS_CHANNEL, f) for f in state.b_all],
                "b_consumed": list(state.b_consumed),
            }
            for link, state in sorted(matcher.links.items())
        },
    }
    results = {
        "pairs": [
            [delta.ref(SYSLOG_CHANNEL, fa), delta.ref(ISIS_CHANNEL, fb)]
            for fa, fb in delta.new("matcher.pairs", matcher.pairs)
        ],
        "only_a": refs("matcher.only_a", SYSLOG_CHANNEL, matcher.only_a),
        "only_b": refs("matcher.only_b", ISIS_CHANNEL, matcher.only_b),
        "partial_a": refs("matcher.partial_a", SYSLOG_CHANNEL, matcher.partial_a),
        "partial_b": refs("matcher.partial_b", ISIS_CHANNEL, matcher.partial_b),
    }
    return live, results


def _decode_matcher(
    matcher: "Matcher",  # noqa: F821
    raw: Dict[str, Any],
    results: List[Dict[str, Any]],
    failures: Dict[str, List[FailureEvent]],
) -> None:
    from repro.stream.sources import ISIS_CHANNEL, SYSLOG_CHANNEL

    a_side = failures[SYSLOG_CHANNEL]
    b_side = failures[ISIS_CHANNEL]
    for part in results:
        matcher.pairs.extend(
            (_deref(a_side, a), _deref(b_side, b)) for a, b in part["pairs"]
        )
        matcher.only_a.extend(_deref(a_side, i) for i in part["only_a"])
        matcher.only_b.extend(_deref(b_side, i) for i in part["only_b"])
        matcher.partial_a.extend(_deref(a_side, i) for i in part["partial_a"])
        matcher.partial_b.extend(_deref(b_side, i) for i in part["partial_b"])
    for link, raw_state in raw["links"].items():
        state = matcher._state(link)
        state.a_all = [_deref(a_side, i) for i in raw_state["a_all"]]
        state.b_all = [_deref(b_side, i) for i in raw_state["b_all"]]
        state.b_consumed = list(raw_state["b_consumed"])
        # a_pending is always the trailing slice of a_all (decisions pop
        # from the front in arrival order), so its length suffices.
        pending = raw_state["a_pending"]
        state.a_pending = deque(
            state.a_all[len(state.a_all) - pending :] if pending else []
        )
        state.b_pending = deque(raw_state["b_pending"])


def _encode_coverage(
    coverage: "CoverageScorer", delta: _Delta  # noqa: F821
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    live = {
        "counts": {
            direction: {str(bucket): count for bucket, count in buckets.items()}
            for direction, buckets in coverage.counts.items()
        },
        "pending": [encode_transition(t) for t in coverage.pending],
        "messages": [
            [link, direction, [[time, reporter] for time, reporter in ring]]
            for (link, direction), ring in sorted(coverage.messages.items())
        ],
    }
    results = {
        "unmatched": [
            encode_transition(t)
            for t in delta.new("coverage.unmatched", coverage.unmatched)
        ],
    }
    return live, results


def _decode_coverage(
    coverage: "CoverageScorer",  # noqa: F821
    raw: Dict[str, Any],
    results: List[Dict[str, Any]],
) -> None:
    coverage.counts = {
        direction: {int(bucket): count for bucket, count in buckets.items()}
        for direction, buckets in raw["counts"].items()
    }
    for part in results:
        coverage.unmatched.extend(decode_transition(t) for t in part["unmatched"])
    coverage.pending = deque(decode_transition(t) for t in raw["pending"])
    for link, direction, ring in raw["messages"]:
        coverage.messages[(link, direction)] = deque(
            (time, reporter) for time, reporter in ring
        )


def _encode_flaps(
    flaps: "FlapDetector", delta: _Delta  # noqa: F821
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    live = {
        "runs": {
            link: [run.start, run.end, run.count]
            for link, run in sorted(flaps.runs.items())
        },
    }
    results = {
        "episodes": [
            encode_episode(e) for e in delta.new("flaps.episodes", flaps.episodes)
        ],
    }
    return live, results


def _decode_flaps(
    flaps: "FlapDetector",  # noqa: F821
    raw: Dict[str, Any],
    results: List[Dict[str, Any]],
) -> None:
    from repro.engine.flaps import FlapRun

    for part in results:
        flaps.episodes.extend(decode_episode(e) for e in part["episodes"])
    for link, (start, end, count) in raw["runs"].items():
        run = FlapRun.__new__(FlapRun)
        run.start = start
        run.end = end
        run.count = count
        flaps.runs[link] = run


# -------------------------------------------------------------- file I/O
def save_checkpoint(path: str, engine: "StreamEngine") -> None:  # noqa: F821
    """Append the engine's new results to the segment, then its frontier.

    The segment is cut to the length this engine itself committed (zero
    for an engine that never saved here), so a stale segment left by
    another run, or a tail torn by a crash, is never extended.  Only
    after the appended chunk is fsynced is the frontier renamed into
    place, so a crash leaves the previous checkpoint — unless this is
    the engine's first save here and a checkpoint it did not load
    already sits at ``path``: cutting to zero destroys that
    checkpoint's segment, and a crash before the rename leaves a
    frontier that loads as a :class:`CheckpointError`.
    """
    segment = segment_path(path)
    mark = engine._segment
    if mark is None or mark.path != os.path.abspath(segment):
        mark = SegmentMark(segment)
    delta = _Delta(engine, mark)
    document = encode_engine(engine, delta)
    (chunk,) = document.pop("results")
    data = json.dumps(chunk, separators=(",", ":")).encode("ascii") + b"\n"
    with open(segment, "ab") as handle:
        handle.truncate(mark.length)
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    length = mark.length + len(data)
    crc = zlib.crc32(data, mark.crc)
    document["segment"] = {"length": length, "crc": crc, "written": delta.counts}
    write_json_atomic(path, document)
    engine._segment = SegmentMark(segment, length, crc, delta.counts, mark.refs)


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read a checkpoint; raises :class:`CheckpointError` if it is bad.

    Returns the frontier document with ``"results"`` holding every chunk
    of the segment's committed prefix (what :meth:`StreamEngine.restore`
    takes).  A tail past the committed length — a save that crashed
    before its rename — is ignored here and cut by the next save.

    Every corruption mode a crashed or interrupted writer can produce —
    unreadable file, truncated or garbled JSON, a document of the wrong
    shape, an unknown version, a segment cut below its committed length
    or damaged inside it — surfaces as a :class:`CheckpointError` whose
    message names the file and what is wrong with it, so ``repro stream
    --resume`` can report it and the caller can fall back to a fresh run.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    try:
        document = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON ({error}); the file is "
            f"corrupt or was truncated mid-write"
        ) from error
    if not isinstance(document, dict) or "version" not in document:
        raise CheckpointError(f"{path} is not a checkpoint document")
    version = document["version"]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version!r}, which is not "
            f"supported (expected {CHECKPOINT_VERSION})"
        )
    segment = document.get("segment")
    if not (
        isinstance(segment, dict)
        and isinstance(segment.get("length"), int)
        and isinstance(segment.get("crc"), int)
        and segment["length"] >= 0
        and isinstance(segment.get("written"), dict)
        and all(
            isinstance(count, int) and count >= 0
            for count in segment["written"].values()
        )
    ):
        raise CheckpointError(f"checkpoint {path} has no valid segment record")
    document["segment"] = dict(segment, path=segment_path(path))
    document["results"] = _read_segment(segment_path(path), segment)
    return document


def _read_segment(path: str, segment: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The committed chunks of a results segment, CRC-checked."""
    length = segment["length"]
    try:
        with open(path, "rb") as handle:
            data = handle.read(length)
    except OSError as error:
        raise CheckpointError(
            f"cannot read results segment {path}: {error}"
        ) from error
    if len(data) < length:
        raise CheckpointError(
            f"results segment {path} holds {len(data)} of its {length} "
            f"committed bytes; it was cut below the checkpoint"
        )
    if zlib.crc32(data) != segment["crc"]:
        raise CheckpointError(
            f"results segment {path} fails its CRC check; the committed "
            f"region is damaged"
        )
    chunks = []
    for line in data.split(b"\n")[:-1]:
        try:
            chunks.append(json.loads(line))
        except ValueError as error:
            raise CheckpointError(
                f"results segment {path} holds an undecodable chunk ({error})"
            ) from error
    return chunks
