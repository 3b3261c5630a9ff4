"""Event sources and the event-time merge feeding the streaming engine.

Each observation channel becomes an iterator of :class:`StreamEvent`
records ordered by ``(time, link, reporter)`` — the same total order the
batch extractors impose when they sort their message lists, so every
downstream state machine sees messages in exactly the order the batch
pipeline would.  :func:`merge_events` interleaves any number of such
sources into one globally time-ordered stream; the time of the last
delivered event is the engine's **watermark**, a proven lower bound on
every event still to come.

Adapters:

* :func:`syslog_events` — parses the central log file and re-orders the
  entries in event time (arrival order differs because of delivery
  delays; a complete saved log can simply be sorted, a live collector
  would use :class:`ReorderBuffer` with its transport's delay bound);
* :func:`isis_events` — replays the LSP archive through a fresh
  :class:`~repro.isis.listener.IsisListener` one record at a time,
  classifying each reachability change as it is diffed out.  Records
  that change nothing still yield ``tick`` events: LSP refresh floods
  are a natural clock that advances the watermark between failures.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.extract_isis import _observed, classify_change
from repro.core.extract_syslog import classify_entry
from repro.core.events import LinkMessage
from repro.core.links import LinkResolver
from repro.faults.ledger import IngestReport
from repro.isis.listener import IsisListener
from repro.simulation.dataset import Dataset

#: Channel labels carried by every event.
SYSLOG_CHANNEL = "syslog"
ISIS_CHANNEL = "isis"

#: Event kind for records that carry no message but advance the watermark.
KIND_TICK = "tick"
#: Event kind for LSPs the listener's LSDB rejected (duplicate floods).
KIND_REJECTED = "rejected"


@dataclass(frozen=True)
class StreamEvent:
    """One timestamped item of an observation channel.

    ``kind`` is the classification label the core extractors produced
    (``"isis"``/``"physical"`` for syslog, ``"is"``/``"ip"`` for IS-IS),
    one of their skip reasons (``"unparsed"``, ``"unresolved"``,
    ``"multilink"``, ``"other"``), or a source-level marker
    (:data:`KIND_TICK`, :data:`KIND_REJECTED`).  ``message`` is set only
    for the resolvable kinds.
    """

    time: float
    channel: str
    kind: str
    message: Optional[LinkMessage] = None


def _event_key(event: StreamEvent) -> Tuple[float, str, str]:
    if event.message is None:
        return (event.time, "", "")
    return (event.time, event.message.link, event.message.reporter)


class ReorderBuffer:
    """Restores event-time order over a stream with bounded disorder.

    A live syslog collector sees messages in arrival order; generation
    timestamps can lag arrival by at most the transport's maximum delay.
    Pushing events through a buffer with ``lateness`` set to that bound
    yields them in event-time order (ties broken by ``(link, reporter)``
    then insertion, matching the batch extractors' stable sort).  Events
    older than the already-released frontier raise — the transport bound
    was violated and equivalence with the batch analysis is void.
    """

    def __init__(self, lateness: float) -> None:
        if lateness < 0:
            raise ValueError("lateness must be non-negative")
        self.lateness = lateness
        self._heap: List[Tuple[Tuple[float, str, str], int, StreamEvent]] = []
        self._seq = 0
        self._max_time = -math.inf
        self._released = -math.inf

    def push(self, event: StreamEvent) -> List[StreamEvent]:
        """Add one event; returns every event now safe to release."""
        if event.time < self._released:
            raise ValueError(
                f"event at {event.time} arrived after the reorder horizon "
                f"{self._released} was released; increase lateness"
            )
        heapq.heappush(self._heap, (_event_key(event), self._seq, event))
        self._seq += 1
        self._max_time = max(self._max_time, event.time)
        # Strictly below the horizon: an event AT the horizon may still be
        # joined by equal-time peers whose tie-break sorts them earlier.
        horizon = self._max_time - self.lateness
        released: List[StreamEvent] = []
        while self._heap and self._heap[0][0][0] < horizon:
            released.append(heapq.heappop(self._heap)[2])
        self._released = max(self._released, horizon)
        return released

    def flush(self) -> List[StreamEvent]:
        """Release everything still buffered (end of stream)."""
        released = [heapq.heappop(self._heap)[2] for _ in range(len(self._heap))]
        self._released = max(self._released, self._max_time)
        return released


class LogTailer:
    """Incremental line reader over a *growing* log file.

    The always-on service journals every delivered syslog line to an
    append-only file and the tenant worker tails it; :meth:`poll` returns
    the lines completed since the last call.  The subtlety a naive tail
    gets wrong: reading a file that is being appended to can observe a
    **torn write** — the final line's bytes present but its newline not
    yet flushed.  Parsing that fragment would ledger a spurious
    ``malformed-line`` drop (and, one flush later, the same line would
    parse fine — a phantom loss the accounting could never close).  The
    tailer therefore buffers trailing bytes until their newline arrives:
    only complete lines are ever released, and :attr:`offset` — the byte
    position of everything released so far — advances only over complete
    lines, so it is always a valid resume point.

    ``close_partial()`` is the end-of-file counterpart: once the writer
    is known to be finished (service shutdown, crashed collector), a
    still-unterminated tail is genuinely torn and is returned for the
    caller to attribute, exactly like a torn TCP frame.
    """

    def __init__(self, path: "str | os.PathLike[str]", start_offset: int = 0) -> None:
        if start_offset < 0:
            raise ValueError("start_offset must be non-negative")
        self.path = os.fspath(path)
        self.offset = start_offset
        self._partial = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes read but not yet released (the buffered partial line)."""
        return len(self._partial)

    def poll(self) -> List[str]:
        """Read newly appended bytes; return newly *completed* lines.

        A file that does not exist yet simply yields nothing — the
        journal writer may not have created it on first poll.
        """
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self.offset + len(self._partial))
                data = handle.read()
        except FileNotFoundError:
            return []
        if not data:
            return []
        self._partial.extend(data)
        lines: List[str] = []
        while True:
            cut = self._partial.find(b"\n")
            if cut < 0:
                break
            raw = bytes(self._partial[:cut])
            del self._partial[: cut + 1]
            self.offset += cut + 1
            lines.append(raw.decode("utf-8", errors="replace"))
        return lines

    def close_partial(self) -> Optional[str]:
        """Release a buffered unterminated tail (writer known finished).

        Returns the torn fragment (for ledger attribution), or ``None``
        when the file ended on a clean newline.  :attr:`offset` advances
        past the fragment so the accounting still closes to the byte.
        """
        if not self._partial:
            return None
        fragment = bytes(self._partial).decode("utf-8", errors="replace")
        self.offset += len(self._partial)
        self._partial.clear()
        return fragment


def syslog_events(
    dataset: Dataset,
    resolver: LinkResolver,
    *,
    report: Optional[IngestReport] = None,
) -> Iterator[StreamEvent]:
    """The central log file as an event-time-ordered event stream.

    The saved log is complete, so re-ordering is a single stable sort by
    ``(time, link, reporter)`` — byte-for-byte the order the batch
    extractor's sorts produce.  (A live adapter would substitute a
    :class:`ReorderBuffer` bounded by the transport's maximum delay.)

    With a ``report`` malformed log lines are quarantined into it
    instead of raising — the same parse the batch pipeline applies, so
    both drivers see the same entries.
    """
    events: List[StreamEvent] = []
    for entry in dataset.iter_syslog_entries(report=report):
        kind, message = classify_entry(entry, resolver)
        time = message.time if message is not None else entry.generated_time
        events.append(StreamEvent(time, SYSLOG_CHANNEL, kind, message))
    events.sort(key=_event_key)
    return iter(events)


def isis_events(
    dataset: Dataset,
    resolver: LinkResolver,
    *,
    report: Optional[IngestReport] = None,
) -> Iterator[StreamEvent]:
    """The LSP archive replayed through a fresh listener, incrementally.

    Records are consumed one at a time (capture order is time order —
    the archive is append-only); all changes diffed out of the records
    sharing one timestamp are released together, sorted by
    ``(link, reporter)`` so ties resolve exactly as the batch
    extractor's stable sort does.

    Damaged records — undecodable, or with a regressed capture time —
    raise without a ``report`` and are quarantined into it with one,
    through the same replay loop as
    :func:`repro.core.extract_isis.replay_lsp_records`, so batch and
    stream remain equivalent on damaged archives.  A dropped record
    yields no event, not even a tick: the batch extractor never saw it
    either.
    """
    listener = IsisListener()
    pending: List[StreamEvent] = []
    pending_time: Optional[float] = None
    rejected = 0
    for time, changes in _observed(dataset.iter_lsp_records(), listener, report):
        if pending_time is not None and time > pending_time:
            pending.sort(key=_event_key)
            for event in pending:
                yield event
            pending = []
        pending_time = time

        if listener.rejected_count > rejected:
            rejected = listener.rejected_count
            pending.append(StreamEvent(time, ISIS_CHANNEL, KIND_REJECTED))
        elif not changes:
            pending.append(StreamEvent(time, ISIS_CHANNEL, KIND_TICK))
        for change in changes:
            kind, message = classify_change(change, resolver)
            pending.append(StreamEvent(change.time, ISIS_CHANNEL, kind, message))
    pending.sort(key=_event_key)
    for event in pending:
        yield event


def merge_events(
    streams: Sequence[Iterable[StreamEvent]],
) -> Iterator[StreamEvent]:
    """K-way event-time merge of individually ordered sources.

    Equal-time events across sources are released in source order — a
    fixed, deterministic tie-break, so a resumed run replays the exact
    same global sequence and checkpoint cut points are well defined.
    """
    heap: List[Tuple[float, int, StreamEvent, Iterator[StreamEvent]]] = []
    for index, stream in enumerate(streams):
        iterator = iter(stream)
        first = next(iterator, None)
        if first is not None:
            heap.append((first.time, index, first, iterator))
    heapq.heapify(heap)
    while heap:
        time, index, event, iterator = heapq.heappop(heap)
        yield event
        following = next(iterator, None)
        if following is not None:
            heapq.heappush(heap, (following.time, index, following, iterator))


def dataset_event_stream(
    dataset: Dataset,
    resolver: LinkResolver,
    *,
    report: Optional[IngestReport] = None,
) -> Iterator[StreamEvent]:
    """The canonical merged event stream of a saved campaign."""
    return merge_events(
        [
            syslog_events(dataset, resolver, report=report),
            isis_events(dataset, resolver, report=report),
        ]
    )
