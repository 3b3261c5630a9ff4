"""Checkpoint/resume: a live-state frontier plus an append-only results segment.

A checkpoint of a :class:`~repro.stream.engine.StreamEngine` is two files:

* the **frontier document** (``path``) holds only live machine state —
  open message runs, per-link timeline machines, held failures awaiting
  their ticket horizon, undecided match candidates, coverage rings and
  pending transitions, open flap runs, counters — plus its segment
  record: the results segment's file name, its committed byte length, a
  running :func:`zlib.crc32` of those bytes and how many entries of each
  product list they hold.  It is replaced atomically on every save, and
  its size is bounded by the network's links, not by the campaign's
  length;
* the **results segment** (``<path>.results`` or ``<path>.results.1``,
  whichever the frontier names) is append-only: each save appends one
  JSON line holding the products finalised since the previous save —
  raw failures, sanitisation decisions, match pairs and verdicts,
  unmatched coverage transitions, flap episodes — each encoded exactly
  once.

The codec is derived from types; each type's encoder and decoder is
built once, on first use.  Events and options are dataclasses, stored as
the list of their fields.  Each engine machine is stored as the list of
the state attributes it annotates (see :mod:`repro.engine.state`); its
constructor rebuilds everything else from the engine's options.  Only
what JSON lacks is coded specially: an enum is stored as its value, a
frozenset as a sorted list, a tuple as a list, and a dict keyed by
anything but strings as a list of ``[*key, value]`` entries.  Floats
survive exactly (JSON carries them as shortest-round-trip decimal); an
infinite one, in practice only the watermark of an engine that has seen
no event, is written as ``-Infinity``, the extension :mod:`json` writes
and reads back.  Two layout rules complete it.  Inside machine state, a
failure that the raw failure lists hold is stored as its index there
(``i`` for syslog, ``~i`` for IS-IS).  A product attribute
(``Annotated[..., PRODUCTS]``) goes to the segment, past what the
previous save committed, instead of the frontier.  A restored engine is
therefore value-identical to the checkpointed one, and the resumed
stream finishes with byte-identical results; the test suite cuts random
event streams at random points to enforce this.

Saving appends and fsyncs the segment first (after cutting it to the
length this engine itself committed, so a stale or torn tail is never
extended), then renames the new frontier into place.  A crash between
the two leaves the previous frontier, whose committed length simply
excludes the new tail.  An engine's first save at a path writes the
segment name the frontier already there does not name, and removes the
superseded segment only after its own frontier is in place, so a crash
at any point of any save leaves the previous checkpoint loadable.
Loading reads the committed prefix of the segment the frontier names,
checks its CRC and re-reads every product; any damage inside the
committed region surfaces as a typed :class:`CheckpointError`.

The frontier also records how many events the engine had consumed.
Event delivery is deterministic (the merge's tie-breaks are fixed), so
resuming is simply: rebuild the engine, skip that many events, continue.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import json
import os
import zlib
from collections import deque
from contextvars import ContextVar
from operator import attrgetter
from typing import (
    Annotated,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.core.events import FailureEvent
from repro.core.links import LinkResolver
from repro.engine.state import PRODUCTS
from repro.engine.timeline import TimelineBuilder
from repro.intervals import IntervalSet
from repro.stream.sources import ISIS_CHANNEL, SYSLOG_CHANNEL
from repro.ticketing import TicketSystem
from repro.util.atomic import write_json_atomic

#: Bumped whenever the checkpoint layout changes incompatibly.
CHECKPOINT_VERSION = 3


class CheckpointError(Exception):
    """A checkpoint document is unreadable or incompatible."""


# ------------------------------------------------------------------- codec
Encoder = Callable[[Any], Any]
Decoder = Callable[[Any], Any]
#: A ``None`` encoder (decoder) marks values that are their own JSON
#: (raw data that is already the value): nothing is called for them.
Codec = Tuple[Optional[Encoder], Optional[Decoder]]

# Failure references are bound per encode/decode in context variables,
# not passed down, so encoders stay single-argument and builtins such as
# ``list`` and ``sorted`` serve as encoders.
#: While machine state is encoded: ``id(failure)`` -> its reference.
_REFS: ContextVar[Optional[Dict[int, int]]] = ContextVar("refs", default=None)
#: While machine state is decoded: a failure reference -> the failure.
_DEREF: ContextVar[Optional[Callable[[int], FailureEvent]]] = ContextVar(
    "deref", default=None
)

#: Types JSON carries as they are.  Python's json module writes ±inf as
#: ``Infinity``/``-Infinity`` and reads them back, so floats need nothing.
_JSON_NATIVE = (str, int, float, bool, type(None))


def encode(value: Any, tp: Any = None) -> Any:
    """``value`` as JSON data, by ``tp`` (default: its own class)."""
    encoder = _codec(type(value) if tp is None else tp)[0]
    return value if encoder is None else encoder(value)


def decode(tp: Any, raw: Any) -> Any:
    """The value of type ``tp`` that :func:`encode` stored as ``raw``."""
    decoder = _codec(tp)[1]
    return raw if decoder is None else decoder(raw)


@functools.lru_cache(maxsize=None)
def _codec(tp: Any) -> Codec:
    """The encoder and decoder of one type, built on its first use."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        return _codec(args[0])
    if tp in _JSON_NATIVE:
        return None, None
    if origin in (list, deque) or (origin is tuple and args[-1] is Ellipsis):
        return _sequence(origin, _codec(args[0]))
    if origin is tuple:
        return _fields(None, args, tuple)
    if origin is frozenset and _codec(args[0]) == (None, None):
        # Sorted, so equal sets encode equally.
        return sorted, frozenset
    if origin is dict:
        return _mapping(args[0], _codec(args[1]))
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return attrgetter("value"), tp
    if tp is FailureEvent:
        return _failure(_record(tp))
    if dataclasses.is_dataclass(tp):
        return _record(tp)
    if isinstance(tp, type) and _machine_state(tp)[0]:
        return _machine(tp)
    raise TypeError(f"the checkpoint codec has no rule for {tp!r}")


def _sequence(build: Callable[[Any], Any], codec: Codec) -> Codec:
    item_encoder, item_decoder = codec
    encoder: Encoder = list
    decoder: Decoder = build
    if item_encoder is not None:
        encoder = lambda value: list(map(item_encoder, value))  # noqa: E731
    if item_decoder is not None:
        decoder = lambda raw: build(map(item_decoder, raw))  # noqa: E731
    return encoder, decoder


def _mapping(key_type: Any, value_codec: Codec) -> Codec:
    if key_type is str and value_codec == (None, None):
        return dict, dict
    encode_value = value_codec[0] or _same
    decode_value = value_codec[1] or _same
    if key_type is str:
        return (
            lambda value: {key: encode_value(item) for key, item in value.items()},
            lambda raw: {key: decode_value(item) for key, item in raw.items()},
        )
    # JSON keys are strings, so any other key goes into an entry ahead of
    # its value; a tuple key is spread over its components.
    encode_key = _codec(key_type)[0] or _same
    decode_key = _codec(key_type)[1] or _same
    if get_origin(key_type) is tuple:
        return (
            lambda value: [
                [*encode_key(key), encode_value(item)] for key, item in value.items()
            ],
            lambda raw: {
                decode_key(entry[:-1]): decode_value(entry[-1]) for entry in raw
            },
        )
    return (
        lambda value: [
            [encode_key(key), encode_value(item)] for key, item in value.items()
        ],
        lambda raw: {decode_key(key): decode_value(item) for key, item in raw},
    )


def _same(value: Any) -> Any:
    return value


def _fields(
    names: Optional[Sequence[str]],
    hints: Sequence[Any],
    build: Callable[[List[Any]], Any],
) -> Codec:
    """A value stored as the list of its fields, typed ``hints``: the
    attributes ``names``, or a tuple's items for ``None``; ``build`` makes
    the value from the decoded list.  A field that is ``None`` is its own
    JSON, so an ``Optional[X]`` field is coded as ``X``."""
    required = [_required(hint) for hint in hints]
    codecs = [_codec(hint) for hint in required]
    decoders = [(i, codec[1]) for i, codec in enumerate(codecs) if codec[1]]
    width = len(codecs)

    def decode_fields(raw: Any) -> Any:
        if len(raw) != width:
            raise ValueError(f"expected {width} fields, found {len(raw)}")
        if decoders:
            raw = list(raw)
            for i, decoder in decoders:
                if raw[i] is not None:
                    raw[i] = decoder(raw[i])
        return build(raw)

    encoders = [codec[0] for codec in codecs]
    if names is None and not any(encoders):
        return None, decode_fields  # JSON writes the tuple as a list
    optional = [hint is not bare for hint, bare in zip(hints, required)]
    return _compile_encoder(names, encoders, optional), decode_fields


def _compile_encoder(
    names: Optional[Sequence[str]],
    encoders: Sequence[Optional[Encoder]],
    optional: Sequence[bool],
) -> Encoder:
    """``lambda value: [value.a, _1(value.b), ...]``, compiled once per type.

    Generated like a dataclass's ``__init__``: direct attribute loads and
    calls, so a save costs what hand-written encoders cost.
    """
    namespace: Dict[str, Any] = {}
    items = []
    for i, encoder in enumerate(encoders):
        field = f"value[{i}]" if names is None else f"value.{names[i]}"
        if encoder is None:
            items.append(field)
            continue
        namespace[f"_{i}"] = encoder
        call = f"_{i}({field})"
        items.append(f"(None if {field} is None else {call})" if optional[i] else call)
    exec(f"def encode(value):\n    return [{', '.join(items)}]\n", namespace)
    return namespace["encode"]


def _required(hint: Any) -> Any:
    """``X`` for ``Optional[X]``; any other hint as it is."""
    if get_origin(hint) is Union:
        (inner,) = [arg for arg in get_args(hint) if arg is not type(None)]
        return inner
    return hint


def _record(cls: Any) -> Codec:
    hints = get_type_hints(cls)
    names = [field.name for field in dataclasses.fields(cls)]
    return _fields(
        names,
        [hints[name] for name in names],
        lambda values: cls(*values),
    )


def _failure(whole: Codec) -> Codec:
    """Inside machine state, a failure the raw lists hold is stored as its
    reference; any other failure is stored whole."""
    encode_whole, decode_whole = whole
    assert encode_whole is not None and decode_whole is not None

    def encode_failure(failure: FailureEvent) -> Any:
        refs = _REFS.get()
        ref = None if refs is None else refs.get(id(failure))
        return encode_whole(failure) if ref is None else ref

    def decode_failure(raw: Any) -> FailureEvent:
        if not isinstance(raw, int):
            return decode_whole(raw)
        deref = _DEREF.get()
        if deref is None:
            raise ValueError("a failure reference outside machine state")
        return deref(raw)

    return encode_failure, decode_failure


# --------------------------------------------------------- machine state
#: One product list of a machine: (name, getter, codec of the list).
_Product = Tuple[str, Callable[[Any], List[Any]], Codec]


@functools.lru_cache(maxsize=None)
def _machine_state(cls: type) -> Tuple[List[str], Codec, List[_Product]]:
    """A machine's annotated state: the names of its live attributes, the
    codec of their values as a list, and its product lists (a product
    dataclass contributes one per field)."""
    names: List[str] = []
    hints: List[Any] = []
    products: List[_Product] = []
    annotations = get_type_hints(cls, include_extras=True)
    for name, hint in annotations.items():  # reprolint: disable=D005 -- declaration order is the frontier layout
        if PRODUCTS not in getattr(hint, "__metadata__", ()):
            names.append(name)
            hints.append(hint)
            continue
        inner = get_args(hint)[0]
        if dataclasses.is_dataclass(inner):
            fields = get_type_hints(inner)
            for field in dataclasses.fields(inner):
                path = f"{name}.{field.name}"
                products.append((path, attrgetter(path), _codec(fields[field.name])))
        else:
            products.append((name, attrgetter(name), _codec(inner)))
    return names, _fields(names, hints, list), products


def _machine(cls: type) -> Codec:
    """A machine nested in another's state, rebuilt without its constructor."""
    names, (encoder, decoder), products = _machine_state(cls)
    if products:
        raise TypeError(f"{cls.__name__} holds products; only the engine encodes it")
    assert decoder is not None
    return encoder, lambda raw: _fill(cls.__new__(cls), names, decoder(raw))


def _fill(machine: Any, names: Sequence[str], values: Sequence[Any]) -> Any:
    for name, value in zip(names, values):
        setattr(machine, name, value)
    return machine


def _encode_machine(
    machine: Any, name: str, delta: "_Delta"
) -> Tuple[Any, Dict[str, Any]]:
    """A machine's live state, and its product entries past the mark."""
    _, (encoder, _), products = _machine_state(type(machine))
    assert encoder is not None
    chunk = {}
    for path, get, (encode_list, _) in products:
        new = delta.new(f"{name}.{path}", get(machine))
        chunk[path] = list(new) if encode_list is None else encode_list(new)
    return encoder(machine), chunk


def _restore_machine(machine: Any, live: Any, chunks: List[Dict[str, Any]]) -> None:
    """Set a constructed machine's live state and re-append its products."""
    names, (_, decoder), products = _machine_state(type(machine))
    assert decoder is not None
    _fill(machine, names, decoder(live))
    for path, get, (_, decode_list) in products:
        items = get(machine)
        for chunk in chunks:
            raw = chunk[path]
            items.extend(raw if decode_list is None else decode_list(raw))


# ------------------------------------------------------- segment bookkeeping
#: The two segment names a frontier at ``path`` alternates between.
_SEGMENT_SUFFIXES = (".results", ".results.1")


def _segment_names(path: str) -> Tuple[str, ...]:
    frontier = os.path.abspath(path)
    return tuple(frontier + suffix for suffix in _SEGMENT_SUFFIXES)


def _named_segment(path: str) -> Optional[str]:
    """The segment the frontier at ``path`` names, if one is readable."""
    try:
        with open(path, "rb") as handle:
            return _segment_of(path, json.loads(handle.read()))
    except (OSError, ValueError):
        return None


def _segment_of(path: str, document: Any) -> Optional[str]:
    """The segment a frontier document names: a file beside ``path``."""
    segment = document.get("segment") if isinstance(document, dict) else None
    name = segment.get("file") if isinstance(segment, dict) else None
    if not isinstance(name, str) or name in ("", ".", ".."):
        return None
    if os.path.basename(name) != name:
        return None
    return os.path.join(os.path.dirname(os.path.abspath(path)), name)


def segment_path(path: str) -> str:
    """The results segment of the checkpoint at ``path``.

    That is the file its frontier names or, with no readable frontier
    there, the one a fresh engine's first save would write.
    """
    return _named_segment(path) or _segment_names(path)[0]


class SegmentMark:
    """What one engine has committed to one results segment.

    ``written`` maps each product list (``"matcher.pairs"``, ...) to how
    many of its entries the segment holds.  ``refs`` maps each raw
    failure (by identity) to its reference — its index in
    ``engine.raw_failures[channel]``, bit-inverted for IS-IS — and
    ``indexed`` counts the failures of each channel it covers; both are
    extended as the raw lists grow.
    """

    __slots__ = ("path", "length", "crc", "written", "refs", "indexed")

    def __init__(
        self,
        path: str,
        length: int = 0,
        crc: int = 0,
        written: Optional[Dict[str, int]] = None,
    ) -> None:
        self.path = os.path.abspath(path)
        self.length = length
        self.crc = crc
        self.written: Dict[str, int] = written if written is not None else {}
        self.refs: Dict[int, int] = {}
        self.indexed: Dict[str, int] = {}


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
            isis = channel == ISIS_CHANNEL
            for index in range(mark.indexed.get(channel, 0), len(failures)):
                self.refs[id(failures[index])] = ~index if isis else index
            mark.indexed[channel] = len(failures)

    def new(self, name: str, items: Sequence[Any]) -> Sequence[Any]:
        """The entries of product list ``name`` the segment lacks."""
        self.counts[name] = len(items)
        return items[self.written.get(name, 0) :]


def _dereferencer(raw: Dict[str, List[FailureEvent]]) -> Callable[[int], FailureEvent]:
    def deref(ref: int) -> FailureEvent:
        channel, index = (SYSLOG_CHANNEL, ref) if ref >= 0 else (ISIS_CHANNEL, ~ref)
        failures = raw[channel]
        if index >= len(failures):
            raise CheckpointError(
                f"failure reference {ref} is outside the {len(failures)} "
                f"raw {channel} failures the results segment holds"
            )
        return failures[index]

    return deref


# ------------------------------------------------------------ engine codec
#: The raw failure lists, stored whole.
_FAILURES = List[FailureEvent]


def _machines(engine: "StreamEngine") -> List[Tuple[str, Optional[str], Any]]:  # noqa: F821
    """The engine's fixed machines: (document key, key within it, machine)."""
    return [
        *(("mergers", key, merger) for key, merger in engine.mergers.items()),
        *(("sanitizers", channel, s) for channel, s in engine.sanitizers.items()),
        ("matcher", None, engine.matcher),
        ("coverage", None, engine.coverage),
        ("flaps", None, engine.flaps),
    ]


def encode_engine(
    engine: "StreamEngine", delta: Optional[_Delta] = None  # noqa: F821
) -> Dict[str, Any]:
    """The engine's live frontier plus one results chunk.

    ``"results"`` is a one-element list holding the products finalised
    since ``delta``'s mark (all of them without one);
    :func:`load_checkpoint` returns the same shape with every chunk the
    segment holds.
    """
    if engine.finished:
        raise CheckpointError("a finished engine cannot be checkpointed")
    if delta is None:
        delta = _Delta(engine, SegmentMark(""))
    chunk: Dict[str, Any] = {
        "raw_failures": {
            channel: encode(delta.new(f"raw_failures.{channel}", failures), _FAILURES)
            for channel, failures in engine.raw_failures.items()
        }
    }
    document: Dict[str, Any] = {
        "version": CHECKPOINT_VERSION,
        "options": encode(engine.options),
        "horizon_start": engine.horizon_start,
        "horizon_end": engine.horizon_end,
        "watermark": engine.watermark,
        "events_consumed": engine.events_consumed,
        "counters": dict(engine.counters),
    }
    encode_timeline = _machine_state(TimelineBuilder)[1][0]
    assert encode_timeline is not None
    with _bound(_REFS, delta.refs):
        document["timelines"] = {
            channel: {link: encode_timeline(timeline) for link, timeline in timelines.items()}
            for channel, timelines in engine.timelines.items()
        }
        for section, key, machine in _machines(engine):
            name = section if key is None else f"{section}.{key}"
            live, products = _encode_machine(machine, name, delta)
            _put(document, section, key, live)
            _put(chunk, section, key, products)
    document["results"] = [chunk]
    return document


@contextlib.contextmanager
def _bound(var: "ContextVar[Any]", value: Any) -> Iterator[None]:
    token = var.set(value)
    try:
        yield
    finally:
        var.reset(token)


def _put(target: Dict[str, Any], section: str, key: Optional[str], value: Any) -> None:
    if key is None:
        target[section] = value
    else:
        target.setdefault(section, {})[key] = value


def _get(source: Dict[str, Any], section: str, key: Optional[str]) -> Any:
    return source[section] if key is None else source[section][key]


def decode_engine(
    state: Dict[str, Any],
    resolver: LinkResolver,
    listener_outages: IntervalSet,
    tickets: Optional[TicketSystem],
) -> "StreamEngine":  # noqa: F821
    from repro.stream.engine import StreamEngine, StreamOptions

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
            decode(StreamOptions, state["options"]),
        )
        engine.watermark = state["watermark"]
        engine.events_consumed = state["events_consumed"]
        engine.counters = dict(state["counters"])
        chunks = state["results"]
        for chunk in chunks:
            for channel in (SYSLOG_CHANNEL, ISIS_CHANNEL):
                raw = chunk["raw_failures"][channel]
                engine.raw_failures[channel].extend(decode(_FAILURES, raw))
        with _bound(_DEREF, _dereferencer(engine.raw_failures)):
            for channel, timelines in engine.timelines.items():
                for link, raw in state["timelines"][channel].items():
                    timeline = timelines[link] = engine.new_timeline(channel, link)
                    _restore_machine(timeline, raw, [])
            for section, key, machine in _machines(engine):
                _restore_machine(
                    machine,
                    _get(state, section, key),
                    [_get(chunk, section, key) for chunk in chunks],
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
            segment["path"], segment["length"], segment["crc"], dict(segment["written"])
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"checkpoint has no results segment record ({error!r})"
        ) from error
    return engine


# -------------------------------------------------------------- file I/O
def save_checkpoint(path: str, engine: "StreamEngine") -> None:  # noqa: F821
    """Append the engine's new results to its segment, then its frontier.

    The segment is cut to the length this engine itself committed (zero
    for an engine that never saved here), so a stale segment left by
    another run, or a tail torn by a crash, is never extended.  Only
    after the appended chunk is fsynced is the frontier renamed into
    place, so a crash leaves the previous checkpoint.  An engine's first
    save here writes the segment name the frontier already at ``path``
    does not name, and removes the other name only once its own frontier
    has replaced that one.
    """
    names = _segment_names(path)
    mark = engine._segment
    fresh = mark is None or mark.path not in names
    if fresh:
        mark = SegmentMark(names[1] if _named_segment(path) == names[0] else names[0])
    assert mark is not None
    delta = _Delta(engine, mark)
    document = encode_engine(engine, delta)
    (chunk,) = document.pop("results")
    data = json.dumps(chunk, separators=(",", ":")).encode("ascii") + b"\n"
    with open(mark.path, "ab") as handle:
        handle.truncate(mark.length)
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    length = mark.length + len(data)
    crc = zlib.crc32(data, mark.crc)
    document["segment"] = {
        "file": os.path.basename(mark.path),
        "length": length,
        "crc": crc,
        "written": delta.counts,
    }
    write_json_atomic(path, document)
    if fresh:
        for superseded in names:
            if superseded != mark.path:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(superseded)
    mark.length, mark.crc, mark.written = length, crc, delta.counts
    engine._segment = mark


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read a checkpoint; raises :class:`CheckpointError` if it is bad.

    Returns the frontier document with ``"results"`` holding every chunk
    of the committed prefix of the segment it names (what
    :meth:`StreamEngine.restore` takes).  A tail past the committed
    length — a save that crashed before its rename — is ignored here and
    cut by the next save.

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
    named = _segment_of(path, document)
    if not (
        named is not None
        and isinstance(segment, dict)
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
    document["segment"] = dict(segment, path=named)
    document["results"] = _read_segment(named, segment)
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
