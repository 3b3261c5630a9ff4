"""Host-speed probes: fixed loads timed next to every repetition.

On a shared host the same interpreter work takes from 1x to 1.8x its
best time, and the speed changes within seconds and over tens of
minutes.  Process CPU time moves with wall time, so the slowdown is in
the CPU itself (neighbours' load on shared cores and caches), not in
scheduling.  Loads that do the kinds of work the program does slow down
with it:

- the interpreter load builds string-keyed dicts, runs a regular
  expression over syslog-like lines and sorts tuples;
- the codec load JSON-encodes a fixed checkpoint-shaped document.  On a
  loaded host encoding a large document slows more than interpreter
  work does, and a checkpoint pause is both.

The benchmark runs both loads before and after each repetition and
divides the repetition's wall time by the speed factor of the probes on
either side of it (:func:`factor`; :func:`pause_factor` for the
checkpoint pauses that set the open-loop tail).  A change to the program
moves the repetition and not the probes, so it shows in full; a slow
phase of the host moves both and largely cancels.  Raw wall times stay
in each result's provenance line.
"""

from __future__ import annotations

import gc
import json
import random
import re
import time
from typing import Callable, List, Tuple

#: Median time of the interpreter load on the 2-core x86_64 host
#: (Python 3.11) the benchmark was defined on, in its fastest phase.
#: Both constants only scale the normalised figures.
REFERENCE_S = 0.045
#: Time of the codec load on that host in the same phase, estimated from
#: its ratio to the interpreter load.
CODEC_REFERENCE_S = 0.020

_random = random.Random(20131)
_LINES = [
    f"<{_random.randint(0, 191)}>Oct {_random.randint(1, 28)} {_random.randint(0, 23):02d}:"
    f"{_random.randint(0, 59):02d}:{_random.randint(0, 59):02d} r{_random.randint(0, 300)} "
    f"%LINK-3-UPDOWN: Interface Ge{_random.randint(0, 9)}/{_random.randint(0, 48)}, "
    f"changed state to down"
    for _ in range(4500)
]
_PATTERN = re.compile(r"<(\d+)>(\w+) +(\d+) (\d+):(\d+):(\d+) (\S+) %([^:]+): (.*)")
_PAIRS = [(_random.random(), str(index)) for index in range(60000)]
#: Per-link runs and failure records, like a stream engine checkpoint.
_DOCUMENT = {
    "runs": {
        f"r{index}:Ge0/{index % 48}": [[_random.random() * 1e6, _random.random() * 1e6, step]
                                       for step in range(20)]
        for index in range(600)
    },
    "failures": [
        {"link": f"r{index % 300}:Ge0/{index % 48}", "start": _random.random() * 1e6,
         "end": _random.random() * 1e6, "reason": "isis-adjacency-down", "verified": index % 3 == 0}
        for index in range(1500)
    ],
}


def _interpreter() -> int:
    table = {}
    for index in range(45000):
        table[str(index)] = index * 2
    parsed = []
    for line in _LINES:
        match = _PATTERN.match(line)
        stamp = int(match.group(4)) * 3600 + int(match.group(5)) * 60 + int(match.group(6))
        parsed.append((match.group(7), stamp, match.group(9)))
    parsed.sort()
    rows = [{"host": host, "time": stamp, "text": text} for host, stamp, text in parsed]
    return sum(table.values()) + len({row["host"] for row in rows}) + len(sorted(_PAIRS))


def _codec() -> int:
    return len(json.dumps(_DOCUMENT, separators=(",", ":")))


def _timed(load: Callable[[], int]) -> float:
    start = time.perf_counter()
    load()
    return time.perf_counter() - start


def probe() -> Tuple[float, float]:
    """Wall seconds of one pass of each load: (interpreter, codec).

    The cyclic garbage collector is off during the pass: otherwise a
    collection triggered by the loads' allocations walks whatever heap
    the program left, and the probe would time that heap, not the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed(_interpreter), _timed(_codec)
    finally:
        if enabled:
            gc.enable()


def factor(probes: List[Tuple[float, float]]) -> float:
    """How much slower than the reference host interpreter work ran (1.0 = as fast)."""
    return sum(interpreter for interpreter, _ in probes) / len(probes) / REFERENCE_S


def pause_factor(probes: List[Tuple[float, float]]) -> float:
    """The same for a checkpoint pause: building a document, then encoding it."""
    total = sum(interpreter + codec for interpreter, codec in probes) / len(probes)
    return total / (REFERENCE_S + CODEC_REFERENCE_S)
