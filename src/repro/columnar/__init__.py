"""Columnar (vectorised) syslog ingest fast path.

The scalar parser in :mod:`repro.syslog.collector` walks the log one line
at a time through a regex and ``strptime`` — robust, but ~70 µs/line, which
turns a fleet-scale corpus (see :mod:`repro.fleet`) into minutes of ingest.
This package batch-parses the log with numpy on the raw byte buffer and
routes only the lines it cannot *prove* it handles identically back through
the scalar parser, so the result — entries, running timestamp context,
drop ledgers, and strict-mode errors — is exactly what the scalar parser
produces, at a fraction of the cost.

The engine is pure numpy; Polars is detected (``available_backends``) but
not required, and its absence changes nothing.  See ``docs/scale.md`` for
the identity contract and the benchmark protocol behind ``BENCH_fleet.json``.
"""

from repro.columnar.ingest import (
    COLUMNAR_AVAILABLE,
    available_backends,
    parse_log_columnar,
)

__all__ = [
    "COLUMNAR_AVAILABLE",
    "available_backends",
    "parse_log_columnar",
]
