"""repro.faults — deterministic fault injection and the drop ledger.

Three pieces, mirroring how the paper treats measurement loss as the norm
rather than the exception:

* :mod:`repro.faults.ledger` — the :class:`IngestReport` drop ledger that
  lenient ingestion (any call given a ``report=``) fills instead of
  raising;
* :mod:`repro.faults.injectors` — seeded corruptors for the real on-disk
  artifacts (garbage and mid-line truncation in the collector log,
  truncated tails and bit-flipped payloads in the LSP archive, checkpoint
  mangling);
* :mod:`repro.faults.chaos` — the ``repro chaos`` harness that replays a
  seeded campaign under every injector and asserts the survival
  invariants (see ``docs/robustness.md``).

Only the ledger is imported eagerly: the ingestion modules
(:mod:`repro.syslog.collector`, :mod:`repro.isis.mrt`, ...) depend on it,
so pulling the injectors or the chaos runner in here would be circular.
They load on first attribute access instead.
"""

from repro.faults.ledger import (
    CHANNEL_CHECKPOINT,
    CHANNEL_ISIS,
    CHANNEL_SYSLOG,
    ChannelLedger,
    DropRecord,
    IngestReport,
)

__all__ = [
    "CHANNEL_CHECKPOINT",
    "CHANNEL_ISIS",
    "CHANNEL_SYSLOG",
    "ChannelLedger",
    "DropRecord",
    "IngestReport",
    "INJECTOR_NAMES",
    "run_chaos",
]


def __getattr__(name: str) -> object:
    if name == "run_chaos":
        from repro.faults.chaos import run_chaos

        return run_chaos
    if name == "INJECTOR_NAMES":
        from repro.faults.injectors import INJECTOR_NAMES

        return INJECTOR_NAMES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
