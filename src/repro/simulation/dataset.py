"""The dataset bundle a scenario produces and an analysis consumes.

A :class:`Dataset` is the analogue of everything the paper's authors had on
disk: the router configuration archive, the central syslog file, the
listener's LSP capture, the listener's own outage log, and the NOC ticket
system — plus, because this is a simulation, the generative ground truth
that lets EXPERIMENTS.md check both observation channels against reality.

Datasets round-trip to a directory (configs/, syslog.log, isis.dump,
ground_truth.json, tickets.json, meta.json) so expensive scenarios can be
generated once and re-analysed many times.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.faults.ledger import IngestReport
from repro.intervals import Interval, IntervalSet
from repro.isis.mrt import MrtDumpReader, MrtDumpWriter
from repro.simulation.failures import (
    FailureCause,
    GroundTruthFailure,
    MediaFlapEvent,
)
from repro.syslog.collector import LENIENT_ERRORS, SyslogCollector
from repro.ticketing import TicketSystem, TroubleTicket
from repro.topology.configmine import ConfigArchive, MinedInventory, mine_configs
from repro.topology.model import Network


@dataclass(frozen=True)
class DatasetSummary:
    """Aggregate counters for Table 1 style reporting."""

    router_count_core: int
    router_count_cpe: int
    link_count_core: int
    link_count_cpe: int
    config_file_count: int
    syslog_generated: int
    syslog_delivered: int
    syslog_lost: int
    syslog_inband_lost: int
    syslog_spurious: int
    lsp_record_count: int
    ground_truth_failure_count: int
    listener_outage_count: int
    ticket_count: int


@dataclass
class Dataset:
    """Everything one simulated measurement campaign produced."""

    network: Network
    configs: Dict[str, str]
    inventory: MinedInventory
    syslog_text: str
    lsp_records: List[Tuple[float, bytes]]
    ground_truth_failures: List[GroundTruthFailure]
    media_flaps: List[MediaFlapEvent]
    listener_outages: IntervalSet
    tickets: TicketSystem
    horizon_start: float
    horizon_end: float
    analysis_start: float
    summary: Optional[DatasetSummary] = None  # filled by the scenario runner

    # ------------------------------------------------------------- stream
    def iter_syslog_entries(
        self,
        *,
        strict: bool = True,
        report: Optional[IngestReport] = None,
    ) -> Iterator["CollectedEntry"]:
        """Parsed central-log entries in arrival order (streaming feed).

        Arrival order is what the collector's file preserves; generation
        timestamps inside the entries may be mildly out of order because of
        delivery delays — streaming consumers re-order them in event time
        (see :mod:`repro.stream.sources`).  ``strict=False`` quarantines
        malformed lines into ``report`` instead of raising.
        """
        return iter(
            SyslogCollector.parse_log(
                self.syslog_text, strict=strict, report=report
            )
        )

    def iter_lsp_records(self) -> Iterator[Tuple[float, bytes]]:
        """Timestamped raw LSPs in capture order (streaming feed)."""
        return iter(self.lsp_records)

    # ------------------------------------------------------------ persist
    def save(self, directory: Union[str, Path]) -> None:
        """Write the dataset to a directory (created if needed)."""
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)

        config_dir = root / "configs"
        config_dir.mkdir(exist_ok=True)
        for hostname, text in self.configs.items():
            (config_dir / f"{hostname}.cfg").write_text(text, encoding="utf-8")

        # A leniently loaded log keeps its undecodable octets as lone
        # surrogates; they are written back as the same octets.
        (root / "syslog.log").write_text(
            self.syslog_text, encoding="utf-8", errors=LENIENT_ERRORS
        )

        with MrtDumpWriter.open(root / "isis.dump") as writer:
            for time, payload in self.lsp_records:
                writer.write(time, payload)

        ground_truth = {
            "failures": [
                {**asdict(f), "cause": f.cause.value}
                for f in self.ground_truth_failures
            ],
            "media_flaps": [asdict(m) for m in self.media_flaps],
        }
        (root / "ground_truth.json").write_text(
            json.dumps(ground_truth), encoding="utf-8"
        )

        tickets = [asdict(ticket) for ticket in self.tickets.all_tickets()]
        (root / "tickets.json").write_text(json.dumps(tickets), encoding="utf-8")

        meta = {
            "horizon_start": self.horizon_start,
            "horizon_end": self.horizon_end,
            "analysis_start": self.analysis_start,
            "listener_outages": [
                [iv.start, iv.end] for iv in self.listener_outages
            ],
            "summary": asdict(self.summary) if self.summary else None,
        }
        (root / "meta.json").write_text(json.dumps(meta), encoding="utf-8")

    @classmethod
    def load(
        cls,
        directory: Union[str, Path],
        network: Network,
        *,
        strict: bool = True,
        report: Optional[IngestReport] = None,
    ) -> "Dataset":
        """Load a saved dataset.

        The :class:`Network` object is not serialised (it is fully
        determined by the scenario's topology parameters); pass the
        regenerated network.  The mined inventory is re-derived from the
        saved config archive, exactly as a fresh analysis would.

        ``strict=False`` is the hardened load for artifacts a crashed
        collector or listener left behind: broken UTF-8 in the syslog
        file decodes with replacement characters (the affected lines
        surface later as parse drops), and a truncated or corrupt LSP
        archive is salvaged — the valid prefix is kept and the cut is
        recorded in ``report``.  On clean artifacts both modes load
        identical datasets.
        """
        root = Path(directory)

        configs: Dict[str, str] = {}
        archive = ConfigArchive()
        for path in sorted((root / "configs").glob("*.cfg")):
            text = path.read_text(encoding="utf-8")
            configs[path.stem] = text
            archive.add(path.stem, text)
        inventory = mine_configs(archive)

        syslog_raw = (root / "syslog.log").read_bytes()
        syslog_text = syslog_raw.decode(
            "utf-8", errors="strict" if strict else LENIENT_ERRORS
        )

        with MrtDumpReader.open(
            root / "isis.dump", strict=strict, report=report
        ) as reader:
            lsp_records = reader.read_all()

        ground_truth = json.loads(
            (root / "ground_truth.json").read_text(encoding="utf-8")
        )
        failures = [
            GroundTruthFailure(
                **{**raw, "cause": FailureCause(raw["cause"])}
            )
            for raw in ground_truth["failures"]
        ]
        media_flaps = [MediaFlapEvent(**raw) for raw in ground_truth["media_flaps"]]

        tickets = TicketSystem(
            TroubleTicket(**raw)
            for raw in json.loads((root / "tickets.json").read_text(encoding="utf-8"))
        )

        meta = json.loads((root / "meta.json").read_text(encoding="utf-8"))
        summary = (
            DatasetSummary(**meta["summary"]) if meta.get("summary") else None
        )
        return cls(
            network=network,
            configs=configs,
            inventory=inventory,
            syslog_text=syslog_text,
            lsp_records=lsp_records,
            ground_truth_failures=failures,
            media_flaps=media_flaps,
            listener_outages=IntervalSet(
                Interval(start, end) for start, end in meta["listener_outages"]
            ),
            tickets=tickets,
            horizon_start=meta["horizon_start"],
            horizon_end=meta["horizon_end"],
            analysis_start=meta["analysis_start"],
            summary=summary,
        )
