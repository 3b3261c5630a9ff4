"""Deliberately bad: the ingestion ledger severed.

``load_archive`` accepts a drop ledger and honours it nowhere: ``report``
is never forwarded nor recorded into (R002), so the parser below runs
without one and raises on the damage the caller asked it to quarantine.
"""


def parse_records(text, *, report=None):
    records = []
    for line in text.splitlines():
        if not line:
            if report is None:
                raise ValueError("blank record")
            report.append("blank record dropped")
            continue
        records.append(line)
    return records


def load_archive(path, *, report=None):  # R002: ledger severed
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_records(text)
