"""Simulation time conventions.

Simulation time is a float: seconds since the start of the measurement
period.  The study period in the paper runs Oct 20, 2010 – Nov 11, 2011; we
anchor timestamp rendering at that epoch so generated syslog lines look like
the originals.
"""

from __future__ import annotations

import calendar
import datetime
import functools
import re
from typing import Dict, List, Optional, Tuple

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
SECONDS_PER_YEAR = 365.0 * SECONDS_PER_DAY

#: Start of the CENIC measurement period used for timestamp rendering.
STUDY_EPOCH = datetime.datetime(2010, 10, 20, 0, 0, 0)


def format_timestamp(sim_time: float) -> str:
    """Render simulation time as a Cisco-style syslog timestamp.

    Cisco's syslog convention is ``Mmm dd HH:MM:SS.mmm`` (month name, space,
    day, time with milliseconds).

    >>> format_timestamp(0.0)
    'Oct 20 00:00:00.000'
    """
    moment = STUDY_EPOCH + datetime.timedelta(seconds=sim_time)
    millis = moment.microsecond // 1000
    return f"{moment.strftime('%b')} {moment.day:2d} {moment.strftime('%H:%M:%S')}.{millis:03d}"


#: How far back a syslog timestamp may legitimately sit behind the newest
#: one already seen in a log (transport delay and skew), when resolving the
#: year ambiguity below.
_YEAR_RESOLUTION_SLACK = 2 * 86400.0


class TimestampRangeError(ValueError):
    """A parseable timestamp with no candidate year consistent with ``after``.

    Raised when the log's progress (``after``) has advanced so far past
    every occurrence of the named calendar moment that no year assignment
    is plausible — previously this case silently resolved to the most
    recent *past* occurrence, producing timestamps that jumped backwards
    by roughly a year.
    """


#: Month numbers by the name ``%b`` renders them with, derived through
#: strftime so the table matches whatever ``%b`` strptime accepts in this
#: locale.  The columnar parser builds its byte-level table from this one.
MONTH_BY_NAME: Dict[str, int] = {
    datetime.date(2001, month, 1).strftime("%b"): month for month in range(1, 13)
}

#: Days in each month of a common (non-leap) year, January first.
DAYS_IN_MONTH: Tuple[int, ...] = tuple(
    calendar.monthrange(2001, month)[1] for month in range(1, 13)
)

#: The canonical year-less body ``Mmm dd HH:MM:SS`` with every field in
#: the range strptime accepts, the day space- or zero-padded.  Only
#: these bodies take the arithmetic path; strptime is the barrier for
#: every other shape (24:00:00, :60, day 00, odd spacing, lower case...).
_CANONICAL_BODY = re.compile(
    r"([A-Z][a-z]{2}) ( [1-9]|0[1-9]|[12][0-9]|3[01]) "
    r"([01][0-9]|2[0-3]):([0-5][0-9]):([0-5][0-9])"
)


@functools.lru_cache(maxsize=None)
def month_start(year: int, month: int) -> Tuple[int, int]:
    """``(seconds, days)``: the 1st of ``month`` as integer seconds past
    :data:`STUDY_EPOCH`, and the month's length in days.

    Cached; the cache holds at most one entry per month of years 1-9999.
    """
    delta = datetime.datetime(year, month, 1) - STUDY_EPOCH
    return delta.days * 86400 + delta.seconds, calendar.monthrange(year, month)[1]


def _strptime_candidates(
    body: str, first_year: int, last_year: int, millis: float
) -> List[float]:
    """Candidate times of a non-canonical body, one strptime per year."""
    candidates = []
    for year in range(first_year, last_year + 1):
        try:
            moment = datetime.datetime.strptime(
                f"{year} {body}", "%Y %b %d %H:%M:%S"
            )
        except ValueError:  # e.g. Feb 29 in a non-leap candidate year
            continue
        seconds = (moment - STUDY_EPOCH).total_seconds() + millis
        if seconds >= 0:
            candidates.append(seconds)
    return candidates


def parse_timestamp(
    text: str, year_hint: int = 2010, after: Optional[float] = None
) -> float:
    """Parse a Cisco-style timestamp back to simulation time.

    Syslog timestamps carry no year — the classic RFC 3164 ambiguity.  With
    the default arguments, the earliest occurrence at or after the study
    epoch is returned.  A 13-month study revisits the same calendar dates,
    so a reader walking a log file in arrival order should pass ``after``
    (the latest time parsed so far): the earliest candidate not more than
    two days before ``after`` is chosen, which resolves "Oct 25" to 2011
    once the log has progressed that far.

    Candidate years extend from ``year_hint`` through the year ``after``
    has reached plus one, so a log spanning arbitrarily far keeps
    resolving forward.  When ``after`` has nevertheless advanced past
    every candidate (e.g. a "Feb 29" seen years after the last leap
    occurrence), :class:`TimestampRangeError` is raised rather than
    silently rolling back in time.

    A canonical ``Mmm dd HH:MM:SS`` body is parsed once and each
    candidate year is derived arithmetically from :func:`month_start`;
    any other body is handed to strptime once per candidate year, which
    decides what it means.  Both give the same floats and errors.

    >>> parse_timestamp('Oct 20 00:00:00.000')
    0.0
    >>> parse_timestamp('Jan  1 00:00:00.500')  # rolls into 2011
    6307200.5
    >>> parse_timestamp('Oct 25 00:00:00.000', after=370 * 86400.0)
    31968000.0
    """
    body, _, millis_text = text.partition(".")
    millis = int(millis_text) / 1000.0 if millis_text else 0.0

    last_year = year_hint + 2
    if after is not None:
        reached = (STUDY_EPOCH + datetime.timedelta(seconds=after)).year
        last_year = max(last_year, reached + 1)

    match = _CANONICAL_BODY.fullmatch(body)
    month = MONTH_BY_NAME.get(match.group(1)) if match else None
    if match is None or month is None:
        candidates = _strptime_candidates(body, year_hint, last_year, millis)
    else:
        day = int(match.group(2))
        clock = (
            (day - 1) * 86400
            + int(match.group(3)) * 3600
            + int(match.group(4)) * 60
            + int(match.group(5))
        )
        candidates = []
        # strptime's %Y reads exactly four digits.
        for year in range(max(year_hint, 1000), min(last_year, 9999) + 1):
            base, days = month_start(year, month)
            if day <= days:
                seconds = base + clock + millis
                if seconds >= 0:
                    candidates.append(seconds)
    if not candidates:
        raise ValueError(f"unparseable timestamp {text!r}")

    floor = (after - _YEAR_RESOLUTION_SLACK) if after is not None else 0.0
    eligible = [c for c in candidates if c >= floor]
    if not eligible:
        raise TimestampRangeError(
            f"timestamp {text!r} has no candidate year consistent with the "
            f"log's progress (latest parsed time {after!r})"
        )
    return min(eligible)


def format_duration(seconds: float) -> str:
    """Render a duration compactly for reports: ``90061.0 -> '1d 1h 1m 1s'``.

    >>> format_duration(42)
    '42s'
    >>> format_duration(90061)
    '1d 1h 1m 1s'
    """
    if seconds < 0:
        raise ValueError("duration must be non-negative")
    whole = int(seconds)
    days, rest = divmod(whole, 86400)
    hours, rest = divmod(rest, 3600)
    minutes, secs = divmod(rest, 60)
    parts = []
    if days:
        parts.append(f"{days}d")
    if hours:
        parts.append(f"{hours}h")
    if minutes:
        parts.append(f"{minutes}m")
    if secs or not parts:
        parts.append(f"{secs}s")
    return " ".join(parts)
