"""Unit tests for timestamp formatting and parsing."""

import datetime
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.timefmt import (
    DAYS_IN_MONTH,
    MONTH_BY_NAME,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_YEAR,
    STUDY_EPOCH,
    TimestampRangeError,
    format_duration,
    format_timestamp,
    parse_timestamp,
)


class TestConstants:
    def test_units_consistent(self):
        assert SECONDS_PER_DAY == 24 * SECONDS_PER_HOUR
        assert SECONDS_PER_YEAR == 365 * SECONDS_PER_DAY


class TestFormatTimestamp:
    def test_epoch_is_study_start(self):
        assert format_timestamp(0.0) == "Oct 20 00:00:00.000"

    def test_milliseconds_rendered(self):
        assert format_timestamp(1.5).endswith(".500")

    def test_single_digit_day_padded_like_syslog(self):
        # Nov 1 is 12 days in; syslog pads single-digit days with a space.
        stamp = format_timestamp(12 * SECONDS_PER_DAY)
        assert stamp.startswith("Nov  1")

    def test_year_rollover(self):
        # 100 days after Oct 20, 2010 is late January 2011.
        assert format_timestamp(100 * SECONDS_PER_DAY).startswith("Jan")


class TestParseTimestamp:
    def test_inverse_of_format_at_epoch(self):
        assert parse_timestamp("Oct 20 00:00:00.000") == 0.0

    def test_pre_epoch_month_rolls_to_next_year(self):
        # January predates the Oct 20 epoch within 2010, so it must parse
        # into 2011.
        assert parse_timestamp("Jan  1 00:00:00.000") > 70 * SECONDS_PER_DAY

    def test_milliseconds_parsed(self):
        assert parse_timestamp("Oct 20 00:00:01.250") == pytest.approx(1.25)

    @given(st.floats(min_value=0.0, max_value=360 * SECONDS_PER_DAY))
    @settings(max_examples=300)
    def test_round_trip_within_a_millisecond(self, sim_time):
        # Within the first year the bare parse is unambiguous.
        recovered = parse_timestamp(format_timestamp(sim_time))
        assert abs(recovered - sim_time) < 0.001 + 1e-6

    @given(st.floats(min_value=0.0, max_value=700 * SECONDS_PER_DAY))
    @settings(max_examples=300)
    def test_round_trip_with_context_resolves_year(self, sim_time):
        # With monotonic context (``after``), even second-year dates
        # round-trip — this is how the collector reads a 13-month log.
        recovered = parse_timestamp(
            format_timestamp(sim_time), after=max(0.0, sim_time - 3600.0)
        )
        assert abs(recovered - sim_time) < 0.001 + 1e-6

    def test_year_ambiguous_date_without_context_parses_to_first_year(self):
        assert parse_timestamp("Oct 25 00:00:00.000") == 5 * SECONDS_PER_DAY

    def test_year_ambiguous_date_with_context_parses_to_second_year(self):
        late = 370 * SECONDS_PER_DAY
        assert parse_timestamp("Oct 25 00:00:00.000", after=late) == 370 * SECONDS_PER_DAY

    def test_13_month_rollover(self):
        # The study spans Oct 20, 2010 – Nov 11, 2011: thirteen months, so
        # "Nov  5" occurs twice.  Log progress near the study's end must
        # resolve it to 2011 (day 381), not 2010 (day 16).
        assert (
            parse_timestamp("Nov  5 00:00:00.000", after=380 * SECONDS_PER_DAY)
            == 381 * SECONDS_PER_DAY
        )

    def test_long_log_resolves_past_hint_window(self):
        # Regression: with ``after`` three years in, "Oct 25" exhausted the
        # fixed year_hint..year_hint+2 candidate range and the parser
        # silently fell back to max(candidates) — a jump ~1 year into the
        # past.  Candidate years must extend with the log's progress.
        # 1100 days after Oct 20, 2010 is Oct 24, 2013 (2012 is a leap
        # year); the next "Oct 25" is day 1101.
        after = 1100 * SECONDS_PER_DAY
        recovered = parse_timestamp("Oct 25 00:00:00.000", after=after)
        assert recovered == 1101 * SECONDS_PER_DAY
        assert recovered >= after - 2 * SECONDS_PER_DAY  # never backwards

    def test_out_of_range_raises_typed_error(self):
        # "Feb 29" only exists in 2012 within reach of this log; once the
        # log has progressed to 2013 no candidate year is consistent, and
        # the old silent roll-back (to day 496, over a year in the past)
        # must be a hard error instead.
        with pytest.raises(TimestampRangeError):
            parse_timestamp("Feb 29 00:00:00.000", after=900 * SECONDS_PER_DAY)

    def test_out_of_range_error_is_a_value_error(self):
        # Callers that caught ValueError keep working.
        with pytest.raises(ValueError):
            parse_timestamp("Feb 29 00:00:00.000", after=900 * SECONDS_PER_DAY)

    def test_impossible_date_still_plain_value_error(self):
        with pytest.raises(ValueError) as excinfo:
            parse_timestamp("Feb 31 00:00:00.000")
        assert not isinstance(excinfo.value, TimestampRangeError)


def strptime_parse_timestamp(text, year_hint=2010, after=None):
    """The reference: one strptime per candidate year, for every body."""
    body, _, millis_text = text.partition(".")
    millis = int(millis_text) / 1000.0 if millis_text else 0.0
    last_year = year_hint + 2
    if after is not None:
        reached = (STUDY_EPOCH + datetime.timedelta(seconds=after)).year
        last_year = max(last_year, reached + 1)
    candidates = []
    for year in range(year_hint, last_year + 1):
        try:
            moment = datetime.datetime.strptime(f"{year} {body}", "%Y %b %d %H:%M:%S")
        except ValueError:
            continue
        seconds = (moment - STUDY_EPOCH).total_seconds() + millis
        if seconds >= 0:
            candidates.append(seconds)
    if not candidates:
        raise ValueError(f"unparseable timestamp {text!r}")
    floor = (after - 2 * 86400.0) if after is not None else 0.0
    eligible = [c for c in candidates if c >= floor]
    if not eligible:
        raise TimestampRangeError(
            f"timestamp {text!r} has no candidate year consistent with the "
            f"log's progress (latest parsed time {after!r})"
        )
    return min(eligible)


def outcome(parse, *args, **kwargs):
    try:
        return parse(*args, **kwargs)
    except ValueError as error:
        return (type(error), str(error))


#: Log progress points: none, the epoch, both sides of each year boundary
#: the candidate window crosses, and far enough on that Feb 29 and
#: every 2010 date run out of candidates.
AFTERS = [None, 0.0, 3600.0, 72 * SECONDS_PER_DAY, 74 * SECONDS_PER_DAY,
          437 * SECONDS_PER_DAY, 500 * SECONDS_PER_DAY, 900 * SECONDS_PER_DAY,
          1100 * SECONDS_PER_DAY, 4000 * SECONDS_PER_DAY]


class TestArithmeticMatchesStrptime:
    """The arithmetic path against the strptime reference, exhaustively."""

    MONTHS = list(MONTH_BY_NAME) + ["Foo", "jan", "FEB"]
    DAYS = sorted({f"{day:2d}" for day in range(0, 33)} | {f"{day:02d}" for day in range(0, 33)})
    CLOCKS = ["00:00:00", "23:59:59", "12:34:56", "24:00:00", "00:60:00",
              "00:00:60", "00:00:61", "09:05:07"]

    def test_months_days_clocks_and_progress(self):
        for month, day, clock in itertools.product(self.MONTHS, self.DAYS, self.CLOCKS):
            text = f"{month} {day} {clock}.250"
            for after in AFTERS:
                assert outcome(parse_timestamp, text, after=after) == outcome(
                    strptime_parse_timestamp, text, after=after
                ), (text, after)

    @pytest.mark.parametrize("year_hint", [2009, 2010, 2011, 2012])
    @pytest.mark.parametrize("text", ["Feb 29 12:00:00.000", "Feb 28 23:59:59.999",
                                      "Mar  1 00:00:00.001", "Dec 31 23:59:59",
                                      "Oct 20 00:00:00.000", "Oct 19 23:59:59.999"])
    def test_leap_days_year_hints_and_epoch_edges(self, text, year_hint):
        for after in AFTERS:
            assert outcome(parse_timestamp, text, year_hint=year_hint, after=after) == outcome(
                strptime_parse_timestamp, text, year_hint=year_hint, after=after
            ), (text, after)

    @pytest.mark.parametrize("text", ["Oct 20 00:00:00", "Oct 20 00:00:00.", "Oct 20 00:00:00.x",
                                      "Oct  20 00:00:00.000", "Oct 20 0:00:00.000",
                                      "Oct 2 00:00:00.000", "", "Oct 20 00:00:00 .000",
                                      "Oct \u0662\u0660 00:00:00.000", " Oct 20 00:00:00.000",
                                      "Oct  19 23:59:59.999", "oct 25 00:00:00.000"])
    def test_non_canonical_bodies(self, text):
        for after in AFTERS:
            assert outcome(parse_timestamp, text, after=after) == outcome(
                strptime_parse_timestamp, text, after=after
            ), (text, after)

    def test_year_window_edges(self):
        for year_hint, after in [(-1, None), (0, None), (998, None), (999, None), (9998, None), (9999, None),
                                 (2010, 2_917_800 * SECONDS_PER_DAY)]:
            for text in ("Jan  1 00:00:00.000", "Oct 25 00:00:00.000"):
                assert outcome(parse_timestamp, text, year_hint=year_hint, after=after) == outcome(
                    strptime_parse_timestamp, text, year_hint=year_hint, after=after
                ), (text, year_hint, after)

    def test_month_table_matches_strftime(self):
        assert len(MONTH_BY_NAME) == 12
        for name, month in MONTH_BY_NAME.items():
            assert datetime.date(2001, month, 1).strftime("%b") == name
        assert DAYS_IN_MONTH[1] == 28 and sum(DAYS_IN_MONTH) == 365


class TestFormatDuration:
    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (0, "0s"),
            (42, "42s"),
            (60, "1m"),
            (61, "1m 1s"),
            (3600, "1h"),
            (90061, "1d 1h 1m 1s"),
            (86400 * 3, "3d"),
        ],
    )
    def test_rendering(self, seconds, expected):
        assert format_duration(seconds) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-1)
