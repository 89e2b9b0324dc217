"""The timestamp grammar: one table of spellings, each with its epoch second
or its error message, which every supported Python version must give alike.

The grammar is ``wtps.dataset._TIMESTAMP``: the shapes ``datetime.fromisoformat``
reads on Python 3.10, with a fraction of a second of any length; the shapes
only 3.11 and later read are refused. A sign never separates the date from a
time of day: it starts an offset, which may follow a bare date. Nor does a
digit of any script, whitespace other than the space, ":" or ".". Offsets are
exact to the microsecond, and their minutes and seconds lie in 0..59.
The module needs only the standard library, so it also runs where pytest is
not installed:

    PYTHONPATH=src python tests/test_timestamps.py
"""

from __future__ import annotations

import sys

from wtps.dataset import parse_timestamp

NEW_YEAR = 1_514_764_800  # 2018-01-01T00:00:00Z


def _invalid(text: str) -> str:
    return f"Invalid isoformat string: {text!r}"


SPELLINGS = {
    # Dates, times of day and separators.
    "2018-01-01": NEW_YEAR,
    "2018-01-01T12": NEW_YEAR + 43_200,
    "2018-01-01T12:30": NEW_YEAR + 45_000,
    "2018-01-01T12:30:15Z": NEW_YEAR + 45_015,
    "2018-01-01 12:30:15": NEW_YEAR + 45_015,
    "2018-01-01t12:30:15z": NEW_YEAR + 45_015,
    "2018-01-01_12:30:15": NEW_YEAR + 45_015,
    " 2018-01-01T12:30:15Z\n": NEW_YEAR + 45_015,
    "2018-01-0112:30:15": _invalid("2018-01-0112:30:15"),
    "2018-01-01112:30": _invalid("2018-01-01112:30"),
    "2018-01-01012:30:15Z": _invalid("2018-01-01012:30:15+00:00"),
    "2018-01-01  12:30:15": _invalid("2018-01-01  12:30:15"),
    "2018-01-01٥12:30": _invalid("2018-01-01٥12:30"),
    "2018-01-01\n12:30": _invalid("2018-01-01\n12:30"),
    "2018-01-01:12:30": _invalid("2018-01-01:12:30"),
    "2018-01-01.12:30": _invalid("2018-01-01.12:30"),
    "2018-01-01T": _invalid("2018-01-01T"),
    "2018-01-01T1:30:15": _invalid("2018-01-01T1:30:15"),
    "2018-01-01T12:30:": _invalid("2018-01-01T12:30:"),
    "2018-1-01T00:00:00Z": _invalid("2018-1-01T00:00:00+00:00"),
    "٢٠١٨-01-01": _invalid("٢٠١٨-01-01"),
    "2018-01-01T24:00:00": "hour must be in 0..23",
    "2018-02-29T00:00:00": "day is out of range for month",
    # Shapes only Python 3.11 and later read.
    "2018-W01-1": _invalid("2018-W01-1"),
    "2018-W01": _invalid("2018-W01"),
    "2018-001": _invalid("2018-001"),
    "20180101": _invalid("20180101"),
    "20180101T000000": _invalid("20180101T000000"),
    "2018-01-01T000000Z": _invalid("2018-01-01T000000+00:00"),
    "2018-01-01T00:00:00,5Z": _invalid("2018-01-01T00:00:00,5+00:00"),
    "2018-01-01T00:00:00+0530": _invalid("2018-01-01T00:00:00+0530"),
    "2018-01-01T00:00:00+05": _invalid("2018-01-01T00:00:00+05"),
    "2018-01-01T05:30:15+05:30:15.123": _invalid("2018-01-01T05:30:15+05:30:15.123"),
    # A stray character before the offset, which 3.10 and 3.11 both read.
    "2018-01-01T12:30.+00:00": _invalid("2018-01-01T12:30.+00:00"),
    "2018-01-01T12:30:00:-01:00": _invalid("2018-01-01T12:30:00:-01:00"),
    # Fractions of every length, floored; 3.10 reads only three or six digits.
    **{f"2018-01-01T00:00:00.{'9' * n}Z": NEW_YEAR for n in range(1, 10)},
    "2018-01-01T12.5": NEW_YEAR + 43_200,
    "2018-01-01T12:30.25": NEW_YEAR + 45_000,
    "2018-01-01T00:00:01.4+00:00:01.500000": NEW_YEAR - 1,
    "2018-01-01T00:00:01.5+00:00:01.500000": NEW_YEAR,
    "2018-01-01T00:00:01.499999999+00:00:01.500000": NEW_YEAR - 1,
    # Cut, not rounded: .9999989 reads as .999998, one microsecond short.
    "2018-01-01T00:00:00.9999989-00:00:01.000001": NEW_YEAR + 1,
    "2018-01-01T00:00:00.9999990-00:00:01.000001": NEW_YEAR + 2,
    "2018-01-01T00:00:00.": _invalid("2018-01-01T00:00:00."),
    "2018-01-01T00:00:00.٥Z": _invalid("2018-01-01T00:00:00.٥+00:00"),
    # Offsets, with seconds and microseconds.
    "2018-01-01T05:30:00+05:30": NEW_YEAR,
    "2018-01-01T05:30:15+05:30:15": NEW_YEAR,
    "2017-12-31T18:29:45-05:30:15": NEW_YEAR,
    "2018-01-01T05:30:15.000001+05:30:15.000001": NEW_YEAR,
    "2018-01-01T12+05:00": NEW_YEAR + 25_200,
    "2018-01-01T00:00:00+23:59:59.999999": NEW_YEAR - 86_400,
    "2018-01-01T00:00:00-00:00": NEW_YEAR,
    "2018-01-01T00:00:00+24:00": ("offset must be a timedelta strictly between "
                                  "-timedelta(hours=24) and timedelta(hours=24), "
                                  "not datetime.timedelta(days=1)."),
    # An offset of microseconds alone moves the instant, as any offset does.
    "2018-01-01T00:00:00.4+00:00:00.500000": NEW_YEAR - 1,
    "2018-01-01T00:00:00.6-00:00:00.500000": NEW_YEAR + 1,
    "2018-01-01T00:00:00+00:00:00.000001": NEW_YEAR - 1,
    "2018-01-01T05:30:00.4+05:30:00.500000": NEW_YEAR - 1,
    # Offset minutes and seconds lie in 0..59, as a time of day's do.
    "2018-01-01T00:00:00+00:60": "minute must be in 0..59",
    "2018-01-01T00:00:00+00:00:60": "second must be in 0..59",
    "2024-08-05-21:60": "minute must be in 0..59",
    "2024-08-05T00:00+01:21:60": "second must be in 0..59",
    # A sign never separates the date from a time: it starts an offset, which
    # may follow a bare date.
    "2018-01-01+05:30": NEW_YEAR - 19_800,
    "2018-01-01-05:30:00.500000": NEW_YEAR + 19_800,
    "2018-01-01Z": NEW_YEAR,
    "2018-01-01+00:00": NEW_YEAR,
    "2018-01-01-05:00": NEW_YEAR + 18_000,
    "2018-01-01-05:30:15": NEW_YEAR + 19_815,
    "2018-01-01+05": _invalid("2018-01-01+05"),
    "2018-01-01-05:30:15.123": _invalid("2018-01-01-05:30:15.123"),
    "2018-01-01+12:00:00": NEW_YEAR - 43_200,
    "2018-01-01T00:00:00+00:00Z": _invalid("2018-01-01T00:00:00+00:00+00:00"),
    "2018-01-01T00:00:00+5:30": _invalid("2018-01-01T00:00:00+5:30"),
}


def mismatches() -> list[tuple[str, object, object]]:
    """Each spelling whose outcome is not the table's: (spelling, expected, got)."""
    wrong = []
    for text, expected in SPELLINGS.items():
        try:
            got: object = parse_timestamp(text)
        except ValueError as exc:
            got = str(exc)
        if got != expected:
            wrong.append((text, expected, got))
    return wrong


def test_every_spelling_parses_as_tabled():
    assert mismatches() == []


if __name__ == "__main__":
    wrong = mismatches()
    for text, expected, got in wrong:
        print(f"{text!r}: expected {expected!r}, got {got!r}")
    print(f"Python {sys.version.split()[0]}: {len(SPELLINGS) - len(wrong)} of "
          f"{len(SPELLINGS)} spellings as tabled")
    sys.exit(1 if wrong else 0)
