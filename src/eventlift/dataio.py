"""CSV ingestion for panels and event calendars.

Panel files are long format (`series_id,date,value`), one row per series per
day; every series must cover the same gap-free daily range.  Calendar files
(`event,start_date,end_date`) carry date-level occurrences that are bound to
a concrete panel's time index on demand.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass

from .errors import ValidationError
from .panel import EventCalendar, EventWindow, PanelSeries

__all__ = [
    "CalendarEntry",
    "load_panel_csv",
    "write_panel_csv",
    "load_calendar",
    "write_calendar_csv",
    "bind_calendar",
]

PANEL_HEADER = ["series_id", "date", "value"]
CALENDAR_HEADER = ["event", "start_date", "end_date"]


def _parse_date(raw: str, line_no: int, path) -> datetime.date:
    try:
        return datetime.date.fromisoformat(raw)
    except ValueError as exc:
        raise ValidationError(f"{path}:{line_no}: bad date {raw!r}: {exc}") from exc


def load_panel_csv(path) -> PanelSeries:
    """Pivot a long-format panel CSV into an N x (T+1) panel.

    Rows may arrive in any order.  Every series must cover the identical
    daily date range with no gaps; violations name the series and date.
    """
    import numpy as np

    per_series: dict[str, dict[datetime.date, float]] = {}
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError as exc:
        raise ValidationError(f"panel file not found: {path}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != PANEL_HEADER:
            raise ValidationError(
                f"{path}: expected header {','.join(PANEL_HEADER)!r}, got {header}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValidationError(f"{path}:{line_no}: expected 3 columns, got {len(row)}")
            sid, raw_date, raw_value = row
            day = _parse_date(raw_date, line_no, path)
            try:
                value = float(raw_value)
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:{line_no}: non-numeric value {raw_value!r}"
                ) from exc
            if not math.isfinite(value):
                raise ValidationError(f"{path}:{line_no}: non-finite value {raw_value!r}")
            bucket = per_series.setdefault(sid, {})
            if day in bucket:
                raise ValidationError(
                    f"{path}:{line_no}: duplicate entry for series {sid!r} on {day}"
                )
            bucket[day] = value

    if not per_series:
        raise ValidationError(f"{path}: no data rows")

    ranges = {sid: (min(days), max(days)) for sid, days in per_series.items()}
    first = next(iter(ranges.values()))
    mismatched = {sid: rng for sid, rng in ranges.items() if rng != first}
    if mismatched:
        sid, rng = next(iter(mismatched.items()))
        raise ValidationError(
            f"{path}: series date ranges differ: {sid!r} covers {rng[0]}..{rng[1]}, "
            f"another series covers {first[0]}..{first[1]}"
        )
    start, end = first
    expected = [
        start + datetime.timedelta(days=i) for i in range((end - start).days + 1)
    ]
    for sid in sorted(per_series):
        missing = [d for d in expected if d not in per_series[sid]]
        if missing:
            shown = ", ".join(str(d) for d in missing[:5])
            more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
            raise ValidationError(
                f"{path}: series {sid!r} is missing dates: {shown}{more}"
            )

    ids = sorted(per_series)
    values = np.array([[per_series[sid][d] for d in expected] for sid in ids])
    return PanelSeries(values=values, time_index=tuple(expected), series_ids=tuple(ids))


def write_panel_csv(path, panel: PanelSeries) -> None:
    """Emit a panel in long format; values use exact round-trip formatting.

    The time index must hold ``datetime.date`` labels, the only kind
    ``load_panel_csv`` reads back.
    """
    for label in panel.time_index:
        if type(label) is not datetime.date:
            raise ValidationError(f"{path}: time index label {label!r} is not a datetime.date")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PANEL_HEADER)
        for i, sid in enumerate(panel.series_ids):
            row = panel.values[i]
            for t, label in enumerate(panel.time_index):
                writer.writerow([sid, str(label), repr(float(row[t]))])


@dataclass(frozen=True)
class CalendarEntry:
    """One dated occurrence of a named event (inclusive date range)."""

    event: str
    start: datetime.date
    end: datetime.date


def load_calendar(path) -> list[CalendarEntry]:
    """Read event occurrences; rejects reversed or overlapping ranges."""
    entries: list[CalendarEntry] = []
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError as exc:
        raise ValidationError(f"calendar file not found: {path}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CALENDAR_HEADER:
            raise ValidationError(
                f"{path}: expected header {','.join(CALENDAR_HEADER)!r}, got {header}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValidationError(f"{path}:{line_no}: expected 3 columns, got {len(row)}")
            name, raw_start, raw_end = row
            start = _parse_date(raw_start, line_no, path)
            end = _parse_date(raw_end, line_no, path)
            if end < start:
                raise ValidationError(
                    f"{path}:{line_no}: event {name!r} ends {end} before start {start}"
                )
            entries.append(CalendarEntry(event=name, start=start, end=end))
    if not entries:
        raise ValidationError(f"{path}: no calendar rows")
    by_event: dict[str, list[CalendarEntry]] = {}
    for entry in entries:
        by_event.setdefault(entry.event, []).append(entry)
    for name, occ in by_event.items():
        occ.sort(key=lambda e: e.start)
        for a, b in zip(occ, occ[1:]):
            if b.start <= a.end:
                raise ValidationError(
                    f"{path}: event {name!r} occurrences {a.start}..{a.end} and "
                    f"{b.start}..{b.end} overlap"
                )
    return sorted(entries, key=lambda e: (e.event, e.start))


def write_calendar_csv(path, entries: list[CalendarEntry]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CALENDAR_HEADER)
        for entry in sorted(entries, key=lambda e: (e.event, e.start)):
            writer.writerow([entry.event, entry.start.isoformat(), entry.end.isoformat()])


def bind_calendar(entries: list[CalendarEntry], panel: PanelSeries) -> EventCalendar:
    """Resolve dated occurrences to index windows on a panel's time axis.

    The window's last pre-event index t0 is the position right before the
    start date; both endpoints must exist in the panel, and the start needs
    at least two observations before it.
    """
    positions = {label: t for t, label in enumerate(panel.time_index)}
    events: dict[str, list[EventWindow]] = {}
    for entry in entries:
        if entry.start not in positions:
            raise ValidationError(
                f"event {entry.event!r}: start {entry.start} is outside the panel range"
            )
        if entry.end not in positions:
            raise ValidationError(
                f"event {entry.event!r}: end {entry.end} is outside the panel range"
            )
        start_idx = positions[entry.start]
        d = (entry.end - entry.start).days + 1
        if start_idx < 2:
            raise ValidationError(
                f"event {entry.event!r}: start {entry.start} needs at least two "
                "panel observations before it"
            )
        events.setdefault(entry.event, []).append(EventWindow(t0=start_idx - 1, d=d))
    return EventCalendar(events=events)
