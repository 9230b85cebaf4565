"""CSV ingestion for panels and event calendars.

Panel files are long format (`series_id,date,value`), one row per series per
day; every series must cover the same gap-free daily range.  Calendar files
(`event,start_date,end_date`) carry date-level occurrences that are bound to
a concrete panel's time index on demand.  Both loaders accept a UTF-8
byte-order mark, as spreadsheet exports write; the writers emit plain UTF-8.
A file that is not UTF-8 (a Latin-1 export, say) is a ValidationError that
names the file and its first line that does not decode.

``load_panel_csv`` has two tokenizers that fill the same accumulators: per
row, the series' first-seen index, the date's ordinal (each distinct date
string is parsed once) and the float value.  The bulk tokenizer reads the
file's bytes in blocks of whole lines (about 64 KB each, so the file never
sits in memory whole), checks every line's separators at once with one
``bytes.translate``, splits each block once on commas and newlines, parses
the values from bytes and decodes only the distinct dates and ids.  It takes
a file whose header is exact (after an optional byte-order mark) and whose
lines hold no quote, carriage return or NUL and exactly two commas each:
what ``write_panel_csv`` emits for ids that need no quoting.  The bytes
after the header split into contiguous ranges, one per CPU a fork may use
(the policy in the ``montecarlo`` docstring) and none under
``_PART_FLOOR_BYTES``: this process tokenizes the first range and a forked
child each other one.  A line belongs to the range it starts in, and each
range counts its ids in its own first-seen order, so the file's first-seen
order is the ranges' in turn.  The fallback is all or nothing: when any
range meets a line the bulk tokenizer does not take, the whole file goes to
the row reader.  Any such file (quoted ids, CRLF line ends, blank lines),
and any file with a bad date, a non-numeric or non-finite value, a value
``float`` takes only as text (non-ASCII digits or spaces), bytes that are
not UTF-8 or a line as long as the csv field limit, is read again from the
start one ``csv.reader`` row at a time; that row reader is the only code
that names a faulty line, so every fault and its line are the same on any
number of CPUs.  Both then share one pivot: it counts rows per cell of a
dense (series, day) grid over the file's date span, and when every cell
holds exactly one row the values land with one scatter.  It takes the
ranges' rows in file order, one range at a time: a child's arrays arrive
in buffers of their own, no range is merged into another, and each range's
series and days are dropped once they are cells, so the grid is allocated
beside the values and the cells alone.  Otherwise the fault is reported as
a row-by-row read would meet it: a line fault (column count, bad date,
non-numeric or non-finite value, csv error, or a duplicate (series, date))
on the earliest line wins; then an empty file; then the first series, in
first-seen order, whose date range differs from the first series'; then the
first series, in sorted order, with missing dates (up to five shown).  A
bulk file has no blank lines, so a duplicate on its i-th data row is on line
i + 2, as the row reader counts.

``write_panel_csv`` formats each date once and writes each series' rows with
one call.  Contiguous groups of series split the same way: this process
writes the header, flushes it and writes the first group; a forked child
writes each other group to an unnamed temporary file beside the
destination, which this process appends in order a chunk at a time.  Both
writers quote a field that holds a carriage return, which ``csv.writer``
under a newline line end leaves bare.
"""

from __future__ import annotations

import bisect
import codecs
import contextlib
import csv
import datetime
import io
import math
import os
import shutil
import tempfile
from array import array
from dataclasses import dataclass

import numpy as np

from . import montecarlo
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
_PANEL_HEADER_LINE = (",".join(PANEL_HEADER) + "\n").encode()
# bytes per block of whole lines the bulk tokenizer reads: big enough to
# amortize the per-block calls, small enough to keep the file off the peak
_BLOCK_BYTES = 1 << 16
# every byte but the separators and those csv.reader treats specially
_NOT_SPECIAL = bytes(sorted(set(range(256)) - set(b',\n"\r\0')))
# the least panel-file bytes a forked part reads or writes: forking and
# reaping a child that does nothing costs 2.8 ms on a 2-core machine, the
# time the bulk tokenizer takes over about 150 KB, so a part of 1 MiB repays
# its fork about seven times over
_PART_FLOOR_BYTES = 1 << 20
# a panel row's bytes as written (id, ISO date, a float's repr, separators),
# which sizes a write's parts before any row is formatted
_ROW_BYTES = 32


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
    parsed = _read_blocks(path)
    if parsed is None:
        with _open_text(path, "panel") as fh:
            parsed = _read_rows(fh, path)
    return _pivot(path, *parsed)


@contextlib.contextmanager
def _open_text(path, kind: str):
    """Open an input CSV as UTF-8 text (a byte-order mark is skipped).

    A missing file, a directory, and text that does not decode, raise a
    ValidationError naming the file; the last names its first line that
    does not decode (a UTF-8 sequence never holds a newline byte, so lines
    decode alone).
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError as exc:
        raise ValidationError(f"{kind} file not found: {path}") from exc
    except IsADirectoryError as exc:
        raise ValidationError(f"{kind} file is a directory: {path}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            with open(path, "rb") as raw:
                for line_no, line in enumerate(raw, start=1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as bad:
                        raise ValidationError(
                            f"{path}:{line_no}: not UTF-8 text ({bad.reason})"
                        ) from exc
            raise ValidationError(f"{path}: not UTF-8 text") from exc


def _read_blocks(path):
    """Tokenize a plain panel file's bytes in parts, one per CPU a fork may use.

    The data lines' bytes split into contiguous ranges (``_read_range``),
    none under ``_PART_FLOOR_BYTES``; the first is read here and each other
    in a forked child (``montecarlo._forked_map``).  Returns the parts in
    file order and no blank lines, or None where the header is not exact or
    any part needs the row reader.
    """
    try:
        with open(path, "rb") as fh:
            if fh.readline().removeprefix(codecs.BOM_UTF8) != _PANEL_HEADER_LINE:
                return None
            lo, size = fh.tell(), os.fstat(fh.fileno()).st_size
    except (FileNotFoundError, IsADirectoryError):
        return None
    groups = montecarlo._fork_groups(size - lo, (size - lo) // _PART_FLOOR_BYTES)
    spans = [range(lo + g.start, lo + g.stop) for g in groups]
    parts = montecarlo._forked_map(lambda span: _read_range(path, span), spans, unit="bytes")
    return None if None in parts else (parts, [])


def _read_range(path, span: range):
    """Tokenize the lines of a plain panel file that start in the byte range ``span``.

    Returns the range's ids in first-seen order, and per row the id's index
    among them, the date's ordinal and the value (three arrays); or None as
    soon as any line needs ``csv.reader`` (a quote, a carriage return, a NUL,
    a line without exactly three fields or as long as the csv field limit)
    or ``_read_rows`` would report a fault (a bad date or value, bytes that
    are not UTF-8); the file then goes to ``_read_rows`` whole, which names
    the faulty line.  Blocks of whole lines, about ``_BLOCK_BYTES`` each,
    keep the file off the peak.  One ``bytes.translate`` per block keeps the
    separators and the bytes special to ``csv.reader``: a plain block leaves
    ``,,\\n`` per line.  ``float`` reads bytes only in ASCII, so a value in
    other digits or spaces goes to the row reader, which reads it as text.
    """
    sid_index: dict[bytes, int] = {}
    ordinals: dict[bytes, int] = {}
    rows, days, values = array("i"), array("i"), array("d")
    limit = csv.field_size_limit()
    try:
        with open(path, "rb") as fh:
            fh.seek(span.start - 1)
            if fh.read(1) != b"\n":
                # the line under way started in the range before, which reads it
                while (rest := fh.readline(_BLOCK_BYTES)) and not rest.endswith(b"\n"):
                    pass
            while (at := fh.tell()) < span.stop and (
                block := fh.read(min(_BLOCK_BYTES, span.stop - at))
            ):
                if not block.endswith(b"\n"):
                    # readline finishes the range's last line but stops at the
                    # field limit; a line that many bytes long goes to the row
                    # reader, and a shorter one has fewer characters too, so
                    # its fields fit the limit
                    block += fh.readline(limit)
                    if not block.endswith(b"\n"):
                        block += b"\n"  # the file's last line, or one cut at the limit
                if (
                    # per line: a total count would let two lines misalign
                    block.translate(None, _NOT_SPECIAL) != b",,\n" * block.count(b"\n")
                    or len(block) >= limit and max(map(len, block.split(b"\n"))) >= limit
                ):
                    return None
                fields = block.replace(b"\n", b",").split(b",")
                fields.pop()  # the empty field after the final newline
                sids, dates = fields[0::3], fields[1::3]
                values.extend(map(float, fields[2::3]))
                for raw in set(dates).difference(ordinals):
                    ordinals[raw] = datetime.date.fromisoformat(raw.decode()).toordinal()
                days.extend(map(ordinals.__getitem__, dates))
                for sid in dict.fromkeys(sids):
                    sid_index.setdefault(sid, len(sid_index))
                rows.extend(map(sid_index.__getitem__, sids))
        names = [sid.decode() for sid in sid_index]
    except (FileNotFoundError, ValueError):
        return None
    if not np.isfinite(np.asarray(values)).all():
        return None
    # arrays, which a forked child sends back without a copy in pickle
    return names, np.asarray(rows), np.asarray(days), np.asarray(values)


def _read_rows(fh, path):
    """Read a panel file one ``csv.reader`` row at a time, naming any faulty line.

    Returns the file as one part, as ``_read_range`` returns a range (the
    series in first-seen order, then the per-row series index, date ordinal
    and value), and the positions (in rows kept) of blank lines.
    """
    sid_index: dict[str, int] = {}
    ordinals: dict[str, int] = {}
    rows, days, values = array("i"), array("i"), array("d")
    blanks: list[int] = []
    reader = _csv_rows(fh, path)
    header = next(reader, None)
    if header != PANEL_HEADER:
        raise ValidationError(
            f"{path}: expected header {','.join(PANEL_HEADER)!r}, got {header}"
        )
    try:
        for line_no, row in enumerate(reader, start=2):
            if not row:
                blanks.append(len(values))
                continue
            if len(row) != 3:
                raise ValidationError(f"{path}:{line_no}: expected 3 columns, got {len(row)}")
            sid, raw_date, raw_value = row
            day = ordinals.get(raw_date)
            if day is None:
                day = ordinals[raw_date] = _parse_date(raw_date, line_no, path).toordinal()
            try:
                value = float(raw_value)
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:{line_no}: non-numeric value {raw_value!r}"
                ) from exc
            if not math.isfinite(value):
                raise ValidationError(f"{path}:{line_no}: non-finite value {raw_value!r}")
            i = sid_index.get(sid)
            if i is None:
                i = sid_index[sid] = len(sid_index)
            rows.append(i)
            days.append(day)
            values.append(value)
    except ValueError:
        # a duplicate on an earlier line is the fault a row-by-row read meets first
        _raise_first_duplicate(path, list(sid_index), rows, days, blanks)
        raise
    return [(list(sid_index), rows, days, values)], blanks


def _csv_rows(fh, path):
    """The ``csv.reader`` rows of ``fh``.

    A ``csv.Error`` (a field over ``csv.field_size_limit()``) becomes a
    ValidationError naming the file and line.
    """
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from exc


def _pivot(path, parts: list, blanks) -> PanelSeries:
    """Scatter the parts' rows into the dense (sorted series, day) grid, or
    raise the first fault.

    The parts hold the file's rows in order; a part's row indices count its
    own first-seen ids, and the file's ids in first-seen order are the
    parts' in turn.  The list is emptied as each part's rows become their
    cells, and its series and day arrays are dropped then: the cells alone
    name a fault's series and date.  So no rows are merged or copied, and
    the grid is allocated beside the values and the cells only.
    """
    names = list(dict.fromkeys(sid for part in parts for sid in part[0]))
    sid_index = {sid: i for i, sid in enumerate(names)}
    dated = [np.asarray(days) for _, _, days, _ in parts if len(days)]
    if not dated:
        raise ValidationError(f"{path}: no data rows")
    start, end = min(int(d.min()) for d in dated), max(int(d.max()) for d in dated)
    del dated
    ids = sorted(names)
    width = end - start + 1
    n_cells = len(ids) * width
    # each row's cell, computed in place in one array per part (every step
    # stays in [-start, n_cells), so int32 holds it on any grid int32 can index)
    rank = np.empty(len(names), np.int32 if n_cells <= np.iinfo(np.int32).max else np.int64)
    order = np.array([sid_index[sid] for sid in ids], dtype=np.int64)
    rank[order] = np.arange(len(ids))
    seen = np.zeros(n_cells, bool)
    cells, values = [], []
    while parts:
        local, rows, days, part_values = parts.pop(0)
        cell = rank[[sid_index[sid] for sid in local]][np.asarray(rows)]
        cell *= width
        cell -= start
        cell += np.asarray(days)
        del rows, days
        seen[cell] = True
        cells.append(cell)
        values.append(part_values)
    # as many rows as cells, every cell hit: exactly one row per cell
    if not (sum(map(len, cells)) == n_cells and seen.all()):
        cell = np.concatenate(cells)
        series, day = np.divmod(cell, width)
        rows, days = order[series], day + start
        counts = np.bincount(cell, minlength=n_cells)
        _raise_first_duplicate(path, names, rows, days, blanks)
        _raise_coverage_fault(path, names, rows, days, counts.reshape(len(ids), width))
    del seen  # before the grid is allocated
    grid = np.empty((len(ids), width))
    flat = grid.reshape(-1)
    for cell, part_values in zip(cells, values):
        flat[cell] = np.asarray(part_values)
    # read-only and owning its data, the grid is handed over, not copied
    grid.setflags(write=False)
    time_index = tuple(datetime.date.fromordinal(day) for day in range(start, end + 1))
    return PanelSeries(values=grid, time_index=time_index, series_ids=tuple(ids))


def _raise_first_duplicate(path, names, rows, days, blanks) -> None:
    """Raise for the first row whose (series, date) an earlier row holds, if any."""
    key = (np.asarray(rows, dtype=np.int64) << 32) | np.asarray(days, dtype=np.int64)
    first = np.zeros(key.size, dtype=bool)
    first[np.unique(key, return_index=True)[1]] = True
    if first.all():
        return
    i = int(np.argmin(first))
    line_no = i + 2 + bisect.bisect_right(blanks, i)
    day = datetime.date.fromordinal(days[i])
    raise ValidationError(
        f"{path}:{line_no}: duplicate entry for series {names[rows[i]]!r} on {day}"
    )


def _raise_coverage_fault(path, names, rows, days, counts) -> None:
    """Raise for the first series whose range differs, else the first with a gap.

    ``counts`` holds the rows per (sorted series, day) cell; no cell exceeds 1.
    """
    series, ords = np.asarray(rows), np.asarray(days)
    lo = np.full(len(names), ords.max())
    hi = np.full(len(names), ords.min())
    np.minimum.at(lo, series, ords)
    np.maximum.at(hi, series, ords)
    span = [
        (datetime.date.fromordinal(a), datetime.date.fromordinal(b))
        for a, b in zip(lo.tolist(), hi.tolist())
    ]
    for sid, rng in zip(names, span):
        if rng != span[0]:
            raise ValidationError(
                f"{path}: series date ranges differ: {sid!r} covers {rng[0]}..{rng[1]}, "
                f"another series covers {span[0][0]}..{span[0][1]}"
            )
    r = int(np.flatnonzero((counts == 0).any(axis=1))[0])
    missing = np.flatnonzero(counts[r] == 0)
    shown = ", ".join(str(span[0][0] + datetime.timedelta(days=k)) for k in missing[:5].tolist())
    more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
    sid = sorted(names)[r]
    raise ValidationError(f"{path}: series {sid!r} is missing dates: {shown}{more}")


def write_panel_csv(path, panel: PanelSeries) -> None:
    """Emit a panel in long format; values use exact round-trip formatting.

    The time index must hold ``datetime.date`` labels, the only kind
    ``load_panel_csv`` reads back.  Contiguous groups of series, one per CPU
    a fork may use and none under ``_PART_FLOOR_BYTES``, are formatted at
    once: this process writes the first after the header, and a forked child
    each other one to an unnamed temporary file beside ``path``, which this
    process then appends in order, a chunk at a time.
    """
    for label in panel.time_index:
        if type(label) is not datetime.date:
            raise ValidationError(f"{path}: time index label {label!r} is not a datetime.date")
    dates = [str(label) for label in panel.time_index]
    groups = montecarlo._fork_groups(
        len(panel.series_ids), panel.values.size * _ROW_BYTES // _PART_FLOOR_BYTES
    )
    with open(path, "wb") as fh, contextlib.ExitStack() as parts:
        fh.write(_PANEL_HEADER_LINE)
        fh.flush()  # before any fork, so no child holds the header in its buffer
        where = os.path.dirname(os.path.abspath(path))
        sinks = {group.start: parts.enter_context(tempfile.TemporaryFile(dir=where))
                 for group in groups[1:]}

        def write_group(group: range) -> None:
            out = sinks.get(group.start, fh)
            for sid, row in zip(panel.series_ids[group.start : group.stop],
                                panel.values[group.start : group.stop]):
                prefix = _row_prefix(sid)
                out.write("".join(
                    f"{prefix}{day},{value!r}\n" for day, value in zip(dates, row.tolist())
                ).encode())
            out.flush()

        montecarlo._forked_map(write_group, groups)
        for sink in sinks.values():  # in group order
            sink.seek(0)
            shutil.copyfileobj(sink, fh)  # in fixed-size chunks


def _csv_line(fields) -> str:
    """``fields`` as one ``csv.writer`` line ending in ``"\\n"``, a field that
    holds a ``"\\r"`` or a ``"\\n"`` quoted.  Under a ``"\\n"`` line end
    ``csv.writer`` quotes only ``"\\n"``, and ``csv.reader`` would read a bare
    ``"\\r"`` as a line end; under ``"\\r\\n"`` it quotes both."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def _row_prefix(sid: str) -> str:
    """``sid`` as ``_csv_line`` quotes it at the start of a row, with the comma after it."""
    return _csv_line([sid, ""])[:-1]


@dataclass(frozen=True)
class CalendarEntry:
    """One dated occurrence of a named event (inclusive date range)."""

    event: str
    start: datetime.date
    end: datetime.date


def load_calendar(path) -> list[CalendarEntry]:
    """Read event occurrences; rejects reversed or overlapping ranges."""
    entries: list[CalendarEntry] = []
    with _open_text(path, "calendar") as fh:
        reader = _csv_rows(fh, path)
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
        fh.write(_csv_line(CALENDAR_HEADER))
        for entry in sorted(entries, key=lambda e: (e.event, e.start)):
            fh.write(_csv_line([entry.event, entry.start.isoformat(), entry.end.isoformat()]))


def bind_calendar(entries: list[CalendarEntry], panel: PanelSeries) -> EventCalendar:
    """Resolve dated occurrences to index windows on a panel's time axis.

    The window's last pre-event index t0 is the position right before the
    start date; both endpoints must exist in the panel, and the start needs
    at least two observations before it.
    """
    positions = {label: t for t, label in enumerate(panel.time_index)}
    events: dict[str, list[EventWindow]] = {}
    for entry in entries:
        for side, day in (("start", entry.start), ("end", entry.end)):
            if day not in positions:
                raise ValidationError(
                    f"event {entry.event!r}: {side} {day} is outside the panel range"
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
