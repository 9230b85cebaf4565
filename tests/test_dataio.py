import csv
import datetime
import io
import math
import os
import re
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eventlift as el
from eventlift import ValidationError, dataio, montecarlo, reports
from eventlift.dataio import CalendarEntry


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


PANEL_SMALL = """series_id,date,value
a,2013-01-01,1.0
a,2013-01-02,2.0
a,2013-01-03,3.0
b,2013-01-01,4.0
b,2013-01-02,5.0
b,2013-01-03,6.0
"""


class TestLoadPanel:
    def test_happy_path(self, tmp_path):
        panel = el.load_panel_csv(write(tmp_path / "p.csv", PANEL_SMALL))
        assert panel.series_ids == ("a", "b")
        assert panel.values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert panel.time_index[0] == datetime.date(2013, 1, 1)
        assert panel.time_index[-1] == datetime.date(2013, 1, 3)

    def test_rows_may_arrive_unsorted(self, tmp_path):
        shuffled = "series_id,date,value\n" + "".join(
            sorted(PANEL_SMALL.splitlines(keepends=True)[1:], reverse=True)
        )
        panel = el.load_panel_csv(write(tmp_path / "p.csv", shuffled))
        assert panel.values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    def test_gap_names_series_and_date(self, tmp_path):
        broken = PANEL_SMALL.replace("b,2013-01-02,5.0\n", "")
        with pytest.raises(ValidationError, match=r"'b'.*2013-01-02"):
            el.load_panel_csv(write(tmp_path / "p.csv", broken))

    def test_non_numeric_value_names_line(self, tmp_path):
        broken = PANEL_SMALL.replace("a,2013-01-02,2.0", "a,2013-01-02,oops")
        with pytest.raises(ValidationError, match=r":3:.*'oops'"):
            el.load_panel_csv(write(tmp_path / "p.csv", broken))

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, raw):
        broken = PANEL_SMALL.replace("a,2013-01-02,2.0", f"a,2013-01-02,{raw}")
        path = write(tmp_path / "p.csv", broken)
        with pytest.raises(ValidationError, match=rf"p\.csv:3: non-finite value '{raw}'"):
            el.load_panel_csv(path)

    def test_range_mismatch(self, tmp_path):
        broken = PANEL_SMALL + "b,2013-01-04,7.0\n"
        with pytest.raises(ValidationError, match="ranges differ"):
            el.load_panel_csv(write(tmp_path / "p.csv", broken))

    def test_duplicate_entry(self, tmp_path):
        broken = PANEL_SMALL + "a,2013-01-02,9.0\n"
        with pytest.raises(ValidationError, match="duplicate"):
            el.load_panel_csv(write(tmp_path / "p.csv", broken))

    def test_bad_header(self, tmp_path):
        with pytest.raises(ValidationError, match="header"):
            el.load_panel_csv(write(tmp_path / "p.csv", "id,day,v\n"))

    def test_bad_date(self, tmp_path):
        broken = PANEL_SMALL.replace("2013-01-02,2.0", "NotADate,2.0")
        with pytest.raises(ValidationError, match="NotADate"):
            el.load_panel_csv(write(tmp_path / "p.csv", broken))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            el.load_panel_csv(tmp_path / "absent.csv")

    def test_utf8_bom_is_accepted(self, tmp_path):
        # spreadsheet exports often start with a byte-order mark
        path = tmp_path / "p.csv"
        path.write_text(PANEL_SMALL, encoding="utf-8-sig")
        panel = el.load_panel_csv(path)
        assert panel.series_ids == ("a", "b")
        out = tmp_path / "out.csv"
        el.write_panel_csv(out, panel)
        assert out.read_bytes() == PANEL_SMALL.encode("utf-8")

    def test_oversized_field_names_line(self, tmp_path):
        huge = "x" * (csv.field_size_limit() + 1)
        broken = PANEL_SMALL.replace("a,2013-01-02,2.0", f"{huge},2013-01-02,2.0")
        path = write(tmp_path / "p.csv", broken)
        with pytest.raises(ValidationError, match=r"p\.csv:3: field larger than field limit"):
            el.load_panel_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no data rows"):
            el.load_panel_csv(write(tmp_path / "p.csv", "series_id,date,value\n"))

    def test_department_scale_file_loads_quickly(self, tmp_path):
        rng = np.random.default_rng(0)
        n_days = 1900
        start = datetime.date(2011, 1, 29)
        dates = [start + datetime.timedelta(days=i) for i in range(n_days)]
        lines = ["series_id,date,value"]
        for s in range(6):
            values = rng.uniform(10.0, 500.0, size=n_days)
            lines.extend(
                f"dept{s},{day.isoformat()},{value:.2f}"
                for day, value in zip(dates, values)
            )
        path = write(tmp_path / "big.csv", "\n".join(lines) + "\n")
        started = time.monotonic()
        panel = el.load_panel_csv(path)
        elapsed = time.monotonic() - started
        assert panel.values.shape == (6, 1900)
        assert elapsed < 1.0


class TestNotUtf8:
    """A file that is not UTF-8 (a Latin-1 spreadsheet export, say) is a bad
    input: the error names the file and the first line that does not decode."""

    @staticmethod
    def panel_bytes(good_rows, newline=b"\n"):
        day = datetime.date(2013, 1, 1)
        lines = [b"series_id,date,value"]
        lines += [f"a,{day + datetime.timedelta(days=k)},{k}.0".encode() for k in range(good_rows)]
        lines += [b"\xff,2013-01-01,1.0", b"b,2013-01-01,2.0"]
        return newline.join(lines) + newline

    # a few rows fail while the header is read; 5,000 rows put the bad byte
    # past the first block (LF: the bulk tokenizer) or after the row reader
    # took over (CRLF)
    @pytest.mark.parametrize("good_rows", [3, 5000])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_panel_names_file_and_line(self, tmp_path, good_rows, newline):
        path = tmp_path / "p.csv"
        path.write_bytes(self.panel_bytes(good_rows, newline))
        with pytest.raises(ValidationError, match=rf"p\.csv:{good_rows + 2}: not UTF-8"):
            el.load_panel_csv(path)

    def test_calendar_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(
            "event,start_date,end_date\nsale,2013-01-05,2013-01-06\n"
            "Fête,2013-03-01,2013-03-02\n".encode("latin-1")
        )
        with pytest.raises(ValidationError, match=r"c\.csv:3: not UTF-8"):
            el.load_calendar(path)


class TestPanelRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(100.0, 17.3, size=(3, 12))
        values[0, 0] = 0.1 + 0.2
        values[1, 1] = np.pi
        values[2, 2] = 1e-17
        dates = tuple(
            datetime.date(2014, 3, 1) + datetime.timedelta(days=i) for i in range(12)
        )
        panel = el.PanelSeries(values, time_index=dates, series_ids=("x", "y", "z"))
        path = tmp_path / "p.csv"
        el.write_panel_csv(path, panel)
        loaded = el.load_panel_csv(path)
        assert loaded == panel
        assert np.array_equal(loaded.values, panel.values)

    def test_integer_index_refused_before_writing(self, tmp_path):
        # load_panel_csv reads dates only, so the writer refuses any other label
        path = tmp_path / "p.csv"
        with pytest.raises(ValidationError, match=r"p\.csv.*label 0 "):
            el.write_panel_csv(path, el.PanelSeries(np.ones((2, 5))))
        assert not path.exists()


@pytest.mark.parametrize("text", ["\r", "a\rb", "\r\n", "a\nb", "a,b", 'q"x'])
def test_written_ids_and_event_names_load_back(tmp_path, text):
    """Whatever an id or an event name holds, the files the package writes
    load back, the output tables too; a bare carriage return would end the
    line it is on."""
    dates = tuple(datetime.date(2014, 3, 1) + datetime.timedelta(days=i) for i in range(4))
    panel = el.PanelSeries(np.arange(8.0).reshape(2, 4), dates, tuple(sorted([text, "plain"])))
    el.write_panel_csv(tmp_path / "p.csv", panel)
    assert el.load_panel_csv(tmp_path / "p.csv") == panel
    entries = [CalendarEntry(text, dates[1], dates[2]), CalendarEntry("plain", dates[0], dates[3])]
    el.write_calendar_csv(tmp_path / "c.csv", entries)
    assert el.load_calendar(tmp_path / "c.csv") == sorted(entries, key=lambda e: e.event)
    table = [["department", "event", "SD"], [text, "promo", 1.5], ["plain", text, 0.1 + 0.2]]
    reports.write_rows(tmp_path / "t.csv", table[0], table[1:])
    with open(tmp_path / "t.csv", encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [[str(cell) for cell in row] for row in table]


def reference_write_panel_csv(path, panel):
    """The row-at-a-time writer that ``write_panel_csv`` replaced, quoting a
    field that holds a carriage return as csv.writer does under a CRLF line
    end (under LF it leaves it bare, and csv.reader reads it as a line end)."""

    def line(row):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        return buf.getvalue().removesuffix("\r\n") + "\n"

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(line(["series_id", "date", "value"]))
        for i, sid in enumerate(panel.series_ids):
            row = panel.values[i]
            for t, label in enumerate(panel.time_index):
                fh.write(line([sid, str(label), repr(float(row[t]))]))


def reference_load_panel_csv(path):
    """The dict-of-dicts loader that ``load_panel_csv`` replaced: one parsed
    date per row, every check made row by row in file order."""
    per_series = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["series_id", "date", "value"]:
            raise ValidationError(f"{path}: expected header 'series_id,date,value', got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValidationError(f"{path}:{line_no}: expected 3 columns, got {len(row)}")
            sid, raw_date, raw_value = row
            try:
                day = datetime.date.fromisoformat(raw_date)
            except ValueError as exc:
                raise ValidationError(f"{path}:{line_no}: bad date {raw_date!r}: {exc}") from exc
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
    expected = [start + datetime.timedelta(days=i) for i in range((end - start).days + 1)]
    for sid in sorted(per_series):
        missing = [d for d in expected if d not in per_series[sid]]
        if missing:
            shown = ", ".join(str(d) for d in missing[:5])
            more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
            raise ValidationError(f"{path}: series {sid!r} is missing dates: {shown}{more}")
    ids = sorted(per_series)
    values = np.array([[per_series[sid][d] for d in expected] for sid in ids])
    return el.PanelSeries(values=values, time_index=tuple(expected), series_ids=tuple(ids))


AWKWARD_IDS = ["", ",", '"', "\n", " lead", "\u00e9t\u00e9", "a,b", 'q"x', "s000", "s001"]
AWKWARD_FLOATS = [0.1 + 0.2, -0.0, 5e-324, 1e308, np.pi]
id_text = st.sampled_from(AWKWARD_IDS) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=4
)
finite = st.sampled_from(AWKWARD_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
first_day = st.dates(min_value=datetime.date(1990, 1, 1), max_value=datetime.date(2030, 1, 1))


@settings(max_examples=150, deadline=None)
@given(
    ids=st.lists(id_text, min_size=1, max_size=4, unique=True),
    start=first_day,
    n_days=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_writer_matches_row_at_a_time_reference_bytes(ids, start, n_days, data):
    values = data.draw(st.lists(finite, min_size=len(ids) * n_days, max_size=len(ids) * n_days))
    dates = tuple(start + datetime.timedelta(days=i) for i in range(n_days))
    panel = el.PanelSeries(np.reshape(values, (len(ids), n_days)), dates, tuple(ids))
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
        el.write_panel_csv(ours, panel)
        reference_write_panel_csv(ref, panel)
        assert ours.read_bytes() == ref.read_bytes()


FAULTS = ["duplicate", "gap", "range", "bad_date", "non_numeric", "non_finite",
          "columns", "empty"]


def inject(fault, rows, start, n_days, data):
    """Apply one fault to a list of csv records in place."""
    if fault == "empty":
        rows.clear()
        return
    if not rows:
        return
    j = data.draw(st.integers(0, len(rows) - 1))
    row = list(rows[j])
    if fault == "duplicate":
        if len(row) == 3 and data.draw(st.booleans()):
            # the compact ISO form names the same day with another string
            row[1] = row[1].replace("-", "")
        rows.insert(data.draw(st.integers(0, len(rows))), row[:2] + ["7.5"])
    elif fault == "gap":
        del rows[j]
    elif fault == "range":
        edge = start + datetime.timedelta(days=data.draw(st.sampled_from([-1, n_days])))
        rows.insert(data.draw(st.integers(0, len(rows))), [row[0], edge.isoformat(), "1.0"])
    elif fault == "bad_date":
        rows[j] = [row[0], data.draw(st.sampled_from(["NotADate", "2013-02-30"])), *row[2:]]
    elif fault == "non_numeric":
        rows[j] = row[:2] + ["oops"]
    elif fault == "non_finite":
        rows[j] = row[:2] + [data.draw(st.sampled_from(["nan", "inf", "-inf"]))]
    else:
        rows[j] = row + ["x"] if data.draw(st.booleans()) else row[:2]


def outcome(load, path):
    try:
        panel = load(path)
    except ValidationError as exc:
        return "error", str(exc)
    return panel.values.tobytes(), panel.time_index, panel.series_ids


@settings(max_examples=300, deadline=None)
@given(
    ids=st.lists(st.sampled_from(AWKWARD_IDS), min_size=1, max_size=3, unique=True),
    start=first_day,
    n_days=st.integers(min_value=2, max_value=5),
    faults=st.sampled_from([0, 1, 2]).flatmap(
        lambda n: st.lists(st.sampled_from(FAULTS), min_size=n, max_size=n)
    ),
    data=st.data(),
)
def test_loader_matches_row_by_row_reference(ids, start, n_days, faults, data):
    rows = [
        [sid, (start + datetime.timedelta(days=t)).isoformat(), repr(data.draw(finite))]
        for sid in ids
        for t in range(n_days)
    ]
    rows = data.draw(st.permutations(rows))
    for fault in faults:
        inject(fault, rows, start, n_days, data)
    for _ in range(data.draw(st.integers(0, 2))):
        rows.insert(data.draw(st.integers(0, len(rows))), [])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator=data.draw(st.sampled_from(["\n", "\r\n"])))
            writer.writerow(["series_id", "date", "value"])
            writer.writerows(rows)
        assert outcome(el.load_panel_csv, path) == outcome(reference_load_panel_csv, path)


@pytest.mark.parametrize(
    "body, expected",
    [
        # a duplicate is a line fault: the earlier of the two lines wins
        ("a,2013-01-01,1.0\na,2013-01-01,2.0\na,2013-01-02,oops\n", r":3: duplicate"),
        ("a,2013-01-01,oops\na,2013-01-02,1.0\na,2013-01-02,2.0\n", r":2: non-numeric"),
        ("a,2013-01-01,1.0\n\n\na,2013-01-01,2.0\nb,2013-01-05,1.0\n", r":5: duplicate"),
        # then ranges in first-seen order, then gaps in sorted order
        ("b,2013-01-01,1.0\nb,2013-01-03,1.0\na,2013-01-02,1.0\na,2013-01-03,1.0\n",
         r"ranges differ: 'a' covers 2013-01-02\.\.2013-01-03, another series covers 2013"),
        ("b,2013-01-01,1.0\nb,2013-01-03,1.0\na,2013-01-01,1.0\na,2013-01-03,1.0\n",
         r"series 'a' is missing dates: 2013-01-02$"),
        ("a,2013-01-01,1.0\na,2013-01-09,1.0\n",
         r"missing dates: 2013-01-02, .*, 2013-01-06 \(\+2 more\)$"),
    ],
)
def test_fault_precedence_matches_reference(tmp_path, body, expected):
    path = write(tmp_path / "p.csv", "series_id,date,value\n" + body)
    with pytest.raises(ValidationError, match=expected) as ours:
        el.load_panel_csv(path)
    with pytest.raises(ValidationError) as ref:
        reference_load_panel_csv(path)
    assert str(ours.value) == str(ref.value)


def row_reader_load(path):
    """``load_panel_csv`` with the csv.reader loop alone, whatever the file holds."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        parsed = dataio._read_rows(fh, path)
    return dataio._pivot(path, *parsed)


def takes_bulk_path(path):
    return dataio._read_blocks(path) is not None


BULK_IDS = ["s000", "s001", " lead", "", "\u00e9t\u00e9", "dept_7"]
QUOTED_IDS = [",", '"', "a,b", 'q"x', "\n"]


@settings(max_examples=40, deadline=None)
@given(
    ids=st.lists(st.sampled_from(BULK_IDS + QUOTED_IDS), min_size=2, max_size=3, unique=True),
    start=first_day,
    n_days=st.integers(min_value=1500, max_value=1700),
    seed=st.integers(0, 2**32 - 1),
    shuffle=st.booleans(),
    bom=st.booleans(),
    crlf=st.booleans(),
    final_newline=st.booleans(),
    n_blanks=st.integers(0, 2),
    fault=st.none() | st.sampled_from(FAULTS),
    data=st.data(),
)
def test_bulk_tokenizer_matches_row_reader(
    ids, start, n_days, seed, shuffle, bom, crlf, final_newline, n_blanks, fault, data
):
    rng = np.random.default_rng(seed)
    values = rng.normal(100.0, 30.0, size=(len(ids), n_days))
    values.flat[rng.integers(values.size, size=3)] = AWKWARD_FLOATS[:3]
    dates = tuple(start + datetime.timedelta(days=t) for t in range(n_days))
    rows = [
        [sid, day.isoformat(), repr(value)]
        for sid, row in zip(ids, values.tolist())
        for day, value in zip(dates, row)
    ]
    if shuffle:
        rows = [rows[k] for k in rng.permutation(len(rows))]
    if fault is not None:
        # place the fault past the first block, whose lines the bulk path has taken
        ends = np.cumsum([len(",".join(row).encode()) + 1 for row in rows])
        first = int(np.searchsorted(ends, dataio._BLOCK_BYTES, side="right")) + 1
        assert first < len(rows)
        tail = rows[first:]
        inject(fault, tail, start, n_days, data)
        rows[first:] = tail
    for _ in range(n_blanks):
        rows.insert(data.draw(st.integers(0, len(rows) - 1)), [])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n" if crlf else "\n").writerows([dataio.PANEL_HEADER, *rows])
    text = ("\ufeff" if bom else "") + buf.getvalue()
    if not final_newline:
        text = text.removesuffix("\r\n" if crlf else "\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_text(text, encoding="utf-8", newline="")
        ours = outcome(el.load_panel_csv, path)
        assert ours == outcome(row_reader_load, path)
        if fault in (None, "gap", "range"):
            plain = not crlf and not n_blanks and not set(ids) & set(QUOTED_IDS)
            assert takes_bulk_path(path) == plain
        if fault is None:
            order = sorted(range(len(ids)), key=ids.__getitem__)
            assert ours == (values[order].tobytes(), dates, tuple(sorted(ids)))


def test_misaligned_columns_are_a_line_fault(tmp_path):
    # four commas over two lines: a total count would read two aligned rows
    body = "s1,2020-01-01,1.0,s2\n2020-01-01,2.0\n"
    path = write(tmp_path / "p.csv", "series_id,date,value\n" + body)
    with pytest.raises(ValidationError, match=r"p\.csv:2: expected 3 columns, got 4$"):
        el.load_panel_csv(path)


def plain_lines(n_rows):
    """``n_rows`` bulk-path data lines of one series, a day apart."""
    day = datetime.date(2000, 1, 1)
    return [f"s,{day + datetime.timedelta(days=k)},{k}.25" for k in range(n_rows)]


def block_line(lines):
    """The index of the data line holding the first block's last byte."""
    ends = np.cumsum([len(line.encode()) + 1 for line in lines])
    return int(np.searchsorted(ends, dataio._BLOCK_BYTES))


def plain_file(tmp_path, lines):
    return write(tmp_path / "p.csv", "series_id,date,value\n" + "\n".join(lines) + "\n")


@pytest.mark.parametrize("shift", [-2, -1, 0, 1])
@pytest.mark.parametrize("split", [2, 4])
def test_misaligned_pair_at_the_first_block_end_is_a_line_fault(tmp_path, shift, split):
    # the pair's six fields realign into the two rows it replaces: only a
    # per-line count of the separators sees the fault
    lines = plain_lines(5000)
    k = block_line(lines) + shift
    fields = ",".join(lines[k : k + 2]).split(",")
    lines[k : k + 2] = ",".join(fields[:split]), ",".join(fields[split:])
    path = plain_file(tmp_path, lines)
    with pytest.raises(ValidationError, match=rf"p\.csv:{k + 2}: expected 3 columns, got {split}$"):
        el.load_panel_csv(path)
    assert outcome(el.load_panel_csv, path) == outcome(row_reader_load, path)


@pytest.mark.parametrize("raw", ["\u0661\u0662", "3.5\u00a0", "\u00a03.5", "1\u200a"])
def test_values_float_reads_only_as_text_load_as_the_row_reader_loads_them(tmp_path, raw):
    # float(bytes) rejects non-ASCII digits and spaces that float(str) accepts
    lines = plain_lines(5000)
    k = block_line(lines) + 10
    lines[k] = lines[k].rsplit(",", 1)[0] + "," + raw
    path = plain_file(tmp_path, lines)
    assert not takes_bulk_path(path)
    ours = outcome(el.load_panel_csv, path)
    assert ours == outcome(row_reader_load, path)
    assert np.frombuffer(ours[0])[k] == float(raw)


@pytest.mark.parametrize("field", [1, 2], ids=["date", "value"])
def test_bad_utf8_past_the_first_block_names_its_line(tmp_path, field):
    lines = plain_lines(5000)
    k = block_line(lines) + 10
    raw = [line.encode() for line in lines]
    parts = raw[k].split(b",")
    parts[field] = parts[field][:-1] + b"\xff"
    raw[k] = b",".join(parts)
    path = tmp_path / "p.csv"
    path.write_bytes(b"series_id,date,value\n" + b"\n".join(raw) + b"\n")
    with pytest.raises(ValidationError, match=rf"p\.csv:{k + 2}: not UTF-8"):
        el.load_panel_csv(path)


@pytest.mark.parametrize("at", [0, 1000, 2999])
def test_line_longer_than_a_block_under_the_field_limit_takes_the_bulk_path(tmp_path, at):
    lines = plain_lines(3000)
    digits = "1." + "0" * (dataio._BLOCK_BYTES + 1000) + "5"
    assert len(digits) + 20 < csv.field_size_limit()
    lines[at] = lines[at].rsplit(",", 1)[0] + "," + digits
    path = plain_file(tmp_path, lines)
    assert takes_bulk_path(path)
    ours = outcome(el.load_panel_csv, path)
    assert ours == outcome(row_reader_load, path)
    assert np.frombuffer(ours[0])[at] == float(digits)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def small_parts(monkeypatch):
    """Parts of any size fork: the size floor is one byte."""
    monkeypatch.setattr(dataio, "_PART_FLOOR_BYTES", 1)


def split_outcomes(path, forks, monkeypatch, call=lambda path: outcome(el.load_panel_csv, path)):
    """``call(path)`` on 1, 2 and 3 CPUs: each CPU but the first forks a
    child, and none is left."""
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: cpus)
        forks.clear()
        results.append(call(path))
        assert len(forks) == cpus - 1
        assert_no_child_left()
    return results


def series_runs(ids, n_days=60):
    """Bulk-path data lines: each id's run of ``n_days`` days in turn."""
    day = datetime.date(2013, 1, 1)
    return [f"{sid},{day + datetime.timedelta(days=t)},{t}.5" for sid in ids for t in range(n_days)]


def with_last_line(lines, new):
    return lines[:-1] + [new(lines[-1])]


# each id's first line starts a later part on some CPU count, its run cut
# by a part boundary on another; the first-seen order is not the sorted one
SPLIT_IDS = ["zz", "a", "mmm"]
N_LINES = 3 * 60


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="files split only on Linux")
@pytest.mark.parametrize(
    "edit, bulk, expected",
    [
        (lambda lines: lines, True, None),
        # the duplicate is in the last part, its first row in the first
        (lambda lines: lines + [lines[3]], True,
         rf":{N_LINES + 2}: duplicate entry for series 'zz' on 2013-01-04$"),
        (lambda lines: lines + ["a,2013-03-02,1.0"], True,
         r"ranges differ: 'a' covers 2013-01-01\.\.2013-03-02, another series covers"),
        (lambda lines: with_last_line(lines, lambda line: line + "x"), False,
         rf":{N_LINES + 1}: non-numeric value '59\.5x'$"),
        (lambda lines: with_last_line(lines, lambda line: line + "\r"), False, None),
        (lambda lines: with_last_line(lines, lambda line: line.replace("mmm", "m\xe9m")), False,
         rf":{N_LINES + 1}: not UTF-8 text"),
    ],
    ids=["plain", "duplicate", "range", "bad-value", "crlf", "not-utf8"],
)
def test_split_load_matches_one_cpu(tmp_path, small_parts, forks, monkeypatch, edit, bulk, expected):
    lines = edit(series_runs(SPLIT_IDS))
    path = tmp_path / "p.csv"
    # Latin-1 leaves every line but the edited one as UTF-8 writes it
    path.write_bytes(("series_id,date,value\n" + "\n".join(lines) + "\n").encode("latin-1"))
    one, *split = split_outcomes(path, forks, monkeypatch)
    assert split == [one, one]
    # each part takes the lines that start in it: a plain file stays on the bulk path
    assert split_outcomes(path, forks, monkeypatch, takes_bulk_path) == [bulk] * 3
    if expected is None:
        assert one[2] == ("a", "mmm", "zz") and len(one[0]) == 8 * N_LINES
    else:
        assert one[0] == "error" and re.search(expected, one[1]), one


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="files split only on Linux")
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ids=st.lists(st.sampled_from(BULK_IDS), min_size=1, max_size=4, unique=True),
    start=first_day,
    n_days=st.integers(min_value=2, max_value=30),
    fault=st.none() | st.sampled_from(FAULTS),
    data=st.data(),
)
def test_split_load_of_any_panel_matches_one_cpu(
    small_parts, forks, monkeypatch, ids, start, n_days, fault, data
):
    rows = [
        [sid, (start + datetime.timedelta(days=t)).isoformat(), repr(data.draw(finite))]
        for sid in ids
        for t in range(n_days)
    ]
    if data.draw(st.booleans()):
        rows = data.draw(st.permutations(rows))
    if fault is not None:
        inject(fault, rows, start, n_days, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([dataio.PANEL_HEADER, *rows])
        if fault == "empty":  # a header alone has no byte to split
            monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 3)
            assert outcome(el.load_panel_csv, path) == outcome(reference_load_panel_csv, path)
            return
        one, *split = split_outcomes(path, forks, monkeypatch)
        assert split == [one, one]
        assert one == outcome(reference_load_panel_csv, path)
        if fault in (None, "gap", "range"):
            assert split_outcomes(path, forks, monkeypatch, takes_bulk_path) == [True] * 3


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="files split only on Linux")
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ids=st.lists(id_text, min_size=3, max_size=5, unique=True),
    start=first_day,
    n_days=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_split_write_matches_one_cpu_bytes(small_parts, forks, monkeypatch, ids, start, n_days, data):
    values = data.draw(st.lists(finite, min_size=len(ids) * n_days, max_size=len(ids) * n_days))
    dates = tuple(start + datetime.timedelta(days=i) for i in range(n_days))
    panel = el.PanelSeries(np.reshape(values, (len(ids), n_days)), dates, tuple(ids))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"

        def write(path):
            el.write_panel_csv(path, panel)
            assert os.listdir(tmp) == ["p.csv"]
            return path.read_bytes()

        one, *split = split_outcomes(path, forks, monkeypatch, write)
        assert split == [one, one]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="files split only on Linux")
def test_a_write_child_that_raises_raises_here_and_leaves_no_child_nor_file(
    tmp_path, small_parts, forks, monkeypatch
):
    """Both children raise; the first one's error is raised, as a serial
    write would meet it, and only the destination is left in its directory."""
    parent = os.getpid()
    row_prefix = dataio._row_prefix

    def fail_in_a_child(sid):
        if os.getpid() != parent:
            raise ValueError(f"cannot format {sid!r}")
        return row_prefix(sid)

    monkeypatch.setattr(dataio, "_row_prefix", fail_in_a_child)
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 3)
    dates = tuple(datetime.date(2013, 1, 1) + datetime.timedelta(days=i) for i in range(5))
    panel = el.PanelSeries(np.ones((3, 5)), dates, ("s0", "s1", "s2"))
    with pytest.raises(ValueError, match="cannot format 's1'"):
        el.write_panel_csv(tmp_path / "p.csv", panel)
    assert len(forks) == 2
    assert_no_child_left()
    assert os.listdir(tmp_path) == ["p.csv"]


def year_panel_file(tmp_path, n_series=500, n_days=366):
    """A simulated panel of ``n_series`` dated series, and its CSV file."""
    rng = np.random.default_rng(5)
    dates = tuple(datetime.date(2013, 1, 1) + datetime.timedelta(days=t) for t in range(n_days))
    panel = el.PanelSeries(
        rng.normal(size=(n_series, n_days)), dates, tuple(f"s{i:03d}" for i in range(n_series))
    )
    path = tmp_path / "p.csv"
    el.write_panel_csv(path, panel)
    return path, panel


def test_bulk_path_peak_memory_is_no_higher_than_the_row_reader(tmp_path, forks, monkeypatch):
    """On two CPUs, the bulk path reads the file in two parts."""
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
    path, panel = year_panel_file(tmp_path)
    assert takes_bulk_path(path)
    forks.clear()
    peaks = []
    for load in (el.load_panel_csv, row_reader_load):
        assert load(path) == panel  # imports and caches are not the loader's cost
        tracemalloc.start()
        try:
            load(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(forks) == 2  # one per bulk load
    bulk, rows = peaks
    # both peak in the shared pivot; CPython's free lists keep a few hundred bytes
    # of the bulk path's freed dicts and lists traced, a whole-file read megabytes
    assert bulk <= rows + 16384, f"bulk peak {bulk} B, row reader peak {rows} B"


def test_ingest_peak_stays_under_four_and_a_half_grids(tmp_path):
    """The loader's traced peak on a 500 x 366 panel: the row accumulators
    (two int32 and one float64 value per row), the grid and the panel's own
    copy of it, with no grid-sized index temporaries left alive beside them."""
    path, panel = year_panel_file(tmp_path)
    el.load_panel_csv(path)  # imports and caches are not the loader's cost
    tracemalloc.start()
    try:
        el.load_panel_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * panel.values.nbytes, (peak, panel.values.nbytes)


def test_ingest_hands_its_grid_to_the_panel(tmp_path, forks, monkeypatch):
    """The loaded panel holds the grid the pivot filled, not a copy of it,
    and the pivot's cell indices are int32: the traced peak on a 500 x 366
    panel read in two parts on two CPUs reads 2.72 grids (the values, the
    cells and the grid).  It read 3.63 while the pivot kept every row's
    series and day to its end, where a second grid or int64 cells made it
    4.21."""
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
    path, panel = year_panel_file(tmp_path)
    el.load_panel_csv(path)  # imports and caches are not the loader's cost
    forks.clear()
    tracemalloc.start()
    try:
        loaded = el.load_panel_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forks) == 1
    assert loaded.values.flags.owndata and not loaded.values.flags.writeable
    assert peak < 3.75 * panel.values.nbytes, (peak, panel.values.nbytes)


CALENDAR_SMALL = """event,start_date,end_date
christmas,2013-12-24,2013-12-26
christmas,2014-12-24,2014-12-26
easter,2014-04-20,2014-04-21
"""


class TestLoadCalendar:
    def test_happy_path(self, tmp_path):
        entries = el.load_calendar(write(tmp_path / "c.csv", CALENDAR_SMALL))
        assert len(entries) == 3
        assert entries[0].event == "christmas"
        assert entries[0].start == datetime.date(2013, 12, 24)
        assert entries[-1].event == "easter"

    def test_reversed_range_rejected(self, tmp_path):
        broken = "event,start_date,end_date\nx,2013-12-26,2013-12-24\n"
        with pytest.raises(ValidationError, match="before start"):
            el.load_calendar(write(tmp_path / "c.csv", broken))

    def test_overlapping_occurrences_rejected(self, tmp_path):
        broken = (
            "event,start_date,end_date\n"
            "x,2013-12-24,2013-12-26\n"
            "x,2013-12-26,2013-12-28\n"
        )
        with pytest.raises(ValidationError, match="overlap"):
            el.load_calendar(write(tmp_path / "c.csv", broken))

    def test_distinct_events_may_overlap(self, tmp_path):
        fine = (
            "event,start_date,end_date\n"
            "x,2013-12-24,2013-12-26\n"
            "y,2013-12-25,2013-12-27\n"
        )
        assert len(el.load_calendar(write(tmp_path / "c.csv", fine))) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            el.load_calendar(tmp_path / "absent.csv")

    @pytest.mark.parametrize("line", [1, 3])
    def test_oversized_field_names_line(self, tmp_path, line):
        lines = CALENDAR_SMALL.splitlines(keepends=True)
        lines[line - 1] = "x" * (csv.field_size_limit() + 1) + lines[line - 1]
        path = write(tmp_path / "c.csv", "".join(lines))
        with pytest.raises(ValidationError, match=rf"c\.csv:{line}: field larger than"):
            el.load_calendar(path)

    def test_utf8_bom_is_accepted(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(CALENDAR_SMALL, encoding="utf-8-sig")
        plain = write(tmp_path / "plain.csv", CALENDAR_SMALL)
        assert el.load_calendar(path) == el.load_calendar(plain)

    def test_round_trip(self, tmp_path):
        entries = el.load_calendar(write(tmp_path / "c.csv", CALENDAR_SMALL))
        out = tmp_path / "c2.csv"
        el.write_calendar_csv(out, entries)
        assert el.load_calendar(out) == entries
        assert out.read_text() == CALENDAR_SMALL


class TestBindCalendar:
    def panel_december(self):
        dates = tuple(
            datetime.date(2013, 12, 1) + datetime.timedelta(days=i) for i in range(31)
        )
        return el.PanelSeries(np.ones((1, 31)), time_index=dates)

    def test_christmas_binding(self):
        panel = self.panel_december()
        entries = [
            CalendarEntry(
                event="christmas",
                start=datetime.date(2013, 12, 24),
                end=datetime.date(2013, 12, 26),
            )
        ]
        calendar = el.bind_calendar(entries, panel)
        window = calendar.occurrences("christmas")[0]
        assert window.d == 3
        assert panel.time_index[window.t0] == datetime.date(2013, 12, 23)

    def test_multi_year_occurrences_sorted(self, tmp_path):
        dates = tuple(
            datetime.date(2013, 1, 1) + datetime.timedelta(days=i) for i in range(800)
        )
        panel = el.PanelSeries(np.ones((1, 800)), time_index=dates)
        entries = el.load_calendar(write(tmp_path / "c.csv", CALENDAR_SMALL))
        calendar = el.bind_calendar(entries, panel)
        t0s = [w.t0 for w in calendar.occurrences("christmas")]
        assert t0s == sorted(t0s)
        assert len(t0s) == 2

    def test_date_outside_panel_rejected(self):
        panel = self.panel_december()
        entries = [
            CalendarEntry(
                event="x",
                start=datetime.date(2014, 1, 2),
                end=datetime.date(2014, 1, 3),
            )
        ]
        with pytest.raises(ValidationError, match="outside the panel"):
            el.bind_calendar(entries, panel)
        late_end = CalendarEntry(
            event="x", start=datetime.date(2013, 12, 30), end=datetime.date(2014, 1, 1)
        )
        with pytest.raises(ValidationError, match="'x': end 2014-01-01 is outside the panel"):
            el.bind_calendar([late_end], panel)

    def test_start_needs_two_prior_observations(self):
        panel = self.panel_december()
        entries = [
            CalendarEntry(
                event="x",
                start=datetime.date(2013, 12, 2),
                end=datetime.date(2013, 12, 3),
            )
        ]
        with pytest.raises(ValidationError, match="two"):
            el.bind_calendar(entries, panel)
