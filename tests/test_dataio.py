import datetime
import time

import numpy as np
import pytest

import eventlift as el
from eventlift import ValidationError
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
