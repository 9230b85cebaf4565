import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eventlift as el
from eventlift import ValidationError


class TestARProcessSpec:
    def test_defaults(self):
        spec = el.ARProcessSpec(phi=0.5, sigma=1.0)
        assert spec.initial_mode == "stationary_draw"
        assert spec.initial_value == 0.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            el.ARProcessSpec(phi=0.5, sigma=-1.0)

    def test_zero_sigma_allowed(self):
        el.ARProcessSpec(phi=0.5, sigma=0.0)

    def test_bad_initial_mode_rejected(self):
        with pytest.raises(ValidationError):
            el.ARProcessSpec(phi=0.5, sigma=1.0, initial_mode="midpoint")

    def test_nonfinite_phi_rejected(self):
        with pytest.raises(ValidationError):
            el.ARProcessSpec(phi=float("nan"), sigma=1.0)

    def test_stationary_variance(self):
        spec = el.ARProcessSpec(phi=0.5, sigma=1.0)
        assert el.stationary_variance(spec) == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize(
        "phi, sigma", [(0.5, 1e308), (0.5, 1e155), (1.0 - 1e-16, 1e150)]
    )
    def test_overflowing_stationary_variance_rejected(self, phi, sigma):
        with pytest.raises(ValidationError, match=r"(?=.*sigma)(?=.*phi)"):
            el.ARProcessSpec(phi=phi, sigma=sigma)

    def test_fixed_start_does_not_need_a_stationary_variance(self):
        spec = el.ARProcessSpec(phi=0.5, sigma=1e308, initial_mode="fixed")
        assert spec.sigma == 1e308


class TestPanelSeries:
    def test_values_read_only(self):
        panel = el.PanelSeries(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            panel.values[0, 0] = 1.0

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_values_a_caller_can_write_are_copied(self, read_only_view):
        owner = np.zeros((2, 3))
        given = owner
        if read_only_view:
            given = owner[:]
            given.setflags(write=False)
        panel = el.PanelSeries(given)
        owner[0, 0] = 1.0
        assert panel.values[0, 0] == 0.0 and not panel.values.flags.writeable

    def test_a_read_only_array_that_owns_its_data_is_kept(self):
        grid = np.zeros((2, 3))
        grid.setflags(write=False)
        assert el.PanelSeries(grid).values is grid
        fortran = np.asfortranarray(np.zeros((2, 3)))
        fortran.setflags(write=False)
        assert el.PanelSeries(fortran).values.flags.c_contiguous

    def test_defaults_generated(self):
        panel = el.PanelSeries(np.zeros((2, 3)))
        assert panel.series_ids == ("s000", "s001")
        assert panel.time_index == (0, 1, 2)
        assert panel.n_series == 2
        assert panel.horizon == 2

    def test_default_ids_built_once_per_width(self):
        a = el.PanelSeries(np.zeros((1200, 2)))
        b = el.PanelSeries(np.ones((1200, 2)))
        assert a.series_ids is b.series_ids
        assert a.series_ids[999:1001] == ("s999", "s1000")
        assert len(set(a.series_ids)) == 1200

    def test_supplied_ids_still_checked(self):
        with pytest.raises(ValidationError, match="unique"):
            el.PanelSeries(np.zeros((2, 3)), series_ids=("a", "a"))
        with pytest.raises(ValidationError, match="length"):
            el.PanelSeries(np.zeros((2, 3)), series_ids=("a",))
        panel = el.PanelSeries(np.zeros((2, 3)), series_ids=(7, 8))
        assert panel.series_ids == ("7", "8")

    def test_equality(self):
        a = el.PanelSeries(np.arange(6.0).reshape(2, 3))
        b = el.PanelSeries(np.arange(6.0).reshape(2, 3))
        c = el.PanelSeries(np.arange(6.0).reshape(2, 3) + 1.0)
        assert a == b
        assert a != c

    def test_one_dim_rejected(self):
        with pytest.raises(ValidationError):
            el.PanelSeries(np.zeros(5))

    def test_nan_rejected(self):
        vals = np.zeros((1, 3))
        vals[0, 1] = np.nan
        with pytest.raises(ValidationError):
            el.PanelSeries(vals)

    def test_time_index_length_checked(self):
        with pytest.raises(ValidationError):
            el.PanelSeries(np.zeros((1, 3)), time_index=(0, 1))

    def test_time_index_must_increase(self):
        with pytest.raises(ValidationError):
            el.PanelSeries(np.zeros((1, 3)), time_index=(0, 2, 1))

    def test_duplicate_series_ids_rejected(self):
        with pytest.raises(ValidationError):
            el.PanelSeries(np.zeros((2, 3)), series_ids=("a", "a"))


class TestEventWindow:
    def test_indices(self):
        window = el.EventWindow(t0=4, d=3)
        assert list(window.indices) == [5, 6, 7]

    def test_check_fits(self):
        el.EventWindow(t0=4, d=3).check_fits(7)
        with pytest.raises(ValidationError):
            el.EventWindow(t0=4, d=3).check_fits(6)

    def test_invalid_params(self):
        with pytest.raises(ValidationError, match="window t0 must be >= 1, got 0"):
            el.EventWindow(t0=0, d=3)
        with pytest.raises(ValidationError, match="window size d must be >= 1, got 0"):
            el.EventWindow(t0=4, d=0)

    @pytest.mark.parametrize("value", [30.5, True, np.True_, "3"],
                             ids=["30.5", "True", "np.True_", "text"])
    @pytest.mark.parametrize("field, build", [
        ("window t0", lambda v: el.EventWindow(t0=v, d=2)),
        ("window size d", lambda v: el.EventWindow(t0=30, d=v)),
    ], ids=["t0", "d"])
    def test_sizes_must_be_whole_numbers(self, field, build, value):
        """A fraction would fail later as a bare TypeError, and a bool would
        pass as 1; both are rejected naming the field."""
        with pytest.raises(ValidationError, match=rf"{field} must be a whole number, got"):
            build(value)

    def test_numpy_integer_and_whole_float_sizes_become_ints(self):
        window = el.EventWindow(t0=np.int64(30), d=2.0)
        assert (window.t0, window.d) == (30, 2)
        assert type(window.t0) is int and type(window.d) is int


class TestEventCalendar:
    def test_occurrences_sorted(self):
        cal = el.EventCalendar(
            {"x": [el.EventWindow(t0=20, d=2), el.EventWindow(t0=5, d=2)]}
        )
        assert [w.t0 for w in cal.occurrences("x")] == [5, 20]

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            el.EventCalendar(
                {"x": [el.EventWindow(t0=5, d=3), el.EventWindow(t0=7, d=2)]}
            )

    def test_adjacent_windows_allowed(self):
        el.EventCalendar(
            {"x": [el.EventWindow(t0=5, d=2), el.EventWindow(t0=7, d=2)]}
        )

    def test_unknown_event(self):
        with pytest.raises(ValidationError):
            el.EventCalendar({}).occurrences("nope")

    def test_window_indices_union(self):
        cal = el.EventCalendar(
            {
                "x": [el.EventWindow(t0=2, d=2)],
                "y": [el.EventWindow(t0=8, d=1)],
            }
        )
        assert np.flatnonzero(cal.event_days(12)).tolist() == [3, 4, 9]


class TestSimulate:
    def test_shape_and_determinism(self):
        spec = el.ARProcessSpec(phi=0.5, sigma=1.0)
        a = el.simulate_ar1_panel(spec, n_series=4, horizon=10, seed=3)
        b = el.simulate_ar1_panel(spec, n_series=4, horizon=10, seed=3)
        c = el.simulate_ar1_panel(spec, n_series=4, horizon=10, seed=4)
        assert a.values.shape == (4, 11)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_noise_free_recursion(self):
        spec = el.ARProcessSpec(
            phi=0.5, sigma=0.0, initial_mode="fixed", initial_value=8.0
        )
        panel = el.simulate_ar1_panel(spec, n_series=1, horizon=4, seed=0)
        assert panel.values[0].tolist() == [8.0, 4.0, 2.0, 1.0, 0.5]

    def test_stationary_draw_variance(self):
        spec = el.ARProcessSpec(phi=0.5, sigma=1.0)
        panel = el.simulate_ar1_panel(spec, n_series=200_000, horizon=1, seed=9)
        observed = panel.values[:, 0].var()
        assert observed == pytest.approx(4.0 / 3.0, rel=0.02)

    def test_bad_args(self):
        spec = el.ARProcessSpec(phi=0.5, sigma=1.0)
        with pytest.raises(ValidationError):
            el.simulate_ar1_panel(spec, n_series=0, horizon=5, seed=0)
        with pytest.raises(ValidationError):
            el.simulate_ar1_panel(spec, n_series=1, horizon=0, seed=0)

    @pytest.mark.parametrize("field", ["n_series", "horizon"])
    @pytest.mark.parametrize("value, message", [
        (0, "must be >= 1, got 0"), (2.5, "must be a whole number, got 2.5"),
        (True, "must be a whole number, got True"),
    ], ids=["zero", "2.5", "True"])
    def test_sizes_checked(self, field, value, message):
        spec = el.ARProcessSpec(phi=0.5, sigma=1.0)
        sizes = {"n_series": 2, "horizon": 10, field: value}
        with pytest.raises(ValidationError, match=f"{field} {message}"):
            el.simulate_ar1_panel(spec, seed=1, **sizes)

    def test_output_is_row_major(self):
        spec = el.ARProcessSpec(phi=0.5, sigma=1.0)
        panel = el.simulate_ar1_panel(spec, n_series=5, horizon=7, seed=1)
        assert panel.values.flags.c_contiguous
        assert not panel.values.flags.writeable


def columnwise_ar1_panel(spec, n_series, horizon, seed):
    """Reference: the series-major recursion, one strided column per step."""
    rng = np.random.default_rng(seed)
    values = np.empty((n_series, horizon + 1), dtype=float)
    if spec.initial_mode == "stationary_draw":
        values[:, 0] = rng.standard_normal(n_series) * math.sqrt(el.stationary_variance(spec))
    else:
        values[:, 0] = spec.initial_value
    eps = rng.standard_normal((n_series, horizon)) * spec.sigma
    for t in range(1, horizon + 1):
        values[:, t] = spec.phi * values[:, t - 1] + eps[:, t - 1]
    return values


@settings(max_examples=150, deadline=None)
@given(
    phi=st.floats(min_value=-0.99, max_value=0.99),
    sigma=st.floats(min_value=0.0, max_value=5.0),
    initial_mode=st.sampled_from(["stationary_draw", "fixed"]),
    initial_value=st.floats(min_value=-10.0, max_value=10.0),
    n=st.integers(min_value=1, max_value=40),
    horizon=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_simulate_matches_columnwise_recursion(
    phi, sigma, initial_mode, initial_value, n, horizon, seed
):
    spec = el.ARProcessSpec(
        phi=phi, sigma=sigma, initial_mode=initial_mode, initial_value=initial_value
    )
    panel = el.simulate_ar1_panel(spec, n, horizon, seed)
    expected = columnwise_ar1_panel(spec, n, horizon, seed)
    assert panel.values.tobytes() == expected.tobytes()
    assert panel.time_index == tuple(range(horizon + 1))
    assert panel.series_ids == tuple(f"s{i:03d}" for i in range(n))


class TestInjectTreatment:
    def test_only_window_changes(self):
        panel = el.PanelSeries(np.zeros((2, 8)))
        window = el.EventWindow(t0=3, d=2)
        treated = el.inject_treatment(panel, window, [1.0, -2.0])
        expected = np.zeros((2, 8))
        expected[:, 4] = 1.0
        expected[:, 5] = -2.0
        assert np.array_equal(treated.values, expected)
        assert np.array_equal(panel.values, np.zeros((2, 8)))

    def test_wrong_length_rejected(self):
        panel = el.PanelSeries(np.zeros((2, 8)))
        with pytest.raises(ValidationError):
            el.inject_treatment(panel, el.EventWindow(t0=3, d=2), [1.0])

    def test_window_beyond_end_rejected(self):
        panel = el.PanelSeries(np.zeros((2, 8)))
        with pytest.raises(ValidationError):
            el.inject_treatment(panel, el.EventWindow(t0=6, d=2), [1.0, 2.0])

    def test_metadata_preserved(self):
        panel = el.PanelSeries(np.zeros((1, 6)), series_ids=("store",))
        treated = el.inject_treatment(panel, el.EventWindow(t0=2, d=1), [3.0])
        assert treated.series_ids == ("store",)
        assert treated.time_index == panel.time_index


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=4),
    t0=st.integers(min_value=1, max_value=6),
    d=st.integers(min_value=1, max_value=4),
)
def test_inject_then_subtract_round_trips(data, n, t0, d):
    """Adding and removing integer-valued effects restores the panel bit-exactly."""
    cols = t0 + d + data.draw(st.integers(min_value=1, max_value=3))
    base = data.draw(
        st.lists(
            st.integers(min_value=-1000, max_value=1000),
            min_size=n * cols,
            max_size=n * cols,
        )
    )
    delta = data.draw(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=d, max_size=d)
    )
    panel = el.PanelSeries(np.array(base, dtype=float).reshape(n, cols))
    window = el.EventWindow(t0=t0, d=d)
    vec = np.array(delta, dtype=float)
    treated = el.inject_treatment(panel, window, vec)
    restored = el.inject_treatment(treated, window, -vec)
    assert np.array_equal(restored.values, panel.values)


@settings(max_examples=200, deadline=None)
@given(
    t0=st.integers(min_value=1, max_value=50),
    d=st.integers(min_value=1, max_value=30),
)
def test_window_indices_arithmetic(t0, d):
    window = el.EventWindow(t0=t0, d=d)
    idx = list(window.indices)
    assert len(idx) == d
    assert idx[0] == t0 + 1
    assert idx[-1] == t0 + d


def reference_event_days(calendar, length):
    """The set lookup that ``event_days`` replaced: every window's indices in
    one frozenset, expanded over the series with ``np.isin``."""
    idx = set()
    for occ in calendar.events.values():
        for w in occ:
            idx.update(w.indices)
    return np.isin(np.arange(length), list(frozenset(idx)))


@settings(max_examples=300, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=80),
    events=st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=12)
            ),
            min_size=1,
            max_size=4,
        ),
        max_size=4,
    ),
)
def test_event_days_match_the_set_lookup(length, events):
    # occurrences of one event never overlap; different events may, and any
    # window may run past the series end
    calendar_events = {}
    for j, spans in enumerate(events):
        occ, start = [], 1
        for gap, d in spans:
            occ.append(el.EventWindow(t0=start + gap, d=d))
            start += gap + d
        calendar_events[f"e{j}"] = occ
    calendar = el.EventCalendar(calendar_events)
    got = calendar.event_days(length)
    want = reference_event_days(calendar, length)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
