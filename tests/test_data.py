"""Row validation of `Dataset` and the CSV schema round trip."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_dataset
from qvaft.data import (Dataset, max_followup, observed_event_times,
                        read_csv, write_csv)
from qvaft.errors import DataError


class TestRecordInvariants:
    def test_valid_records(self):
        make_dataset([(1.0, 1.0, 1, 0.5, (1.0, -0.3))])
        make_dataset([(1.0, 2.0, 0, 0.0, (0.0,))])
        make_dataset([(1.0, math.inf, 0, 0.0, ())])

    def test_event_needs_equal_endpoints(self):
        with pytest.raises(DataError):
            make_dataset([(1.0, 2.0, 1)])

    def test_interval_needs_width(self):
        with pytest.raises(DataError):
            make_dataset([(1.0, 1.0, 0)])

    def test_inverted_interval(self):
        with pytest.raises(DataError):
            make_dataset([(2.0, 1.0, 0)])

    def test_truncation_below_left_endpoint(self):
        with pytest.raises(DataError):
            make_dataset([(1.0, 2.0, 0, 1.5)])

    def test_positive_left_endpoint(self):
        with pytest.raises(DataError):
            make_dataset([(0.0, 1.0, 0)])

    def test_finite_covariates(self):
        with pytest.raises(DataError):
            make_dataset([(1.0, 2.0, 0, 0.0, (math.inf,))])

    def test_positive_switch_time(self):
        with pytest.raises(DataError):
            make_dataset([(1.0, 2.0, 0, 0.0, (), -1.0)])


# exact events at 2, 1, 6 and 0.8 (the last before its switch at 1.5),
# intervals (3, 4] and (4.5, 7], and a right-censored row at 5; one subject
# never switches
TIME_AXES_ROWS = [
    (2.0, 2.0, 1, 0.0, (0.0,), 0.5), (3.0, 4.0, 0, 0.0, (1.0,), 1.0),
    (5.0, math.inf, 0, 0.0, (0.0,), 2.0), (1.0, 1.0, 1, 0.0, (1.0,), math.inf),
    (6.0, 6.0, 1, 0.0, (0.0,), 4.0), (0.8, 0.8, 1, 0.0, (1.0,), 1.5),
    (4.5, 7.0, 0, 1.0, (0.0,), 3.0)]


class TestTimeAxes:
    """One rule each for the observed event times and the follow-up, on
    calendar time (origin 0) and on time since each subject's switch; the
    knot rules read them. The knots are the values the rules gave before
    they shared these functions."""

    def test_event_times_and_follow_up(self):
        data = make_dataset(TIME_AXES_ROWS, ("x1",))
        assert observed_event_times(data).tolist() == [
            0.8, 1.0, 2.0, 3.5, 5.75, 6.0]
        assert max_followup(data) == 7.0
        assert observed_event_times(data, data.onset).tolist() == [
            1.5, 2.0, 2.5, 2.75]
        assert max_followup(data, data.onset) == 4.0

    def test_knots_on_both_axes(self):
        from qvaft.config import place_even_breakpoints, place_spline_knots

        data = make_dataset(TIME_AXES_ROWS, ("x1",))
        # log 0.8, log sqrt(2 * 3.5), log 6 and log 1.5, log sqrt(2 * 2.5),
        # log 2.75
        assert place_spline_knots(data, 1) == (
            -0.2231435513142097, 0.9729550745276567, 1.791759469228055)
        assert place_spline_knots(data, 1, time_varying=True) == (
            0.4054651081081644, 0.8047189562170503, 1.0116009116784799)
        assert place_even_breakpoints(data, 3) == (0.0, 1.75, 3.5, 5.25)
        assert place_even_breakpoints(data, 3, time_varying=True) == (
            0.0, 1.0, 2.0, 3.0)

    def test_no_switch_falls_back_to_calendar_follow_up(self):
        """Where no subject switches, both time-varying knot rules take
        calendar time as their origin, as the time-invariant rules do; the
        follow-up and event times since a switch are then empty."""
        from qvaft.config import place_even_breakpoints, place_spline_knots

        data = make_dataset([r[:5] for r in TIME_AXES_ROWS], ("x1",))
        assert max_followup(data, data.onset) == 0.0
        assert observed_event_times(data, data.onset).size == 0
        assert place_even_breakpoints(data, 3, time_varying=True) == (
            0.0, 1.75, 3.5, 5.25)
        assert place_spline_knots(data, 1, time_varying=True) == (
            -0.2231435513142097, 0.9729550745276567, 1.791759469228055)


def _columns(**bad_row_2):
    """Columns of three valid rows (exact, interval, right-censored), with
    row 2's entries replaced by `bad_row_2`."""
    cols = dict(y_lower=[1.0, 1.0, 2.0], y_upper=[1.0, 2.0, math.inf],
                event=[1, 0, 0], trunc=[0.5, 0.0, 1.0],
                x=[[1.0, 0.0], [0.0, 1.1], [1.0, -0.4]],
                onset=[2.5, math.inf, math.inf])
    for name, value in bad_row_2.items():
        cols[name][1] = value
    return cols


class TestDatasetChecksItsRows:
    """A `Dataset` built from columns obeys the rules a data file does."""

    def test_valid_columns(self):
        data = Dataset(**_columns(), covariate_names=("expo", "age"))
        assert data.n == 3 and data.event.dtype == bool
        assert data.x.flags.c_contiguous

    @pytest.mark.parametrize("bad,rule", [
        (dict(y_lower=0.0, trunc=0.0), "y_l must be finite and > 0"),
        (dict(y_lower=math.inf, y_upper=math.inf), "y_l must be finite"),
        (dict(y_upper=math.nan), "y_u"),
        (dict(event=2), "delta must be 0 or 1"),
        (dict(trunc=1.5), "trunc must lie in"),
        (dict(x=[math.inf, 0.0]), "covariates must be finite"),
        (dict(x=[0.0, math.nan]), "covariates must be finite"),
        (dict(onset=-1.0), "tx_time must be > 0"),
        (dict(onset=math.nan), "tx_time must be > 0"),
    ])
    def test_bad_row_is_named(self, bad, rule):
        with pytest.raises(DataError, match=f"row 2: {rule}"):
            Dataset(**_columns(**bad))

    def test_first_bad_row_is_named(self):
        cols = _columns(onset=-1.0)
        cols["y_lower"][2] = 0.0
        with pytest.raises(DataError, match="row 2: tx_time"):
            Dataset(**cols)

    def test_one_name_per_column(self):
        with pytest.raises(DataError, match="1 covariate names for 2"):
            Dataset(**_columns(), covariate_names=("x1",))

    def test_columns_of_one_length(self):
        cols = _columns()
        cols["trunc"] = [0.0, 0.0]
        with pytest.raises(DataError, match="one entry per subject"):
            Dataset(**cols)

    def test_columns_are_read_only_copies(self):
        """Rows are checked once, when the table is built: the table holds
        its own read-only copies, so neither the caller's arrays nor a
        write through an attribute can change a checked row."""
        cols = {k: np.array(v, dtype=float) for k, v in _columns().items()}
        data = Dataset(**cols)
        for name in ("y_lower", "y_upper", "event", "trunc", "x", "onset"):
            col = getattr(data, name)
            assert col is not cols[name] and not col.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                col[0] = -1.0
        cols["y_lower"][0] = -1.0
        cols["x"][0, 0] = math.nan
        assert data.y_lower[0] == 1.0 and data.x[0, 0] == 1.0


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = make_dataset([
            (1.25, 1.25, 1, 0.5, (1.0, -0.37), 2.5),
            (0.7, 3.0, 0, 0.0, (0.0, 1.1), math.inf),
            (2.0, math.inf, 0, 1.0, (1.0, 0.0), math.inf),
        ], ("expo", "age"))
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert back.covariate_names == ("expo", "age")
        np.testing.assert_array_equal(back.y_lower, ds.y_lower)
        np.testing.assert_array_equal(back.y_upper, ds.y_upper)
        np.testing.assert_array_equal(back.event, ds.event)
        np.testing.assert_array_equal(back.trunc, ds.trunc)
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.onset, ds.onset)

    def test_empty_and_inf_mean_right_censoring(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y_l,y_u,delta,trunc,x1\n"
                        "1.0,,0,0,1\n"
                        "2.0,inf,0,0,0\n")
        ds = read_csv(path)
        assert np.all(np.isinf(ds.y_upper))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y_l,y_u,delta\n1,2,0\n")
        with pytest.raises(DataError, match="trunc"):
            read_csv(path)

    def test_row_numbered_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y_l,y_u,delta,trunc\n1,2,0,0\n3,2,0,0\n")
        with pytest.raises(DataError, match="row 2"):
            read_csv(path)

    def test_event_at_infinity(self, tmp_path):
        # empty y_l and y_u cells both read as +inf
        path = tmp_path / "d.csv"
        path.write_text("y_l,y_u,delta,trunc\n1,2,0,0\n,,1,0\n")
        with pytest.raises(DataError, match="row 2: y_l must be finite"):
            read_csv(path)

    def test_infinite_trunc(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y_l,y_u,delta,trunc\n1,2,0,inf\n")
        with pytest.raises(DataError, match="row 1: trunc"):
            read_csv(path)

    def test_bad_delta(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y_l,y_u,delta,trunc\n1,2,2,0\n")
        with pytest.raises(DataError, match="delta"):
            read_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y_l,y_u,delta,trunc\noops,2,0,0\n")
        with pytest.raises(DataError, match="row 1"):
            read_csv(path)

    @pytest.mark.parametrize("header", ["y_l,y_u,delta,trunc,x1,x1",
                                        "y_l,y_u,delta,trunc,y_l,x1"])
    def test_repeated_column(self, tmp_path, header):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n1,2,0,0,1,5\n")
        name = header.split(",")[4]
        with pytest.raises(DataError, match=f"column '{name}' appears more"):
            read_csv(path)

    def test_nul_byte(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y_l,y_u,delta,trunc\n1,2,0,\x000\n")
        with pytest.raises(DataError):
            read_csv(path)


POSITIVE = st.floats(1e-300, 1e300)
FINITE = st.floats(-1e300, 1e300)
NAMES = st.lists(st.sampled_from(["expo", "age", "x1", "z_2", "dose"]),
                 unique=True, max_size=3)


@st.composite
def tables(draw, min_rows=0):
    """Valid `Dataset`s: exact, interval and right-censored rows, truncated
    or not, with 0 to 3 covariates and a finite or infinite switch time."""
    names = draw(NAMES)
    rows = []
    for _ in range(draw(st.integers(min_rows, 6))):
        y_l = draw(POSITIVE)
        kind = draw(st.sampled_from(["exact", "interval", "right"]))
        y_u = {"exact": y_l, "right": math.inf,
               "interval": draw(st.floats(y_l, exclude_min=True,
                                          allow_infinity=False))}[kind]
        rows.append((y_l, y_u, int(kind == "exact"),
                     y_l * draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1)),
                     tuple(draw(FINITE) for _ in names),
                     draw(st.sampled_from([math.inf, 0.25]) | POSITIVE)))
    return make_dataset(rows, names)


def _fields(data):
    return ([getattr(data, f).tobytes() for f in
             ("y_lower", "y_upper", "event", "trunc", "x", "onset")]
            + [data.x.shape, data.covariate_names])


class TestCsvProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=tables(), include_onset=st.sampled_from([None, True]))
    @example(data=make_dataset([]), include_onset=None)  # header only
    @example(data=make_dataset([(0.5, 2.0, 0, 0.25, (), 3.0),
                                (1.0, math.inf, 0, 0.0, (), math.inf)]),
             include_onset=None)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, data,
                                     include_onset):
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        write_csv(data, path, include_onset)
        assert _fields(read_csv(path)) == _fields(data)

    @settings(max_examples=60, deadline=None)
    @given(data=tables(min_rows=1), where=st.integers(0, 10**6),
           junk=st.text(st.characters(blacklist_categories=("Cs",)),
                        max_size=6))
    def test_garbled_cell_raises_only_data_error(self, tmp_path_factory,
                                                 data, where, junk):
        path = tmp_path_factory.mktemp("garbled") / "d.csv"
        write_csv(data, path)
        lines = [line.split(",") for line in path.read_text().splitlines()]
        cells = [(i, j) for i, line in enumerate(lines)
                 for j in range(len(line))]
        i, j = cells[where % len(cells)]
        lines[i][j] = junk
        path.write_text("\n".join(",".join(line) for line in lines) + "\n")
        try:
            read_csv(path)
        except DataError:
            pass
