"""File format round trips and validation for the CSV/JSON loaders."""

import json
import re
from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
import pytest

from stkrig import ModelParams, TimeSeriesPanel
from stkrig.io import (
    PanelFormatError,
    load_locations,
    load_model,
    load_panel,
    load_series,
    load_single_series,
    json_data,
    save_panel,
    write_json,
    write_table,
)


def _panel(seed=0, m=4, n=12, d=2):
    rng = np.random.default_rng(seed)
    return TimeSeriesPanel(
        locations=rng.uniform(0.0, 3.0, size=(m, d)),
        observations=rng.standard_normal((m, n)),
        site_ids=tuple("s%d" % i for i in range(m)),
    )


def test_save_load_round_trip(tmp_path):
    panel = _panel(seed=5)
    loc_path, series_path = save_panel(panel, str(tmp_path / "out"))
    loaded = load_panel(loc_path, series_path)
    # repr() of a float is exact, so the round trip is bitwise
    npt.assert_array_equal(loaded.locations, panel.locations)
    npt.assert_array_equal(loaded.observations, panel.observations)
    assert loaded.site_ids == panel.site_ids


def test_series_columns_reordered_by_name(tmp_path):
    loc = tmp_path / "loc.csv"
    ser = tmp_path / "ser.csv"
    loc.write_text("site_id,x1\na,0.0\nb,1.0\n")
    # columns appear in the opposite order from the locations file
    ser.write_text("t,b,a\n1,10.0,1.0\n2,20.0,2.0\n")
    panel = load_panel(str(loc), str(ser))
    npt.assert_array_equal(panel.observations[0], [1.0, 2.0])
    npt.assert_array_equal(panel.observations[1], [10.0, 20.0])


def test_locations_header_and_rows_validated(tmp_path):
    path = tmp_path / "loc.csv"

    path.write_text("")
    with pytest.raises(PanelFormatError, match="empty"):
        load_locations(str(path))

    path.write_text("name,x1\na,0.0\n")
    with pytest.raises(PanelFormatError, match="site_id"):
        load_locations(str(path))

    path.write_text("site_id\na\n")
    with pytest.raises(PanelFormatError, match="site_id"):
        load_locations(str(path))

    path.write_text("site_id,x1,x2\na,0.0\n")
    with pytest.raises(PanelFormatError, match="expected 3"):
        load_locations(str(path))

    path.write_text("site_id,x1\na,0.0\na,1.0\n")
    with pytest.raises(PanelFormatError, match="duplicate site id"):
        load_locations(str(path))

    path.write_text("site_id,x1\n,0.0\n")
    with pytest.raises(PanelFormatError, match="blank"):
        load_locations(str(path))

    path.write_text("site_id,x1\na,zero\n")
    with pytest.raises(PanelFormatError, match="cannot parse"):
        load_locations(str(path))

    path.write_text("site_id,x1\na,inf\n")
    with pytest.raises(PanelFormatError, match="not finite"):
        load_locations(str(path))

    path.write_text("site_id,x1\n")
    with pytest.raises(PanelFormatError, match="no sites"):
        load_locations(str(path))


def test_series_validated(tmp_path):
    path = tmp_path / "ser.csv"
    ids = ["a", "b"]

    path.write_text("")
    with pytest.raises(PanelFormatError, match="empty"):
        load_series(str(path), ids)

    path.write_text("time,a,b\n1,0,0\n2,0,0\n")
    with pytest.raises(PanelFormatError, match="must start with 't'"):
        load_series(str(path), ids)

    path.write_text("t,a\n1,0\n2,0\n")
    with pytest.raises(PanelFormatError, match="missing \\['b'\\]"):
        load_series(str(path), ids)

    path.write_text("t,a,b,c\n1,0,0,0\n2,0,0,0\n")
    with pytest.raises(PanelFormatError, match="unexpected \\['c'\\]"):
        load_series(str(path), ids)

    path.write_text("t,a,b\n1,0\n")
    with pytest.raises(PanelFormatError, match="has 2 fields"):
        load_series(str(path), ids)

    path.write_text("t,a,b\n1,x,0\n2,0,0\n")
    with pytest.raises(PanelFormatError, match="cannot parse"):
        load_series(str(path), ids)

    path.write_text("t,a,b\n1,nan,0\n2,0,0\n")
    with pytest.raises(PanelFormatError, match="not finite"):
        load_series(str(path), ids)

    path.write_text("t,a,b\n1,0,0\n")
    with pytest.raises(PanelFormatError, match="at least two time points"):
        load_series(str(path), ids)


def test_load_panel_wraps_panel_errors(tmp_path):
    loc = tmp_path / "loc.csv"
    ser = tmp_path / "ser.csv"
    # two sites at the same coordinates: rejected by the panel constructor,
    # surfaced as a format error naming both files
    loc.write_text("site_id,x1\na,0.0\nb,0.0\n")
    ser.write_text("t,a,b\n1,0,0\n2,1,1\n")
    with pytest.raises(PanelFormatError, match="loc.csv"):
        load_panel(str(loc), str(ser))


def test_load_model_bare_and_wrapped(tmp_path):
    params = ModelParams(sigma_e2=1.5, nu=1.0, c_coeffs=(0.2, 0.4), nugget=0.1)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(params.to_dict()))
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"params": params.to_dict(), "command": "estimate"}))
    for path in (bare, wrapped):
        loaded = load_model(str(path))
        assert loaded.sigma_e2 == params.sigma_e2
        assert loaded.c_coeffs == params.c_coeffs
        assert loaded.nugget == params.nugget

    bad = tmp_path / "bad.json"
    for payload in ([1, 2, 3], {"params": [1, 2]}, {"params": 3.0}):
        bad.write_text(json.dumps(payload))
        with pytest.raises(PanelFormatError, match="expected a JSON object"):
            load_model(str(bad))

    # whole numbers may be written as JSON integers
    whole = tmp_path / "whole.json"
    whole.write_text(json.dumps({"sigma_e2": 2, "nu": 1, "c_coeffs": [0, 1], "nugget": 0,
                                 "d": 2.0}))
    assert load_model(str(whole)) == ModelParams(2.0, 1.0, (0.0, 1.0), 0.0, 2)

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"sigma_e2": 1.0}))
    with pytest.raises(PanelFormatError, match="missing required key"):
        load_model(str(incomplete))

    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps(dict(params.to_dict(), d=2.5)))
    with pytest.raises(PanelFormatError, match="d must be a positive integer, got 2.5"):
        load_model(str(fractional))


_MODEL = {"sigma_e2": 1.5, "nu": 1.0, "c_coeffs": [0.2, 0.4], "nugget": 0.1, "d": 2}


@pytest.mark.parametrize("change, message", [
    # float() would read these as d = 1, sigma_e2 = 1, b = (1, 2) and nu = 1.5
    ({"d": True}, "d must be a number, got True"),
    ({"sigma_e2": True}, "sigma_e2 must be a number, got True"),
    ({"c_coeffs": "12"}, "c_coeffs must be an array of numbers, got '12'"),
    ({"nu": "1.5"}, "nu must be a number, got '1.5'"),
    ({"nugget": None}, "nugget must be a number, got None"),
    ({"c_coeffs": [0.2, False]}, "c_coeffs entry must be a number, got False"),
    ({"c_coeffs": {"b0": 0.2}}, "c_coeffs must be an array of numbers"),
    ({"range": 2.0}, "unknown model parameter key 'range'"),
    ({"Nu": 1.0, "extra": None}, "unknown model parameter key 'Nu', 'extra'"),
])
def test_load_model_rejects_values_that_are_not_numbers_and_unknown_keys(
        change, message, tmp_path):
    for wrap in (False, True):
        path = tmp_path / "model.json"
        body = dict(_MODEL, **change)
        path.write_text(json.dumps({"params": body} if wrap else body))
        with pytest.raises(PanelFormatError, match="^%s: %s" % (re.escape(str(path)), message)):
            load_model(str(path))


def test_load_single_series(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("t,zhat\n1,1.5\n2,-0.5\n3,2.25\n")
    npt.assert_array_equal(load_single_series(str(path)), [1.5, -0.5, 2.25])

    path.write_text("t\n1\n2\n")
    with pytest.raises(PanelFormatError, match="header"):
        load_single_series(str(path))

    path.write_text("h,zhat\n1,1.5\n2,2.5\n")
    with pytest.raises(PanelFormatError, match="first column"):
        load_single_series(str(path))

    path.write_text("t,zhat\n1,abc\n")
    with pytest.raises(PanelFormatError, match="cannot parse"):
        load_single_series(str(path))

    path.write_text("t,zhat\n1,1.0\n")
    with pytest.raises(PanelFormatError, match="at least two"):
        load_single_series(str(path))

    # a second series would be dropped unread
    path.write_text("t,a,b\n1,1.5,2.0\n2,-0.5,3.0\n")
    with pytest.raises(PanelFormatError, match="^%s: header must name one series after 't', "
                       r"got \['t', 'a', 'b'\]$" % re.escape(str(path))):
        load_single_series(str(path))


# each loader with a first column its layout accepts, as a function of the
# path; every layout takes one column after it, the single series no more
_CSV_LOADERS = {
    "locations": ("site_id", load_locations),
    "series": ("t", lambda path: load_series(path, ["a"])),
    "single series": ("t", load_single_series),
}
_ROWS = "1,0.5\n2,1.5\n3,-1.0\n"

# (header and rows given the first column, the message after the path)
_MALFORMED_CSV = {
    "empty file": (lambda first: "", "empty file"),
    "wrong first header column": (lambda first: "x,a\n" + _ROWS,
                                  "header must start with"),
    "header with no second column": (lambda first: first + "\n1\n2\n3\n",
                                     "header must start with"),
    "row one field short": (lambda first: first + ",a\n1,0.5\n2\n3,1\n",
                            "row 3 has 1 fields, expected 2"),
    "row one field long": (lambda first: first + ",a\n1,0.5\n2,1.5,9\n3,1\n",
                           "row 3 has 3 fields, expected 2"),
    "unparsable cell": (lambda first: first + ",a\n1,0.5\n2,x\n3,1\n",
                        "row 3, column 'a': cannot parse 'x'"),
    "non-finite cell": (lambda first: first + ",a\n1,0.5\n2,inf\n3,1\n",
                        "row 3, column 'a' is not finite"),
    "undecodable bytes": (lambda first: (first + ",a\n1,0.5\n").encode() + b"\xff\xfe,1\n",
                          "cannot read as CSV text"),
    "cell over the csv module's field limit": (
        lambda first: first + ",a\n1," + "1" * 200000 + "\n", "cannot read as CSV text"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_CSV))
@pytest.mark.parametrize("loader", sorted(_CSV_LOADERS))
def test_every_csv_loader_rejects_the_same_malformed_inputs(loader, case, tmp_path):
    first, load = _CSV_LOADERS[loader]
    content, message = _MALFORMED_CSV[case]
    path = tmp_path / "input.csv"
    body = content(first)
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    # the layout's own first column reads: only the malformed part is refused
    (tmp_path / "valid.csv").write_text(first + ",a\n" + _ROWS)
    load(str(tmp_path / "valid.csv"))
    with pytest.raises(PanelFormatError, match="^%s: %s" % (re.escape(str(path)),
                                                            re.escape(message))):
        load(str(path))


@pytest.mark.parametrize("body", [b'{"sigma_e2": 1.0, "nu": ', b'{"nu": "\xff"}'])
def test_load_model_names_the_file_it_cannot_decode(body, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(body)
    with pytest.raises(PanelFormatError, match="^%s: not valid JSON" % re.escape(str(path))):
        load_model(str(path))


def test_write_json_creates_parents_and_ends_with_newline(tmp_path):
    path = tmp_path / "nested" / "deeper" / "out.json"
    returned = write_json(str(path), {"alpha": 1})
    assert returned == str(path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"alpha": 1}


def test_write_json_refuses_non_finite_numbers_and_writes_nothing(tmp_path):
    path = tmp_path / "nested" / "out.json"
    for value in (float("inf"), float("nan"), [1.0, -float("inf")]):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(str(path), {"x": value})
    assert not (tmp_path / "nested").exists()


def test_write_table_rows_and_number_format(tmp_path):
    path = tmp_path / "nested" / "table.csv"
    returned = write_table(str(path), ["label", "a", "b"], ["s1", 2, np.float64(0.1)],
                           [np.array([1.0, 1 / 3, -2.5e-300]), [np.float32(0.5), 7, 1e300]])
    assert returned == str(path)
    assert path.read_text().splitlines() == [
        "label,a,b", "s1,1.0,0.5", "2,0.3333333333333333,7.0", "0.1,-2.5e-300,1e+300"]
    write_table(str(path), ["t", "x"], range(1, 1), [np.empty(0)])
    assert path.read_text().splitlines() == ["t,x"]
    with pytest.raises(ValueError, match="got 2 labels for columns of length 3"):
        write_table(str(path), ["t", "x"], [1, 2], [[1.0, 2.0, 3.0]])


def test_json_data_of_a_record():
    @dataclass
    class Record:
        model: ModelParams
        count: np.int64
        value: np.float64
        flag: np.bool_
        pair: tuple
        table: np.ndarray
        runs: list

    params = ModelParams(sigma_e2=2.0, nu=1.0, c_coeffs=(0.1,))
    record = Record(params, np.int64(3), np.float64(0.25), np.bool_(True),
                    (np.float64(1.5), None), np.eye(2), [{"start": np.zeros(1)}])
    data = json_data(record)
    assert json.dumps(data) == json.dumps({
        "model": params.to_dict(), "count": 3, "value": 0.25, "flag": True,
        "pair": [1.5, None], "table": [[1.0, 0.0], [0.0, 1.0]], "runs": [{"start": [0.0]}]})
    assert type(data["count"]) is int and type(data["pair"][0]) is float
    assert data["runs"][0] is not record.runs[0]


def test_panel_format_error_is_value_error():
    assert issubclass(PanelFormatError, ValueError)


def test_duplicated_series_column_is_refused(tmp_path):
    path = tmp_path / "ser.csv"
    path.write_text("t,a,a,b\n1,0,0,0\n2,0,0,0\n")
    with pytest.raises(PanelFormatError, match="duplicate series column"):
        load_series(str(path), ["a", "b"])
