"""End-to-end runs of the batch interface, exercised in process."""

import csv
import dataclasses
import json
import os
import re
import warnings

import numpy as np
import pytest

from stkrig import (ModelParams, SimulationSpec, TimeSeriesPanel, cli, independence_test,
                    simulate_panel, simulate_white_panel)
from stkrig.cli import _COMMANDS, _MANDATORY, _flags, main
from stkrig.io import save_panel


MODEL = {"sigma_e2": 1.0, "nu": 1.0, "c_coeffs": [0.2, 0.4], "nugget": 0.0, "d": 2}


def _write_inputs(root):
    loc_path = os.path.join(root, "locations.csv")
    with open(loc_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["site_id", "x1", "x2"])
        rng = np.random.default_rng(11)
        for i, point in enumerate(rng.uniform(0.0, 3.0, size=(5, 2))):
            writer.writerow(["s%d" % i, repr(float(point[0])), repr(float(point[1]))])
    model_path = os.path.join(root, "model.json")
    with open(model_path, "w") as handle:
        json.dump(MODEL, handle)
    return loc_path, model_path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run simulate -> spectra -> estimate -> krige -> forecast -> test-indep
    once and hand the output paths to the individual tests."""
    root = str(tmp_path_factory.mktemp("pipeline"))
    loc_path, model_path = _write_inputs(root)

    # n=67 keeps every stage happy: odd length for the kriging round trip
    # and (67-1)/2 = 33 interior frequencies, which tile into blocks
    sim_dir = os.path.join(root, "sim")
    assert main(["simulate", "--locations", loc_path, "--model", model_path,
                 "--n", "67", "--seed", "3", "--out", sim_dir]) == 0
    series_path = os.path.join(sim_dir, "series.csv")

    spectra_dir = os.path.join(root, "spectra")
    assert main(["spectra", "--locations", loc_path, "--series", series_path,
                 "--out", spectra_dir]) == 0

    fit_path = os.path.join(root, "fit.json")
    assert main(["estimate", "--locations", loc_path, "--series", series_path,
                 "--nu-fixed", "1.0", "--multistart", "2", "--no-covariance",
                 "--out", fit_path]) == 0

    krige_dir = os.path.join(root, "krige")
    assert main(["krige", "--locations", loc_path, "--series", series_path,
                 "--model", fit_path, "--target", "1.4,0.9",
                 "--out", krige_dir]) == 0

    forecast_path = os.path.join(root, "forecast.json")
    assert main(["forecast", "--reconstructed",
                 os.path.join(krige_dir, "target_series.csv"),
                 "--horizons", "3", "--out", forecast_path]) == 0

    indep_path = os.path.join(root, "indep.json")
    assert main(["test-indep", "--locations", loc_path, "--series", series_path,
                 "--out", indep_path]) == 0

    return {
        "root": root, "locations": loc_path, "model": model_path,
        "sim": sim_dir, "series": series_path, "spectra": spectra_dir,
        "fit": fit_path, "krige": krige_dir, "forecast": forecast_path,
        "indep": indep_path,
    }


def test_simulate_outputs(pipeline):
    for name in ("locations.csv", "series.csv", "simulate.json"):
        assert os.path.exists(os.path.join(pipeline["sim"], name))
    with open(os.path.join(pipeline["sim"], "simulate.json")) as handle:
        payload = json.load(handle)
    assert payload["command"] == "simulate"
    assert payload["m"] == 5 and payload["n"] == 67
    assert payload["config"]["seed"] == 3
    assert "threads" not in payload["config"]
    assert payload["model"]["nu"] == 1.0


def test_spectra_outputs(pipeline):
    with open(os.path.join(pipeline["spectra"], "periodograms.csv")) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["omega", "s0", "s1", "s2", "s3", "s4"]
    assert len(rows) - 1 == (67 - 1) // 2
    assert all(float(cell) > 0 for cell in rows[1][1:])
    with open(os.path.join(pipeline["spectra"], "difference_periodograms.csv")) as handle:
        header = next(csv.reader(handle))
    assert header[1] == "s0|s1"
    assert len(header) - 1 == 5 * 4 // 2
    with open(os.path.join(pipeline["spectra"], "spectra.json")) as handle:
        payload = json.load(handle)
    assert payload["n_frequencies"] == 33


def test_estimate_output_feeds_krige(pipeline):
    with open(pipeline["fit"]) as handle:
        payload = json.load(handle)
    assert payload["command"] == "estimate"
    assert payload["params"]["nu"] == 1.0
    assert payload["params"]["sigma_e2"] > 0
    assert payload["config"]["multistart"] == 2
    # the krige stage consumed this same file as its --model
    with open(os.path.join(pipeline["krige"], "kriging.json")) as handle:
        kriged = json.load(handle)
    assert kriged["model"]["sigma_e2"] == payload["params"]["sigma_e2"]


def test_krige_outputs(pipeline):
    with open(os.path.join(pipeline["krige"], "kriging.json")) as handle:
        payload = json.load(handle)
    assert payload["target"] == [1.4, 0.9]
    assert len(payload["reconstructed"]) == 67
    assert payload["jitter_report"]["n_failed"] == 0
    with open(os.path.join(pipeline["krige"], "target_series.csv")) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "zhat"]
    assert len(rows) - 1 == 67
    assert float(rows[1][1]) == payload["reconstructed"][0]


def test_forecast_outputs(pipeline):
    with open(pipeline["forecast"]) as handle:
        payload = json.load(handle)
    assert payload["command"] == "forecast"
    assert len(payload["forecasts"]) == 3
    assert payload["ar_order"] <= 8
    csv_path = os.path.splitext(pipeline["forecast"])[0] + ".csv"
    with open(csv_path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["horizon", "forecast", "mse"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    assert float(rows[1][1]) == payload["forecasts"][0]


def test_indep_outputs(pipeline):
    with open(pipeline["indep"]) as handle:
        payload = json.load(handle)
    assert payload["command"] == "test-indep"
    assert 0.0 <= payload["p_value"] <= 1.0
    assert payload["n_used"] == 67


def test_config_file_provides_defaults_and_flags_override(pipeline, tmp_path):
    config_path = str(tmp_path / "config.json")
    out_a = str(tmp_path / "a.json")
    with open(config_path, "w") as handle:
        json.dump({"reconstructed": os.path.join(pipeline["krige"], "target_series.csv"),
                   "horizons": 2, "pmax": 3, "out": out_a}, handle)
    assert main(["forecast", "--config", config_path]) == 0
    with open(out_a) as handle:
        assert len(json.load(handle)["forecasts"]) == 2

    out_b = str(tmp_path / "b.json")
    assert main(["forecast", "--config", config_path,
                 "--horizons", "4", "--out", out_b]) == 0
    with open(out_b) as handle:
        payload = json.load(handle)
    assert len(payload["forecasts"]) == 4
    assert payload["config"]["horizons"] == 4
    assert payload["config"]["pmax"] == 3


def test_config_accepts_dashed_keys(pipeline, tmp_path):
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as handle:
        json.dump({"no-covariance": True}, handle)
    out_path = str(tmp_path / "fit.json")
    assert main(["estimate", "--config", config_path,
                 "--locations", pipeline["locations"], "--series", pipeline["series"],
                 "--nu-fixed", "1.0", "--multistart", "2", "--out", out_path]) == 0
    with open(out_path) as handle:
        assert json.load(handle)["config"]["no_covariance"] is True


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as handle:
        json.dump({"bogus": 1}, handle)
    assert main(["forecast", "--config", config_path]) == 2
    err = capsys.readouterr().err
    assert "config key 'bogus' is not a flag of the forecast command" in err

    assert main(["forecast", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    with open(config_path, "wb") as handle:
        handle.write(b"\xff\xfe")
    assert main(["forecast", "--config", config_path]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def _int_flags():
    return [(command, name) for command in _COMMANDS
            for name, kind, _, _ in _flags(command) if kind is int]


@pytest.mark.parametrize("value", [[2], None, "x"], ids=["list", "null", "string"])
@pytest.mark.parametrize("command,flag", _int_flags())
def test_malformed_int_config_value_is_a_usage_error(command, flag, value, tmp_path, capsys):
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as handle:
        json.dump({flag: value}, handle)
    assert main([command, "--config", config_path]) == 2
    err = capsys.readouterr().err
    default = {name: default for name, _, default, _ in _flags(command)}[flag]
    if value is None and default in (None, _MANDATORY):
        # null leaves an optional-valued flag unset, so it passes conversion
        assert "missing required option(s)" in err
    else:
        assert "config key %r must be of type int, got %s" % (flag, json.dumps(value)) in err


def test_missing_required_options(capsys):
    assert main(["simulate"]) == 2
    err = capsys.readouterr().err
    assert "missing required option(s)" in err
    assert "--locations, --model, --n, --out" in err


def test_runtime_error_reports_json(tmp_path, capsys):
    assert main(["spectra", "--locations", str(tmp_path / "absent.csv"),
                 "--series", str(tmp_path / "absent2.csv"),
                 "--out", str(tmp_path / "out")]) == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"]["command"] == "spectra"
    assert report["error"]["type"] == "FileNotFoundError"
    assert "absent.csv" in report["error"]["message"]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def _huge_values(shape, seed):
    # +-1e308: finite, but their sums and transforms overflow
    return (1e308 * np.random.default_rng(seed).choice([-1.0, 1.0], size=shape)).tolist()


@pytest.mark.parametrize("case", [
    "missing-input", "overflowing-target", "subnormal-scale",
    "overflowing-series-spectra", "overflowing-series-estimate", "overflowing-series-krige",
    "large-series-spectra", "large-series-estimate", "large-series-krige",
    "overflowing-coordinates", "overflowing-coordinates-simulate",
    "overflowing-coordinates-krige", "infinite-forecast-cell", "overflowing-forecast",
    "absurd-horizons", "absurd-length", "model-of-another-dimension",
    "model-with-an-unknown-key", "model-with-a-boolean-dimension",
])
def test_runtime_errors_leave_one_json_object_on_stderr(case, pipeline, tmp_path, capsys):
    # every exit-1 path: stderr parses as one JSON object, and no warning
    # (which a real run prints to stderr) comes before it
    krige = ["krige", "--locations", pipeline["locations"], "--series", pipeline["series"],
             "--out", str(tmp_path / "kr")]
    if case == "missing-input":
        argv = ["spectra", "--locations", str(tmp_path / "absent.csv"),
                "--series", str(tmp_path / "absent2.csv"), "--out", str(tmp_path / "out")]
        expected = ("spectra", "FileNotFoundError")
    elif case == "overflowing-target":
        argv = krige + ["--model", pipeline["model"], "--target", "1e308,1e308"]
        expected = ("krige", "ValueError")
    elif case == "subnormal-scale":
        # b0 = 706: C(0, w) = e^-706 / (4 pi) ~ 1.9e-308 is below the
        # smallest normal double
        model_path = str(tmp_path / "model.json")
        with open(model_path, "w") as handle:
            json.dump(dict(MODEL, c_coeffs=[706.0]), handle)
        argv = krige + ["--model", model_path, "--target", "1.4,0.9"]
        expected = ("krige", "FloatingPointError")
    elif "-series-" in case:
        # 4 sites, n = 33; every command transforms through dft_panel.
        # +-1e308 overflows the transform; 1e200 N(0, 1) values transform,
        # but their squared moduli overflow
        command = case.rsplit("-", 1)[1]
        ids = ["a%d" % i for i in range(4)]
        locs = _write_csv(tmp_path / "locs.csv", ["site_id", "x1", "x2"],
                          [[site, i, i % 2] for i, site in enumerate(ids)])
        values = (_huge_values((33, 4), seed=5) if case.startswith("overflowing")
                  else (1e200 * np.random.default_rng(5).normal(size=(33, 4))).tolist())
        series = _write_csv(tmp_path / "huge.csv", ["t"] + ids,
                            [[t + 1] + [repr(v) for v in row] for t, row in enumerate(values)])
        argv = [command, "--locations", locs, "--series", series]
        if command == "krige":
            argv += ["--model", pipeline["model"], "--target", "0.5,0.5",
                     "--out", str(tmp_path / "kr")]
        else:
            argv += ["--out", str(tmp_path / ("fit.json" if command == "estimate" else "out"))]
        expected = (command, "ValueError")
    elif case == "model-of-another-dimension":
        model_path = str(tmp_path / "model.json")
        with open(model_path, "w") as handle:
            json.dump(dict(MODEL, d=3), handle)
        argv = krige + ["--model", model_path, "--target", "1.4,0.9"]
        expected = ("krige", "ValueError")
    elif case.startswith("model-with"):
        # a key the model does not have is not ignored, and true is not d = 1
        model_path = str(tmp_path / "model.json")
        with open(model_path, "w") as handle:
            json.dump(dict(MODEL, range=1.0) if case.endswith("key") else dict(MODEL, d=True),
                      handle)
        argv = krige + ["--model", model_path, "--target", "1.4,0.9"]
        expected = ("krige", "PanelFormatError")
    elif case.startswith("absurd"):
        # each first allocation is petabytes, so it fails before anything is
        # allocated
        if case == "absurd-horizons":
            argv = ["forecast", "--reconstructed",
                    os.path.join(pipeline["krige"], "target_series.csv"),
                    "--horizons", "1000000000000000", "--out", str(tmp_path / "fc.json")]
        else:
            argv = ["simulate", "--locations", pipeline["locations"],
                    "--model", pipeline["model"], "--n", "1000000000000000",
                    "--out", str(tmp_path / "sim")]
        expected = (argv[0], "MemoryError")
    elif case.startswith("overflowing-coordinates"):
        command = "estimate" if case == "overflowing-coordinates" else case.rsplit("-", 1)[1]
        with open(pipeline["locations"], newline="") as handle:
            ids = [row[0] for row in list(csv.reader(handle))[1:]]
        # distinct sites on both sides of the origin: their distances
        # overflow; at 1e154 the distances to a target at the origin do not
        scale = 1e154 if command == "krige" else 1e308
        locs = _write_csv(tmp_path / "far.csv", ["site_id", "x1", "x2"],
                          [[site, repr((-1.0) ** i * scale), i] for i, site in enumerate(ids)])
        if command == "simulate":
            argv = ["simulate", "--locations", locs, "--model", pipeline["model"], "--n", "32",
                    "--out", str(tmp_path / "sim")]
        elif command == "krige":
            argv = ["krige", "--locations", locs, "--series", pipeline["series"],
                    "--model", pipeline["model"], "--target", "0,0",
                    "--out", str(tmp_path / "kr")]
        else:
            argv = ["estimate", "--locations", locs, "--series", pipeline["series"],
                    "--out", str(tmp_path / "fit.json")]
        expected = (command, "ValueError")
    else:
        rows = [[t + 1, repr(v)] for t, v in enumerate(_huge_values(40, seed=7))]
        if case == "infinite-forecast-cell":
            rows = [[t + 1, "inf" if t == 5 else repr(0.1 * t)] for t in range(40)]
        argv = ["forecast", "--reconstructed", _write_csv(tmp_path / "rec.csv", ["t", "zhat"], rows),
                "--horizons", "2", "--out", str(tmp_path / "fc.json")]
        expected = ("forecast", "PanelFormatError" if case == "infinite-forecast-cell"
                    else "ValueError")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert [str(w.message) for w in caught] == []
    report = json.loads(capsys.readouterr().err)
    assert (report["error"]["command"], report["error"]["type"]) == expected
    if case == "model-of-another-dimension":
        assert "locations have dimension 2 but the model has d=3" in report["error"]["message"]
    if case == "model-with-an-unknown-key":
        assert "unknown model parameter key 'range'" in report["error"]["message"]
    if case == "model-with-a-boolean-dimension":
        assert "d must be a number, got True" in report["error"]["message"]
    if case == "infinite-forecast-cell":
        assert "row 7, column 'zhat' is not finite" in report["error"]["message"]
    if case.startswith("overflowing-coordinates"):
        assert "the distance between sites 0 and 1 is not finite" in report["error"]["message"]


def test_forecast_input_row_longer_than_its_header_names_the_file(tmp_path, capsys):
    rows = [[t + 1, repr(0.1 * t)] for t in range(40)]
    rows[2].append("9")
    path = _write_csv(tmp_path / "rec.csv", ["t", "zhat"], rows)
    out = tmp_path / "fc.json"
    assert main(["forecast", "--reconstructed", path, "--horizons", "2",
                 "--out", str(out)]) == 1
    report = json.loads(capsys.readouterr().err)
    assert (report["error"]["command"], report["error"]["type"]) == ("forecast",
                                                                      "PanelFormatError")
    assert report["error"]["message"] == "%s: row 4 has 3 fields, expected 2" % path
    assert not out.exists()


def test_forecast_input_with_two_series_names_the_file(tmp_path, capsys):
    rows = [[t + 1, repr(0.1 * t), repr(-0.2 * t)] for t in range(40)]
    path = _write_csv(tmp_path / "rec.csv", ["t", "a", "b"], rows)
    out = tmp_path / "fc.json"
    assert main(["forecast", "--reconstructed", path, "--horizons", "2",
                 "--out", str(out)]) == 1
    report = json.loads(capsys.readouterr().err)
    assert (report["error"]["command"], report["error"]["type"]) == ("forecast",
                                                                      "PanelFormatError")
    assert report["error"]["message"] == ("%s: header must name one series after 't', "
                                          "got ['t', 'a', 'b']" % path)
    assert not out.exists()


def test_truncated_model_json_names_the_file(pipeline, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODEL)[:20])
    assert main(["krige", "--locations", pipeline["locations"], "--series", pipeline["series"],
                 "--model", str(model), "--target", "1.4,0.9",
                 "--out", str(tmp_path / "kr")]) == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"]["type"] == "PanelFormatError"
    assert report["error"]["message"].startswith("%s: not valid JSON" % model)


def test_non_finite_output_is_an_error_and_no_file(pipeline, tmp_path, capsys, monkeypatch):
    def infinite(panel, half_window):
        result = independence_test(panel, half_window)
        return dataclasses.replace(result, lambda_bar=float("inf"))

    monkeypatch.setattr(cli, "independence_test", infinite)
    out = tmp_path / "indep.json"
    assert main(["test-indep", "--locations", pipeline["locations"],
                 "--series", pipeline["series"], "--out", str(out)]) == 1
    report = json.loads(capsys.readouterr().err)
    assert (report["error"]["command"], report["error"]["type"]) == ("test-indep",
                                                                      "ValueError")
    assert not out.exists()


def test_test_indep_on_strongly_correlated_sites_writes_a_finite_statistic(tmp_path):
    # 60 sites on [0, 0.3]^2, one block whose ln lambda is about -831
    locations = np.random.default_rng(0).uniform(0.0, 0.3, size=(60, 2))
    panel = simulate_panel(SimulationSpec(locations, n=1211, seed=1,
                                          params=ModelParams(1.0, 1.5, (0.0,))))
    loc_path, series_path = save_panel(panel, str(tmp_path))
    out = tmp_path / "indep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["test-indep", "--locations", loc_path, "--series", series_path,
                     "--out", str(out)]) == 0

    def refuse(constant):
        raise ValueError("non-finite number %s" % constant)
    result = json.loads(out.read_text(), parse_constant=refuse)
    assert abs(result["lambda_bar"] - 831.12) < 0.01
    assert result["p_value"] == 0.0


def test_test_indep_on_a_constant_site_is_a_json_error(tmp_path, capsys):
    panel = simulate_white_panel(3, 41, seed=6)
    observations = panel.observations.copy()
    observations[1] = 5.0
    loc_path, series_path = save_panel(TimeSeriesPanel(panel.locations, observations),
                                       str(tmp_path))
    out = tmp_path / "indep.json"
    assert main(["test-indep", "--locations", loc_path, "--series", series_path,
                 "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert (error["command"], error["type"]) == ("test-indep", "SingularMatrixError")
    assert error["message"] == "block spectral matrix has a non-positive diagonal"
    assert not out.exists()


def test_estimate_with_quantile_bins(pipeline, tmp_path):
    out = tmp_path / "fit.json"
    assert main(["estimate", "--locations", pipeline["locations"],
                 "--series", pipeline["series"], "--bins", "quantile:4",
                 "--nu-fixed", "1.0", "--multistart", "2", "--no-covariance",
                 "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["config"]["bins"] == "quantile:4"
    assert result["bins"]["n_bins"] == 4
    assert sum(result["bins"]["pair_counts"]) == 10


def test_bad_bins_and_target_values(pipeline, tmp_path, capsys):
    assert main(["estimate", "--locations", pipeline["locations"],
                 "--series", pipeline["series"], "--bins", "quantile:x",
                 "--out", str(tmp_path / "fit.json")]) == 2
    assert "cannot parse bin count" in capsys.readouterr().err

    assert main(["estimate", "--locations", pipeline["locations"],
                 "--series", pipeline["series"], "--bins", "weird",
                 "--out", str(tmp_path / "fit.json")]) == 2
    assert "--bins must be" in capsys.readouterr().err

    argv = ["krige", "--locations", pipeline["locations"],
            "--series", pipeline["series"], "--model", pipeline["model"],
            "--out", str(tmp_path / "kr")]
    for target in ("a,b", "", ","):
        assert main(argv + ["--target", target]) == 2
        assert "cannot parse target coordinates" in capsys.readouterr().err

    assert main(argv + ["--target", "1.0"]) == 2
    assert "sites have dimension 2" in capsys.readouterr().err


def test_thread_count_validation(pipeline, tmp_path, capsys):
    argv = ["krige", "--locations", pipeline["locations"],
            "--series", pipeline["series"], "--model", pipeline["model"],
            "--target", "1.4,0.9", "--out", str(tmp_path / "kr")]
    assert main(argv + ["--threads", "0"]) == 2
    assert "threads must be at least 1" in capsys.readouterr().err
    # every command checks the thread count, not only the one that takes it
    assert main(["spectra", "--locations", pipeline["locations"],
                 "--series", pipeline["series"], "--out", str(tmp_path / "sp"),
                 "--threads", "-1"]) == 2
    assert "threads must be at least 1" in capsys.readouterr().err

    assert main(argv + ["--threads", "2"]) == 0
    with open(str(tmp_path / "kr" / "kriging.json")) as handle:
        assert "threads" not in json.load(handle)["config"]


def test_one_parser_resolves_each_call_as_a_fresh_one(tmp_path, monkeypatch):
    # main builds its parser once per process; a call with --config or a
    # flag, then one without it, resolves as two fresh parsers would
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as handle:
        json.dump({"horizons": 2, "pmax": 3}, handle)
    seen, built = [], []
    for command in ("forecast", "estimate"):
        monkeypatch.setitem(cli._HANDLERS, command, seen.append)
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    forecast = ["forecast", "--reconstructed", "r.csv", "--out", "f.json"]
    estimate = ["estimate", "--locations", "l.csv", "--series", "s.csv", "--out", "e.json"]
    calls = [forecast + ["--config", config_path], forecast + ["--horizons", "5"],
             forecast + ["--horizons", "1", "--pmax", "4"], forecast + ["--horizons", "5"],
             estimate + ["--nugget", "--p", "2", "--threads", "2"], estimate]
    for argv in calls:
        assert main(argv) == 0
    assert len(built) == 1
    assert seen == [cli._resolve(argv[0], build().parse_args(argv)) for argv in calls]
    assert seen[1] == seen[3] and (seen[1]["pmax"], seen[1]["horizons"]) == (8, 5)
    assert (seen[5]["nugget"], seen[5]["p"], seen[5]["threads"]) == (False, 1, 1)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("stkrig ")


def test_readme_usage_lists_every_flag():
    # --config and --threads, which every command takes, are covered by the
    # README's prose
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Command line", 1)[1]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    usage = {}
    for line in block.splitlines():
        if line.startswith("stkrig "):
            command = line.split()[1]
            usage[command] = []
        usage[command] += re.findall(r"--[A-Za-z][A-Za-z-]*", line)
    assert usage == {command: ["--" + name.replace("_", "-") for name, _, _, _ in own]
                     for command, (_, own) in _COMMANDS.items()}


@pytest.mark.parametrize("config, match", [
    ({"measurement_error": 1}, "config key 'measurement_error' must be true or false, got 1"),
    ({"measurement_error": "yes"},
     "config key 'measurement_error' must be true or false, got \"yes\""),
    ({"out": 3}, "config key 'out' must be a string, got 3"),
    ([1, 2], "must hold a JSON object"),
], ids=["switch-number", "switch-string", "string-flag-number", "array"])
def test_config_values_of_the_wrong_kind_are_usage_errors(config, match, tmp_path, capsys):
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as handle:
        json.dump(config, handle)
    assert main(["simulate", "--config", config_path]) == 2
    assert match in capsys.readouterr().err
