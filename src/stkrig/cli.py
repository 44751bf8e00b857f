"""Batch command line interface.

Subcommands cover the whole pipeline: simulate a panel, export spectral
summaries, estimate the covariance model, krige a new location, forecast a
reconstructed series, and test spatial independence. Every flag can also be
supplied through a JSON config file (--config); explicit flags win. Outputs
embed the resolved configuration and the library version. Exit status is 0
on success, 2 for usage problems, and 1 for runtime failures, which are
reported as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .estimate import FitConfig, fit
from .indeptest import independence_test
from .io import (
    PanelFormatError,
    load_model,
    load_panel,
    load_locations,
    load_single_series,
    save_panel,
    write_json,
    _fmt,
)
from .krige import forecast as ar_forecast
from .krige import krige_series
from .simulate import SimulationSpec, simulate_panel
from .spectral import dft_panel, periodogram


class UsageError(Exception):
    """Bad invocation that argparse could not catch on its own."""


_DEFAULTS = {
    "simulate": {
        "locations": None, "model": None, "n": None, "seed": 0,
        "measurement_error": False, "out": None, "threads": None,
    },
    "spectra": {
        "locations": None, "series": None, "keep_mean": False, "out": None,
        "threads": None,
    },
    "estimate": {
        "locations": None, "series": None, "p": 1, "nu_fixed": None,
        "nugget": False, "bins": "exact", "bin_tolerance": None, "M": None,
        "multistart": 5, "seed": 0, "no_covariance": False, "out": None,
        "threads": None,
    },
    "krige": {
        "locations": None, "series": None, "model": None, "target": None,
        "include_target_noise": False, "out": None, "threads": None,
    },
    "forecast": {
        "reconstructed": None, "horizons": None, "pmax": 8, "out": None,
        "threads": None,
    },
    "test-indep": {
        "locations": None, "series": None, "K": None, "out": None,
        "threads": None,
    },
}

_REQUIRED = {
    "simulate": ("locations", "model", "n", "out"),
    "spectra": ("locations", "series", "out"),
    "estimate": ("locations", "series", "out"),
    "krige": ("locations", "series", "model", "target", "out"),
    "forecast": ("reconstructed", "horizons", "out"),
    "test-indep": ("locations", "series", "out"),
}

# knobs that change how fast the answer is computed, never the answer; they
# stay out of the recorded config so reruns compare byte for byte
_EXECUTION_ONLY = ("threads",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stkrig",
        description="Frequency-domain modeling, kriging and forecasting of "
                    "spatio-temporal panels.",
    )
    parser.add_argument("--version", action="version", version="stkrig %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    s = argparse.SUPPRESS

    def common(p):
        p.add_argument("--config", default=None, help="JSON file of flag defaults")
        p.add_argument("--threads", type=int, default=s,
                       help="worker threads (or set STKRIG_THREADS)")

    p = sub.add_parser("simulate", help="draw a synthetic panel from a model")
    p.add_argument("--locations", default=s, help="site CSV (site_id,x1,...,xd)")
    p.add_argument("--model", default=s, help="model parameter JSON")
    p.add_argument("--n", type=int, default=s, help="series length")
    p.add_argument("--seed", type=int, default=s)
    p.add_argument("--measurement-error", dest="measurement_error",
                   action="store_true", default=s,
                   help="add nugget noise to the observations")
    p.add_argument("--out", default=s, help="output directory")
    common(p)

    p = sub.add_parser("spectra", help="write periodogram summaries of a panel")
    p.add_argument("--locations", default=s)
    p.add_argument("--series", default=s)
    p.add_argument("--keep-mean", dest="keep_mean", action="store_true", default=s,
                   help="do not subtract site means before transforming")
    p.add_argument("--out", default=s, help="output directory")
    common(p)

    p = sub.add_parser("estimate", help="fit the covariance model to a panel")
    p.add_argument("--locations", default=s)
    p.add_argument("--series", default=s)
    p.add_argument("--p", type=int, default=s, help="cosine terms in the inverse range")
    p.add_argument("--nu-fixed", dest="nu_fixed", type=float, default=s,
                   help="hold the smoothness at this value")
    p.add_argument("--nugget", action="store_true", default=s,
                   help="estimate a measurement-error variance")
    p.add_argument("--bins", default=s,
                   help="'exact' or 'quantile:<count>' pair grouping")
    p.add_argument("--bin-tolerance", dest="bin_tolerance", type=float, default=s)
    p.add_argument("--M", type=int, default=s, help="number of frequencies to use")
    p.add_argument("--multistart", type=int, default=s)
    p.add_argument("--seed", type=int, default=s)
    p.add_argument("--no-covariance", dest="no_covariance", action="store_true",
                   default=s, help="skip the asymptotic covariance")
    p.add_argument("--out", default=s, help="output JSON path")
    common(p)

    p = sub.add_parser("krige", help="predict the series at a new location")
    p.add_argument("--locations", default=s)
    p.add_argument("--series", default=s)
    p.add_argument("--model", default=s,
                   help="model JSON (bare parameters or an estimate output)")
    p.add_argument("--target", default=s, help="coordinates, e.g. '3.5,2.0'")
    p.add_argument("--include-target-noise", dest="include_target_noise",
                   action="store_true", default=s,
                   help="predict a noisy observation instead of the field value")
    p.add_argument("--out", default=s, help="output directory")
    common(p)

    p = sub.add_parser("forecast", help="forecast a reconstructed series")
    p.add_argument("--reconstructed", default=s, help="CSV with columns t,value")
    p.add_argument("--horizons", type=int, default=s, help="steps ahead")
    p.add_argument("--pmax", type=int, default=s, help="largest AR order tried")
    p.add_argument("--out", default=s, help="output JSON path")
    common(p)

    p = sub.add_parser("test-indep", help="test spatial independence of a panel")
    p.add_argument("--locations", default=s)
    p.add_argument("--series", default=s)
    p.add_argument("--K", type=int, default=s, help="block half window")
    p.add_argument("--out", default=s, help="output JSON path")
    common(p)

    return parser


def _flag_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """The argparse action of each flag of one subcommand, by destination."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def _config_value(action: argparse.Action, default, key: str, value):
    """A config file value, converted as its flag's argparse type converts
    a command-line string."""
    if value is None and default is None:
        return None
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        expected = "true or false"
    elif action.type is None:
        if isinstance(value, str):
            return value
        expected = "a string"
    else:
        try:
            return action.type(str(value))
        except ValueError:
            expected = "of type %s" % action.type.__name__
    raise UsageError("config key %r must be %s, got %s" % (key, expected, json.dumps(value)))


def _threads(resolved: dict) -> int:
    value = resolved["threads"]
    if value is None:
        env = os.environ.get("STKRIG_THREADS")
        try:
            value = int(env) if env else 1
        except ValueError:
            raise UsageError("STKRIG_THREADS must be an integer, got %r" % env) from None
    if value < 1:
        raise UsageError("threads must be at least 1, got %r" % value)
    return value


def _resolve(command: str, namespace: argparse.Namespace, actions: dict) -> dict:
    resolved = dict(_DEFAULTS[command])
    config_path = getattr(namespace, "config", None)
    if config_path:
        try:
            with open(config_path) as handle:
                overrides = json.load(handle)
        except OSError as err:
            raise UsageError("cannot read config file %s: %s" % (config_path, err.strerror))
        except ValueError as err:  # malformed JSON or text that is not UTF-8
            raise UsageError("config file %s is not valid JSON: %s" % (config_path, err))
        if not isinstance(overrides, dict):
            raise UsageError("config file %s must hold a JSON object" % config_path)
        for key, value in overrides.items():
            attr = key.replace("-", "_")
            if attr not in resolved:
                raise UsageError(
                    "config key %r is not a flag of the %s command" % (key, command)
                )
            resolved[attr] = _config_value(actions[attr], resolved[attr], key, value)
    for key in resolved:
        if hasattr(namespace, key):
            resolved[key] = getattr(namespace, key)
    missing = [k for k in _REQUIRED[command] if resolved.get(k) is None]
    if missing:
        raise UsageError(
            "%s is missing required option(s): %s"
            % (command, ", ".join("--" + k.replace("_", "-") for k in sorted(missing)))
        )
    resolved["threads"] = _threads(resolved)
    return resolved


def _recorded_config(resolved: dict) -> dict:
    return {k: v for k, v in resolved.items() if k not in _EXECUTION_ONLY}


def _provenance(command: str, resolved: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": _recorded_config(resolved),
    }


def _cmd_simulate(resolved: dict) -> None:
    ids, coords = load_locations(resolved["locations"])
    params = load_model(resolved["model"])
    spec = SimulationSpec(
        locations=coords,
        n=resolved["n"],
        params=params,
        seed=resolved["seed"],
        include_measurement_error=resolved["measurement_error"],
        site_ids=tuple(ids),
    )
    panel = simulate_panel(spec)
    save_panel(panel, resolved["out"])
    payload = _provenance("simulate", resolved)
    payload["model"] = params.to_dict()
    payload["m"] = panel.m
    payload["n"] = panel.n
    write_json(os.path.join(resolved["out"], "simulate.json"), payload)


def _cmd_spectra(resolved: dict) -> None:
    panel = load_panel(resolved["locations"], resolved["series"])
    spectral = dft_panel(panel, remove_mean=not resolved["keep_mean"])
    out_dir = resolved["out"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "periodograms.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["omega"] + list(panel.site_ids))
        table = np.column_stack([periodogram(spectral, i) for i in range(panel.m)])
        for k in range(spectral.n_frequencies):
            writer.writerow([_fmt(spectral.frequencies[k])] + [_fmt(v) for v in table[k]])
    rows, cols = np.triu_indices(panel.m, 1)
    with open(os.path.join(out_dir, "difference_periodograms.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["omega"] + ["%s|%s" % (panel.site_ids[i], panel.site_ids[j])
                                     for i, j in zip(rows, cols)])
        # |J_i - J_j|^2 for every pair i < j, as difference_periodogram
        diff = spectral.dft[rows] - spectral.dft[cols]
        table = (diff * np.conj(diff)).real.T
        for k in range(spectral.n_frequencies):
            writer.writerow([_fmt(spectral.frequencies[k])] + [_fmt(v) for v in table[k]])
    payload = _provenance("spectra", resolved)
    payload["m"] = panel.m
    payload["n"] = panel.n
    payload["n_frequencies"] = spectral.n_frequencies
    write_json(os.path.join(out_dir, "spectra.json"), payload)


def _parse_bins(text: str) -> tuple[str, int | None]:
    if text == "exact":
        return "exact", None
    if text.startswith("quantile:"):
        try:
            count = int(text.split(":", 1)[1])
        except ValueError:
            raise UsageError("cannot parse bin count from %r" % text)
        return "quantile", count
    raise UsageError("--bins must be 'exact' or 'quantile:<count>', got %r" % text)


def _cmd_estimate(resolved: dict) -> None:
    panel = load_panel(resolved["locations"], resolved["series"])
    mode, n_bins = _parse_bins(resolved["bins"])
    config = FitConfig(
        n_coeffs=resolved["p"],
        nu_fixed=resolved["nu_fixed"],
        fit_nugget=resolved["nugget"],
        n_frequencies=resolved["M"],
        bins_mode=mode,
        n_bins=n_bins,
        bin_tolerance=resolved["bin_tolerance"],
        multistart=resolved["multistart"],
        seed=resolved["seed"],
        compute_covariance=not resolved["no_covariance"],
    )
    result = fit(panel, config)
    payload = _provenance("estimate", resolved)
    payload.update(result.to_dict())
    write_json(resolved["out"], payload)


def _parse_target(text: str) -> np.ndarray:
    try:
        values = [float(part) for part in str(text).split(",")]
    except ValueError:
        raise UsageError("cannot parse target coordinates from %r" % text)
    if not values:
        raise UsageError("target coordinates are empty")
    return np.asarray(values, dtype=float)


def _cmd_krige(resolved: dict) -> None:
    panel = load_panel(resolved["locations"], resolved["series"])
    params = load_model(resolved["model"])
    target = _parse_target(resolved["target"])
    if target.size != panel.d:
        raise UsageError(
            "target has %d coordinates but sites have dimension %d"
            % (target.size, panel.d)
        )
    output = krige_series(
        panel, target, params,
        include_target_noise=resolved["include_target_noise"],
        threads=resolved["threads"],
    )
    out_dir = resolved["out"]
    os.makedirs(out_dir, exist_ok=True)
    payload = _provenance("krige", resolved)
    payload["model"] = params.to_dict()
    payload.update(output.to_dict())
    write_json(os.path.join(out_dir, "kriging.json"), payload)
    with open(os.path.join(out_dir, "target_series.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "zhat"])
        for t, value in enumerate(output.reconstructed, start=1):
            writer.writerow([str(t), _fmt(value)])


def _cmd_forecast(resolved: dict) -> None:
    series = load_single_series(resolved["reconstructed"])
    output = ar_forecast(series, resolved["horizons"], resolved["pmax"])
    payload = _provenance("forecast", resolved)
    payload.update(output.to_dict())
    out_path = resolved["out"]
    write_json(out_path, payload)
    stem, _ = os.path.splitext(out_path)
    with open(stem + ".csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["horizon", "forecast", "mse"])
        for v in range(output.forecasts.size):
            writer.writerow([str(v + 1), _fmt(output.forecasts[v]), _fmt(output.forecast_mse[v])])


def _cmd_test_indep(resolved: dict) -> None:
    panel = load_panel(resolved["locations"], resolved["series"])
    result = independence_test(panel, half_window=resolved["K"])
    payload = _provenance("test-indep", resolved)
    payload.update(result.to_dict())
    write_json(resolved["out"], payload)


_HANDLERS = {
    "simulate": _cmd_simulate,
    "spectra": _cmd_spectra,
    "estimate": _cmd_estimate,
    "krige": _cmd_krige,
    "forecast": _cmd_forecast,
    "test-indep": _cmd_test_indep,
}


def main(argv=None) -> int:
    parser = build_parser()
    namespace = parser.parse_args(argv)
    command = namespace.command
    try:
        resolved = _resolve(command, namespace, _flag_actions(parser, command))
    except UsageError as err:
        print("stkrig %s: %s" % (command, err), file=sys.stderr)
        return 2
    try:
        _HANDLERS[command](resolved)
    except UsageError as err:
        print("stkrig %s: %s" % (command, err), file=sys.stderr)
        return 2
    except (PanelFormatError, ValueError, OSError, ArithmeticError,
            RuntimeError, np.linalg.LinAlgError) as err:
        report = {
            "error": {
                "command": command,
                "type": type(err).__name__,
                "message": str(err),
            }
        }
        print(json.dumps(report), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
