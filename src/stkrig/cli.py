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
import functools
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
    write_table,
)
from .krige import forecast as ar_forecast
from .krige import krige_series
from .simulate import SimulationSpec, simulate_panel
from .spectral import dft_panel, periodogram


class UsageError(Exception):
    """Bad invocation that argparse could not catch on its own."""


# In place of a default: the flag has none and must be given
_MANDATORY = object()

# Each subcommand's help text and its flags, in the order --help lists them.
# A flag is (name, type, default, help): the type is int, float, str, or bool
# for a switch; the name is its key in the resolved config and, with dashes
# for underscores, its spelling on the command line and in a config file.
# This table is the one declaration of the flags: the parser, the defaults,
# the required-flag check and the config-file conversion all read it.
_COMMANDS = {
    "simulate": ("draw a synthetic panel from a model", (
        ("locations", str, _MANDATORY, "site CSV (site_id,x1,...,xd)"),
        ("model", str, _MANDATORY, "model parameter JSON"),
        ("n", int, _MANDATORY, "series length"),
        ("seed", int, 0, None),
        ("measurement_error", bool, False, "add nugget noise to the observations"),
        ("out", str, _MANDATORY, "output directory"),
    )),
    "spectra": ("write periodogram summaries of a panel", (
        ("locations", str, _MANDATORY, None),
        ("series", str, _MANDATORY, None),
        ("out", str, _MANDATORY, "output directory"),
    )),
    "estimate": ("fit the covariance model to a panel", (
        ("locations", str, _MANDATORY, None),
        ("series", str, _MANDATORY, None),
        ("p", int, 1, "cosine terms in the inverse range"),
        ("nu_fixed", float, None, "hold the smoothness at this value"),
        ("nugget", bool, False, "estimate a measurement-error variance"),
        ("bins", str, "exact", "'exact' or 'quantile:<count>' pair grouping"),
        ("bin_tolerance", float, None, None),
        ("M", int, None, "number of frequencies to use"),
        ("multistart", int, 5, None),
        ("seed", int, 0, None),
        ("no_covariance", bool, False, "skip the asymptotic covariance"),
        ("out", str, _MANDATORY, "output JSON path"),
    )),
    "krige": ("predict the series at a new location", (
        ("locations", str, _MANDATORY, None),
        ("series", str, _MANDATORY, None),
        ("model", str, _MANDATORY, "model JSON (bare parameters or an estimate output)"),
        ("target", str, _MANDATORY, "coordinates, e.g. '3.5,2.0'"),
        ("include_target_noise", bool, False,
         "predict a noisy observation instead of the field value"),
        ("out", str, _MANDATORY, "output directory"),
    )),
    "forecast": ("forecast a reconstructed series", (
        ("reconstructed", str, _MANDATORY, "CSV with columns t,value"),
        ("horizons", int, _MANDATORY, "steps ahead"),
        ("pmax", int, 8, "largest AR order tried"),
        ("out", str, _MANDATORY, "output JSON path"),
    )),
    "test-indep": ("test spatial independence of a panel", (
        ("locations", str, _MANDATORY, None),
        ("series", str, _MANDATORY, None),
        ("K", int, None, "block half window"),
        ("out", str, _MANDATORY, "output JSON path"),
    )),
}

# Every subcommand ends with --config and then this flag. It changes how
# fast the answer is computed, never the answer, so it stays out of the
# recorded config and reruns compare byte for byte.
_THREADS = ("threads", int, 1, "worker threads")


def _flags(command: str) -> tuple:
    """The (name, type, default, help) of each flag of one subcommand, in
    the order of its resolved config."""
    return _COMMANDS[command][1] + (_THREADS,)


def _add_flag(parser: argparse.ArgumentParser, name: str, kind: type, _default, text) -> None:
    # unset flags stay off the namespace, so config-file values show through
    option = {"action": "store_true"} if kind is bool else {"type": kind}
    parser.add_argument("--" + name.replace("_", "-"), default=argparse.SUPPRESS,
                        help=text, **option)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stkrig",
        description="Frequency-domain modeling, kriging and forecasting of "
                    "spatio-temporal panels.",
    )
    parser.add_argument("--version", action="version", version="stkrig %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, own) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag in own:
            _add_flag(p, *flag)
        p.add_argument("--config", default=None, help="JSON file of flag defaults")
        _add_flag(p, *_THREADS)
    return parser


def _config_value(kind: type, default, key: str, value):
    """A config file value, converted as its flag's type converts a
    command-line string."""
    if value is None and default is None:
        return None
    if kind is bool:
        if isinstance(value, bool):
            return value
        expected = "true or false"
    elif kind is str:
        if isinstance(value, str):
            return value
        expected = "a string"
    else:
        try:
            return kind(str(value))
        except ValueError:
            expected = "of type %s" % kind.__name__
    raise UsageError("config key %r must be %s, got %s" % (key, expected, json.dumps(value)))


def _threads(resolved: dict) -> int:
    value = resolved["threads"]
    if value < 1:
        raise UsageError("threads must be at least 1, got %r" % value)
    return value


def _resolve(command: str, namespace: argparse.Namespace) -> dict:
    table = _flags(command)
    resolved = {name: None if default is _MANDATORY else default
                for name, _, default, _ in table}
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
        kinds = {name: kind for name, kind, _, _ in table}
        for key, value in overrides.items():
            attr = key.replace("-", "_")
            if attr not in resolved:
                raise UsageError(
                    "config key %r is not a flag of the %s command" % (key, command)
                )
            resolved[attr] = _config_value(kinds[attr], resolved[attr], key, value)
    for key in resolved:
        if hasattr(namespace, key):
            resolved[key] = getattr(namespace, key)
    missing = [name for name, _, default, _ in table
               if default is _MANDATORY and resolved[name] is None]
    if missing:
        raise UsageError(
            "%s is missing required option(s): %s"
            % (command, ", ".join("--" + k.replace("_", "-") for k in sorted(missing)))
        )
    resolved["threads"] = _threads(resolved)
    return resolved


def _recorded_config(resolved: dict) -> dict:
    return {k: v for k, v in resolved.items() if k != "threads"}


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
    spectral = dft_panel(panel)
    out_dir = resolved["out"]
    write_table(os.path.join(out_dir, "periodograms.csv"), ["omega"] + list(panel.site_ids),
                spectral.frequencies, [periodogram(spectral, i) for i in range(panel.m)])
    # |J_i - J_j|^2 for every pair i < j, as difference_periodogram
    rows, cols = np.triu_indices(panel.m, 1)
    diff = spectral.dft[rows] - spectral.dft[cols]
    write_table(os.path.join(out_dir, "difference_periodograms.csv"),
                ["omega"] + ["%s|%s" % (panel.site_ids[i], panel.site_ids[j])
                             for i, j in zip(rows, cols)],
                spectral.frequencies, (diff * np.conj(diff)).real)
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
    payload = _provenance("krige", resolved)
    payload["model"] = params.to_dict()
    payload.update(output.to_dict())
    write_json(os.path.join(resolved["out"], "kriging.json"), payload)
    write_table(os.path.join(resolved["out"], "target_series.csv"), ["t", "zhat"],
                range(1, output.n + 1), [output.reconstructed])


def _cmd_forecast(resolved: dict) -> None:
    series = load_single_series(resolved["reconstructed"])
    output = ar_forecast(series, resolved["horizons"], resolved["pmax"])
    payload = _provenance("forecast", resolved)
    payload.update(output.to_dict())
    out_path = resolved["out"]
    write_json(out_path, payload)
    stem, _ = os.path.splitext(out_path)
    write_table(stem + ".csv", ["horizon", "forecast", "mse"],
                range(1, output.forecasts.size + 1), [output.forecasts, output.forecast_mse])


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process. Every flag but
    --config defaults to SUPPRESS and parse_args fills a fresh namespace,
    so one parser parses each call as a new one would."""
    return build_parser()


def main(argv=None) -> int:
    namespace = _parser().parse_args(argv)
    command = namespace.command
    try:
        resolved = _resolve(command, namespace)
    except UsageError as err:
        print("stkrig %s: %s" % (command, err), file=sys.stderr)
        return 2
    try:
        _HANDLERS[command](resolved)
    except UsageError as err:
        print("stkrig %s: %s" % (command, err), file=sys.stderr)
        return 2
    except (PanelFormatError, ValueError, OSError, ArithmeticError,
            RuntimeError, MemoryError, np.linalg.LinAlgError) as err:
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
