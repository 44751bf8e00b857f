#!/usr/bin/env python3
"""stkrig benchmark: seeded workloads timed end to end, with a separate
traced run for per-layer numbers.

    python3 bench/run.py --workload {fit,map,cli-batch,all} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/`` and from nowhere else. Each workload runs in one process with
BLAS and OpenMP pinned to one thread (``all`` starts one child process per
workload, one after another).

``--trace 0`` times operations untraced for about ``--seconds`` (longer
when a workload has not yet timed its minimum number of operations) and
prints the end-to-end metrics. ``--trace 1`` wraps the package's public
functions in the namespace of the module that calls them, runs a fixed
number of operations, prints calls, total, self and per-call seconds per
layer, then re-runs the fastest operation of each kind untraced: the
outputs must match exactly, and the time difference is the tracing
overhead. Spans are kept in memory and written to ``.bench_out/`` at the
end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys
import time

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"   # before numpy is imported anywhere

import argparse
import json
import platform
import resource
import statistics
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("fit", "map", "cli-batch")

# set-up is repeated and its median reported, so one slow repetition
# does not move setup_s
SETUP_REPEATS = 3

# operations of each kind the traced run performs; fixed so that its exact
# counts (criterion evaluations, kernel points, assemblies, solves) repeat
TRACE_OPS = {"fit": 1, "map": 4, "cli-batch": 6}

# per-layer numbers reported in the result line: calls, self seconds and
# seconds per call of each of these '<module>.<function>' keys
CALL_KEYS = (
    "covmodel.variogram_model", "covmodel.cov_matrix", "covmodel.cov_freq",
    "covmodel.unpack_params",
    "estimate.fit", "estimate.criterion", "estimate.build_distance_bins",
    "estimate.asymptotic_covariance",
    "numerics.nelder_mead", "numerics.hpd_solve", "numerics.cholesky_with_jitter",
    "numerics.dft_inverse", "numerics.dft_forward",
    "krige.krige_series", "krige.assemble_system", "krige.predict_dft",
    "krige.reconstruct_series", "krige.forecast", "krige.ar_objective",
    "simulate.simulate_panel", "spectral.dft_panel", "indeptest.independence_test",
    "cli.main", "cli.simulate", "cli.spectra", "cli.estimate", "cli.krige",
    "cli.forecast", "cli.test_indep",
)
MODULES = ("numerics", "covmodel", "spectral", "estimate", "krige", "indeptest",
           "simulate", "io", "cli")
IO_LOAD = ("io.load_locations", "io.load_panel", "io.load_model", "io.load_single_series")
IO_WRITE = ("io.save_panel", "io.write_json")


class SetupFailure(RuntimeError):
    """The checkout cannot be benchmarked (no package source, bad import)."""


def import_package() -> float:
    """Import stkrig from the checkout's src/; returns the seconds taken."""
    t0 = time.perf_counter()
    if not os.path.isdir(os.path.join(SRC, "stkrig")):
        raise SetupFailure("no package source at %s" % os.path.join(SRC, "stkrig"))
    sys.path.insert(0, SRC)
    import stkrig
    import workloads  # noqa: F401  (imports the package modules it drives)
    found = os.path.realpath(stkrig.__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        raise SetupFailure("stkrig imported from %s, not from %s" % (found, SRC))
    return time.perf_counter() - t0


def pin_cpu() -> tuple:
    """Pin this process to its lowest allowed CPU; returns (nproc, cpu).

    On a shared 2-core host the two CPUs ran the map workload's kernels up
    to 15% apart, so letting the scheduler pick one per run made
    run-to-run timings bimodal.
    """
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def environment(nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "krige_threads": 1,
        "processes": 1,
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def _tail(values):
    """Highest percentile with at least ten samples beyond it, or the max."""
    n = len(values)
    if n >= 20:
        pct = int(100 * (1 - 10.0 / n))
        return "p%d" % pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return "max", max(values)


def _run_op(op, tracer, index):
    """Run one operation; returns (result, seconds, problems)."""
    if tracer is not None:
        tracer.op = index
        tracer.active = True
        root = tracer.enter("bench." + op.kind, "bench." + op.kind)
    t0 = time.perf_counter()
    try:
        result, problems = op.run(), []
    except Exception as err:  # an operation that raises counts as failed
        result, problems = None, ["%s: %s" % (type(err).__name__, err)]
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.leave(root)
        tracer.active = False
    if result is not None:
        try:
            problems = op.check(result)
        except Exception as err:  # a check that cannot read the output fails it
            problems = ["check raised %s: %s" % (type(err).__name__, err)]
    return result, seconds, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    nproc, cpu = pin_cpu()
    import_s = import_package()
    from tracer import Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    kwargs = {"work_root": OUT} if name == "cli-batch" else {}
    workload = WORKLOADS[name](seed, tiny=tiny, **kwargs)
    env = environment(nproc, cpu)
    print("workload %s seed %d seconds %g trace %d%s" % (name, seed, seconds, trace,
                                                         " size tiny" if tiny else ""))
    print("why: %s" % workload.why)
    print("env %s" % json.dumps(env, sort_keys=True))

    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.prepare()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + _median(setups)

        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        records = []
        durations = {}
        samples = {k: list(v) for k, v in workload.samples.items()}
        ops = workload.operations()
        start = time.perf_counter()
        while True:
            op = next(ops)
            if trace:
                if len(records) >= TRACE_OPS[name]:
                    break
            else:
                done = durations.get(op.kind, [])
                estimate = _median(done) if done else 0.0
                covered = all(durations.get(k) for k in workload.kinds)
                enough = len(durations.get(workload.primary, [])) >= workload.min_ops
                if covered and enough and time.perf_counter() - start + estimate > seconds:
                    break
            result, took, problems = _run_op(op, tracer, len(records))
            records.append((op, result, took, problems))
            durations.setdefault(op.kind, []).append(took)
            if result is not None:
                for kind, value in op.subtimes(result).items():
                    samples.setdefault(kind, []).append(value)
        if tracer is not None:
            tracer.uninstall()

        attempted = len(records)
        failures = [(i, op.kind, p) for i, (op, _, _, p) in enumerate(records) if p]
        workload.report([r for op, r, _, _ in records
                         if op.kind == workload.primary and r is not None])

        # re-run the fastest successful operation of each kind: untraced
        # against traced in the traced run, and for the CLI a byte-for-byte
        # rerun check. The fastest, because a nu-free fit in a CLI job can
        # occasionally take ten times the median.
        fastest = {}
        if trace or name == "cli-batch":
            for i, (op, result, took, _) in enumerate(records):
                best = fastest.get(op.kind)
                if result is not None and (best is None or took < records[best][2]):
                    fastest[op.kind] = i
        rerun = sorted(fastest.values())
        traced_s = untraced_s = 0.0
        for i in rerun:
            op, result, took, problems = records[i]
            again, took_again, problems_again = _run_op(op, None, i)
            attempted += 1
            if again is None:
                failures.append((i, op.kind, problems_again))
                continue
            if op.fingerprint(again) != op.fingerprint(result):
                failures.append((i, op.kind, ["rerun output differs from the first run"]))
            elif problems_again:
                failures.append((i, op.kind, problems_again))
            traced_s += took
            untraced_s += took_again
    finally:
        workload.close()

    failed = len(failures)
    for i, kind, problems in failures:
        print("FAILED op %d (%s): %s" % (i, kind, "; ".join(problems)))
    correct = not failures
    print("attempted %d failed %d failed_frac %.6f" % (attempted, failed, failed / attempted))

    if trace:
        metrics = _layer_metrics(tracer, records, traced_s, untraced_s)
        path = os.path.join(OUT, "spans-%s-seed%d.json" % (name, seed))
        tracer.write(path, {"workload": name, "seed": seed, "env": env})
        print("spans written to %s" % os.path.relpath(path, ROOT))
    else:
        metrics = _end_to_end(name, workload, setup_s, setups, import_s, durations, samples,
                              failed / attempted)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _end_to_end(name, workload, setup_s, setups, import_s, durations, samples, failed_frac):
    names = {"fit": "fit_s", "krige": "krige_s", "job": "job_s"}
    print("metric setup_s %.6f s (import %.6f s + median of %d set-ups %s)"
          % (setup_s, import_s, len(setups), ", ".join("%.4f" % s for s in setups)))
    rows = [(names.get(k, k + "_s"), v) for k, v in durations.items()]
    rows += [("cli.%s_s" % k, v) for k, v in samples.items() if name == "cli-batch"]
    if name == "fit":
        rows.append(("simulate_s", samples["simulate"]))
    for label, values in rows:
        tail_name, tail = _tail(values)
        print("metric %s %.6f s median, %s %.6f s, n=%d" % (label, _median(values), tail_name,
                                                            tail, len(values)))
    op_s = _median(durations[workload.primary])
    print("metric op_s %.6f s (%s)" % (op_s, names[workload.primary]))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("metric failed_frac %.6f" % failed_frac)
    print("metric peak_rss_mb %.3f MB" % peak)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s": {"value": op_s, "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def _layer_metrics(tracer, records, traced_s, untraced_s) -> dict:
    layers = tracer.layers()
    counters = tracer.counters
    print("layer calls total_s self_s s_per_call")
    for key in sorted(layers):
        row = layers[key]
        print("layer %s %d %.6f %.6f %.9f" % (key, row["calls"], row["total_s"],
                                                row["self_s"], row["s_per_call"]))
    for name in tracer.absent:
        print("layer %s absent" % name)
    print("counters %s" % json.dumps(counters, sort_keys=True))

    def stat(key, field):
        return layers.get(key, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for key in CALL_KEYS:
        metrics[key + ".calls"] = (stat(key, "calls"), "count")
        metrics[key + ".self_s"] = (stat(key, "self_s"), "s")
        metrics[key + ".s_per_call"] = (stat(key, "s_per_call"), "s")
    for module in MODULES:
        metrics["layer.%s.self_s" % module] = (
            sum(row["self_s"] for key, row in layers.items() if key.startswith(module + ".")), "s")
    metrics["io.load_s"] = (sum(stat(k, "total_s") for k in IO_LOAD), "s")
    metrics["io.write_s"] = (sum(stat(k, "total_s") for k in IO_WRITE), "s")
    restarts = counters.get("estimate.criterion.restarts", 0)
    fits = counters.get("estimate.fits", 0)
    metrics.update({
        "covmodel.kernel_points": (counters.get("covmodel.kernel_points", 0), "count"),
        "covmodel.cov_matrix.kernel_points": (
            counters.get("covmodel.cov_matrix.kernel_points", 0), "count"),
        "covmodel.cov_matrix.useful_frac": (ratio(
            counters.get("covmodel.cov_matrix.useful_points", 0),
            counters.get("covmodel.cov_matrix.kernel_points", 0)), "frac"),
        "estimate.criterion.per_fit": (ratio(stat("estimate.criterion", "calls"), fits), "count"),
        "estimate.restarts": (restarts, "count"),
        "estimate.nfev_per_restart": (ratio(stat("estimate.criterion", "calls"), restarts), "count"),
        "estimate.converged_frac": (ratio(
            counters.get("estimate.criterion.converged", 0), restarts), "frac"),
        "estimate.bins_per_pair": (ratio(counters.get("estimate.bins", 0),
                                         counters.get("estimate.pairs", 0)), "frac"),
        "krige.jittered": (counters.get("krige.jittered", 0), "count"),
        "krige.clamped": (counters.get("krige.clamped", 0), "count"),
        "krige.failed": (counters.get("krige.failed", 0), "count"),
        "indeptest.pd_repairs": (counters.get("indeptest.pd_repairs", 0), "count"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_frac": (ratio(traced_s - untraced_s, untraced_s), "frac"),
    })
    print("trace overhead %.6f s on re-run operations (traced %.6f s, untraced %.6f s); "
          "%d operations traced" % (traced_s - untraced_s, traced_s, untraced_s, len(records)))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_all(args) -> int:
    """Each workload in a child process of its own, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.rstrip("\n").splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print("workload %s exited %d" % (name, proc.returncode), file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"]["%s.%s" % (name, key)] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy sizes for the smoke check")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.size == "tiny")
    except SetupFailure as err:
        print("bench: %s" % err, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
