"""Batch front end: JSON configs in, JSON and CSV results out.

Every subcommand takes --config/--out/--seed/--threads, writes
result.json (and any CSV plot data) into the output directory, and
reserves stdout for machine-readable values.  Progress goes to stderr.
Exit codes: 0 success, 1 bad input or a degenerate iterate (qmp-solve
still writes the trajectory up to it), 2 iteration cap hit (results are
still written, flagged as unconverged).

Wall-clock timestamps live in a run_info.json sidecar so that result
files from identical (config, seed) pairs are byte-identical.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from datetime import datetime, timezone

import click
import numpy as np

from . import __version__, bell, qmp, qse
from .errors import DegenerateIterate, NotConverged, NotViolatedAtAnyEfficiency, QopError
from .mathcore import fidelity, load_ref, matrix_to_dict

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def emit_plot_data(rows, header: str, path: str) -> None:
    """CSV with one documented header row and deterministic row order."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _sidecar(out_dir, command, config_path, seed, threads, started, extra=None):
    info = {
        "command": command,
        "config": os.path.abspath(config_path),
        "seed": seed,
        "threads": threads,
        "started_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "runtime_seconds": time.time() - started,
        "version": __version__,
    }
    if extra:
        info.update(extra)
    _write_json(os.path.join(out_dir, "run_info.json"), info)


def _entry(cfg, key: str):
    """Config entry that must be present and not null."""
    if cfg.get(key) is None:
        raise QopError(f"config is missing {key!r}")
    return cfg[key]


_REQUIRED = object()


def _number(cfg, key: str, kind, default=_REQUIRED):
    """Config entry converted by kind (int or float); absent or non-numeric is bad input."""
    if default is _REQUIRED and key not in cfg:
        raise QopError(f"config is missing {key!r}")
    raw = cfg.get(key, default)
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise QopError(f"config entry {key!r} must be a number, got {json.dumps(raw)}") from None


def _integers(cfg, key: str, count=None) -> list[int]:
    """Config entry that must be a list of integers, of count entries when given."""
    raw = cfg.get(key)
    if isinstance(raw, list) and count in (None, len(raw)):
        try:
            return [int(v) for v in raw]
        except (TypeError, ValueError):
            pass
    what = "a list of integers" if count is None else f"a list of {count} integers"
    raise QopError(f"config entry {key!r} must be {what}, got {json.dumps(raw)}")


def _schedule(raw) -> qmp.HalpernSchedule:
    """Damping schedule from its config object; keys must name HalpernSchedule fields."""
    known = [f.name for f in dataclasses.fields(qmp.HalpernSchedule)]
    if not isinstance(raw, dict) or not set(raw) <= set(known):
        raise QopError(f"'schedule' must be an object with keys among {known}, got {json.dumps(raw)}")
    return qmp.HalpernSchedule(**{k: _number(raw, k, float) for k in raw})


# every top-level key each command reads; any other key is a typo and exits 1
_CONFIG_KEYS = {
    "qse-estimate": {"measurements", "frequencies", "epsilon", "max_iters", "reference",
                     "dump_state"},
    "qse-benchmark": {"protocol", "qubits", "trials", "white_noise", "samples_factor"},
    "bell-lhv": {"inequality"},
    "bell-optimize": {"counts", "trials"},
    "bell-efficiency": {"inequality", "behavior", "counts", "mode"},
    "qmp-solve": {"N", "d", "targets", "constraint", "accuracy", "max_iterations",
                  "identity_seed", "schedule", "dump_state"},
    "qmp-sweep": {"N", "k", "d", "generator", "trials", "m_range", "m_values"},
}


class _Runner:
    """Shared setup/teardown: config loading, timing, sidecar, exit code."""

    def __init__(self, command, config_path, out_dir, seed, threads):
        self.command = command
        self.config_path = config_path
        self.base_dir = os.path.dirname(os.path.abspath(config_path))
        self.out_dir = out_dir
        self.seed = seed
        self.threads = threads

    def __call__(self, body) -> None:
        started = time.time()
        os.makedirs(self.out_dir, exist_ok=True)
        try:
            cfg = _load_json(self.config_path)
            if not isinstance(cfg, dict):
                raise QopError("config must be a JSON object")
            known = _CONFIG_KEYS[self.command]
            unknown = sorted(set(cfg) - known)
            if unknown:
                raise QopError(f"unknown config key(s) for {self.command}: "
                               f"{', '.join(map(repr, unknown))}; known keys: "
                               f"{', '.join(sorted(known))}")
            click.echo(f"{self.command}: seed={self.seed} config={self.config_path}", err=True)
            code, result, extra = body(cfg)
            result["command"] = self.command
            result["seed"] = self.seed
            _write_json(os.path.join(self.out_dir, "result.json"), result)
            _sidecar(
                self.out_dir, self.command, self.config_path, self.seed, self.threads,
                started, extra,
            )
        except (QopError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT_ERROR)
        click.echo(f"{self.command}: done in {time.time() - started:.2f}s", err=True)
        sys.exit(code)


def _common(fn):
    fn = click.option("--threads", default=1, type=click.IntRange(min=1), show_default=True,
                      help="Worker threads for trial-parallel commands.")(fn)
    fn = click.option("--seed", default=0, type=click.IntRange(0, 2**64 - 1),
                      show_default=True, help="Seed for every random draw in the run.")(fn)
    fn = click.option("--out", "out_dir", default=".", show_default=True,
                      type=click.Path(file_okay=False), help="Output directory.")(fn)
    # existence is checked at open time so a missing file exits 1, not
    # click's usage-error 2, which is reserved for the iteration cap
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(dir_okay=False),
                      help="JSON run configuration.")(fn)
    return fn


@click.group()
def main():
    """Estimation, Bell-gap, and marginal-problem batch runs."""


@main.command(name="qse-estimate")
@_common
def qse_estimate(config_path, out_dir, seed, threads):
    """Reconstruct a state from measured frequencies."""
    runner = _Runner("qse-estimate", config_path, out_dir, seed, threads)

    def body(cfg):
        problem, reference = qse.estimation_problem_from_dict(cfg, base_dir=runner.base_dir)
        res = qse.estimate(problem)
        result = {
            "converged": res.converged,
            "iterations": res.iterations,
            "residual": res.residual,
            "fidelity": None if reference is None else fidelity(res.state, reference),
        }
        if cfg.get("dump_state", True):
            result["state"] = matrix_to_dict(res.state.matrix)
        return (EXIT_OK if res.converged else EXIT_NOT_CONVERGED), result, None

    runner(body)


@main.command(name="qse-benchmark")
@_common
def qse_benchmark(config_path, out_dir, seed, threads):
    """Mean reconstruction fidelity over randomized noisy trials."""
    runner = _Runner("qse-benchmark", config_path, out_dir, seed, threads)

    def body(cfg):
        result = {
            "protocol": cfg.get("protocol", "mub"),
            "qubits": _number(cfg, "qubits", int),
            "trials": _number(cfg, "trials", int, 50),
            "white_noise": _number(cfg, "white_noise", float, 0.1),
            "samples_factor": _number(cfg, "samples_factor", float, 100),
        }
        stats = qse.run_benchmark(
            result["qubits"],
            result["protocol"],
            trials=result["trials"],
            rng=seed,
            white_noise=result["white_noise"],
            samples_factor=result["samples_factor"],
        )
        timings = {key: stats.pop(key) for key in ("protocol_seconds", "trials_seconds")}
        result.update(stats)
        click.echo(f"{result['mean_fidelity']:.6f}")
        return EXIT_OK, result, timings

    runner(body)


@main.command(name="bell-lhv")
@_common
def bell_lhv(config_path, out_dir, seed, threads):
    """Exact local-hidden-variable bound of an inequality."""
    runner = _Runner("bell-lhv", config_path, out_dir, seed, threads)

    def body(cfg):
        ineq = load_ref(_entry(cfg, "inequality"), runner.base_dir, bell.inequality_from_dict)
        bound = bell.lhv_bound(ineq)
        click.echo(f"{bound:g}")
        return EXIT_OK, {"bound": bound}, None

    runner(body)


@main.command(name="bell-optimize")
@_common
def bell_optimize(config_path, out_dir, seed, threads):
    """Search for the inequality with the largest quantum/classical gap."""
    runner = _Runner("bell-optimize", config_path, out_dir, seed, threads)

    def body(cfg):
        counts = load_ref(_entry(cfg, "counts"), runner.base_dir, bell.counts_from_dict)
        res = bell.maximize_gap(counts, trials=_number(cfg, "trials", int, 20), rng=seed)
        printed = bell.format_inequality(res.inequality)
        click.echo(printed)
        click.echo(f"{res.ratio:.10f}")
        result = {
            "ratio": res.ratio,
            "quantum": res.quantum,
            "error": res.error,
            "classical": res.classical,
            "inequality": bell.inequality_to_dict(res.inequality),
            "printed": printed,
        }
        return EXIT_OK, result, None

    runner(body)


@main.command(name="bell-efficiency")
@_common
def bell_efficiency(config_path, out_dir, seed, threads):
    """Critical detection efficiency for a behavior to keep violating."""
    runner = _Runner("bell-efficiency", config_path, out_dir, seed, threads)

    def body(cfg):
        ineq = load_ref(_entry(cfg, "inequality"), runner.base_dir, bell.inequality_from_dict)
        if "behavior" in cfg:
            behavior = load_ref(_entry(cfg, "behavior"), runner.base_dir, bell.behavior_from_dict)
        else:
            behavior = load_ref(_entry(cfg, "counts"), runner.base_dir, bell.counts_from_dict).behavior()
        mode = cfg.get("mode", "symmetric")
        try:
            eta = bell.efficiency_threshold(ineq, behavior, mode=mode)
            result = {"mode": mode, "threshold": eta, "violated_at_any_efficiency": True}
            click.echo(f"{eta:g}")
        except NotViolatedAtAnyEfficiency:
            result = {"mode": mode, "threshold": None, "violated_at_any_efficiency": False}
            click.echo("none")
        return EXIT_OK, result, None

    runner(body)


@main.command(name="qmp-solve")
@_common
def qmp_solve(config_path, out_dir, seed, threads):
    """Find a global state with prescribed marginals and spectrum."""
    runner = _Runner("qmp-solve", config_path, out_dir, seed, threads)

    def body(cfg):
        spec, constraint = qmp.problem_from_dict(cfg, base_dir=runner.base_dir)
        kwargs = dict(
            accuracy=_number(cfg, "accuracy", float, 1e-6),
            max_iterations=_number(cfg, "max_iterations", int, 50000),
            rng=seed,
            identity_seed=bool(cfg.get("identity_seed", False)),
        )
        code = EXIT_OK
        degenerate = None
        try:
            if "schedule" in cfg:
                sched = _schedule(cfg["schedule"])
                state, report = qmp.solve_accelerated(spec, constraint, schedule=sched, **kwargs)
            else:
                state, report = qmp.solve(spec, constraint, **kwargs)
        except NotConverged as exc:
            state, report = exc.result
            code = EXIT_NOT_CONVERGED
            click.echo("iteration cap hit before tolerance", err=True)
        except DegenerateIterate as exc:
            # the trajectory up to the failure is still written; _Runner reports the error
            (state, report), degenerate = exc.result, exc
        if report.eigh_fallbacks:
            click.echo(f"qmp-solve: {report.eigh_fallbacks} of "
                       f"{report.eigh_fallbacks + report.warm_eigensteps} warm top-"
                       f"{constraint.rank} eigensteps were rejected and ran a full eigh", err=True)
        emit_plot_data(report.trajectory_rows(), "n,marginal_dist,spectral_dist,total_dist",
                       os.path.join(runner.out_dir, "trajectory.csv"))
        if degenerate is not None:
            raise degenerate
        result = {
            "converged": report.converged,
            "iterations": report.iterations,
            "final": {
                "marginal_dist": float(report.marginal_dist[-1]),
                "spectral_dist": float(report.spectral_dist[-1]),
                "total_dist": float(report.total_dist[-1]),
            },
            "trajectory": {
                "steps": [int(n) for n in report.steps],
                "marginal_dist": [float(v) for v in report.marginal_dist],
                "spectral_dist": [float(v) for v in report.spectral_dist],
                "total_dist": [float(v) for v in report.total_dist],
            },
        }
        if cfg.get("dump_state", True):
            result["state"] = matrix_to_dict(state.matrix)
        click.echo(f"{report.total_dist[-1]:.3e}")
        return code, result, {
            "solver_runtime_seconds": report.runtime,
            "warm_eigensteps": report.warm_eigensteps,
            "eigh_fallbacks": report.eigh_fallbacks,
        }

    runner(body)


@main.command(name="qmp-sweep")
@_common
def qmp_sweep(config_path, out_dir, seed, threads):
    """Count PSD outcomes of random marginal impositions."""
    runner = _Runner("qmp-sweep", config_path, out_dir, seed, threads)

    def body(cfg):
        if cfg.get("m_values") is None:
            lo, hi = _integers(cfg, "m_range", 2)
            m_values = list(range(lo, hi + 1))
        else:
            m_values = _integers(cfg, "m_values")
        result = {
            "N": _number(cfg, "N", int),
            "k": _number(cfg, "k", int),
            "d": _number(cfg, "d", int),
            "generator": cfg.get("generator", "full-rank"),
            "trials": _number(cfg, "trials", int, 1000),
        }
        table = qmp.npm_sweep(
            result["N"],
            result["k"],
            result["d"],
            m_values,
            trials=result["trials"],
            generator=result["generator"],
            rng=seed,
            workers=threads,
        )
        emit_plot_data(table, "m,psd_count", os.path.join(runner.out_dir, "sweep.csv"))
        for m, count in table:
            click.echo(f"{m} {count}")
        result["table"] = [[int(m), int(c)] for m, c in table]
        return EXIT_OK, result, None

    runner(body)


if __name__ == "__main__":
    main()
