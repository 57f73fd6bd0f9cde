"""Batch front end: JSON configs in, JSON and CSV results out.

Every subcommand takes --config/--out/--seed/--threads, writes
result.json (and any CSV plot data) into the output directory, and
reserves stdout for machine-readable values.  Progress goes to stderr.
Exit codes: 0 success, 1 bad input or a degenerate iterate (qmp-solve
still writes the trajectory up to it), 2 iteration cap hit (results are
still written, flagged as unconverged).

Wall-clock timestamps live in a run_info.json sidecar so that result
files from identical (config, seed) pairs are byte-identical.

Each subcommand is declared once, as `@_command(name, config keys)` on
a body(cfg, run) -> (exit code, result, run_info extras) whose docstring
is its --help text; `_command` adds the common options and the rest of
the run (config checks, output files, bad input -> `error:` and exit 1).
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

import click
import numpy as np

from . import __version__, bell, qmp, qse
from .errors import DegenerateIterate, NotConverged, NotViolatedAtAnyEfficiency, QopError
from .mathcore import config_number, fidelity, load_ref, matrix_to_dict

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _float_rows(a, nl: str):
    """The rows of the finite real matrix `a` as json.dumps(a.tolist(), indent=2) text.

    One piece per row.  Each entry is written as its sign and
    float.__repr__ of its magnitude, which for every finite float, -0.0
    included, is the repr of the entry itself.  When |a| equals its
    transpose, as for either part of a Hermitian matrix, only the upper
    triangle is formatted and the lower one shares its strings.  The sign
    goes into the separator before the entry, one of two shared string
    objects, so no string is made per entry beyond the reprs.
    """
    row, cell = nl + "  ", nl + "    "
    mag = np.abs(a)
    mirrored = a.shape[0] == a.shape[1] and np.array_equal(mag, mag.T)
    sign = np.signbit(a).view(np.int8)
    seps = np.array(["," + cell, "," + cell + "-"], dtype=object)[sign]
    seps[:, 0] = np.array([cell, cell + "-"], dtype=object)[sign[:, 0]]
    text = np.empty(a.shape, dtype=object)
    parts = np.empty(2 * a.shape[1], dtype=object)
    lead = "[" + row + "["
    for r in range(a.shape[0]):
        first = r if mirrored else 0
        text[r, first:] = list(map(float.__repr__, mag[r, first:].tolist()))
        if mirrored:
            text[r + 1:, r] = text[r, r + 1:]
        parts[0::2], parts[1::2] = seps[r], text[r]
        yield lead + "".join(parts.tolist()) + row + "]"
        text[r] = None  # the rows below hold every string still to be written
        lead = "," + row + "["
    yield nl + "]"


def _json_pieces(obj, nl: str):
    """json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) in pieces.

    nl is a newline plus the current indent.  A 2-D ndarray is written
    as its encoding by matrix_to_dict, {"dim", "im", "re"}.
    """
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2 or 0 in obj.shape:
            yield from _json_pieces(matrix_to_dict(obj), nl)
            return
        m = obj.astype(complex, copy=False)
        if not np.isfinite(m).all():
            raise ValueError("Out of range float values are not JSON compliant")
        inner = nl + "  "
        yield "{" + inner + f'"dim": {m.shape[0]},' + inner + '"im": '
        yield from _float_rows(m.imag, inner)
        yield "," + inner + '"re": '
        yield from _float_rows(m.real, inner)
        yield nl + "}"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("result dicts must have str keys")
        inner, sep = nl + "  ", "{"
        for key in sorted(obj):
            yield sep + inner + json.dumps(key) + ": "
            yield from _json_pieces(obj[key], inner)
            sep = ","
        yield nl + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner = nl + "  "
        # exact finite floats print as float.__repr__, which json also uses;
        # a NaN or inf anywhere makes the sum non-finite
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            yield "[" + inner + ("," + inner).join(map(float.__repr__, obj)) + nl + "]"
            return
        sep = "["
        for item in obj:
            yield sep + inner
            yield from _json_pieces(item, inner)
            sep = ","
        yield nl + "]"
    else:
        yield json.dumps(obj, allow_nan=False)


def _write_json(path: str, obj) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) and a newline.

    A 2-D ndarray in obj is written as json.dumps would write its
    matrix_to_dict encoding, straight from the array: no float lists are
    built, and a Hermitian matrix (|re| and |im| equal to their
    transposes) has float.__repr__ run on one triangle only.  The bytes
    are those json.dumps writes, but json runs its pure-Python encoder
    whenever indent is set, which costs more per float than
    float.__repr__ itself, and a dumped D=256 state holds 131,072 floats.
    Each other list of exact finite floats (a matrix row) is encoded by
    one join and every other scalar by json.dumps.  A dict with a non-str
    key, which json would convert to a string, raises TypeError, and a NaN
    or infinity, which is not JSON, raises ValueError.  Every piece is
    encoded before the file is opened, so either leaves no file behind;
    the pieces are written as they are, not joined, so the text is held
    in memory once.
    """
    pieces = list(_json_pieces(obj, "\n"))
    with open(path, "w") as fh:
        fh.writelines(pieces)
        fh.write("\n")


def emit_plot_data(rows, header: str, path: str) -> None:
    """CSV with one documented header row and deterministic row order."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _entry(cfg, key: str):
    """Config entry that must be present and not null."""
    if cfg.get(key) is None:
        raise QopError(f"config is missing {key!r}")
    return cfg[key]


_REQUIRED = object()


def _number(cfg, key: str, kind, default=_REQUIRED):
    """Config entry as kind (int or float), by mathcore.config_number; absent is bad input."""
    if default is _REQUIRED and key not in cfg:
        raise QopError(f"config is missing {key!r}")
    return config_number(cfg.get(key, default), kind, f"config entry {key!r}")


def _flag(cfg, key: str, default: bool) -> bool:
    """Config entry that must be JSON true or false when present."""
    raw = cfg.get(key, default)
    if isinstance(raw, bool):
        return raw
    raise QopError(f"config entry {key!r} must be true or false, got {json.dumps(raw)}")


def _integers(cfg, key: str, count=None) -> list[int]:
    """Config entry that must be a list of integers, of count entries when given."""
    raw = cfg.get(key)
    if isinstance(raw, list) and count in (None, len(raw)):
        try:
            return [config_number(v, int, key) for v in raw]
        except QopError:
            pass
    what = "a list of integers" if count is None else f"a list of {count} integers"
    raise QopError(f"config entry {key!r} must be {what}, got {json.dumps(raw)}")


def _schedule(raw) -> qmp.HalpernSchedule:
    """Damping schedule from its config object; keys must name HalpernSchedule fields.

    alpha is a field but cancels out of the iteration, so a config that sets it is refused.
    """
    known = [f.name for f in dataclasses.fields(qmp.HalpernSchedule) if f.name != "alpha"]
    if isinstance(raw, dict) and "alpha" in raw:
        raise QopError("'schedule' key 'alpha' has no effect on the damped iteration; remove it")
    if not isinstance(raw, dict) or not set(raw) <= set(known):
        raise QopError(f"'schedule' must be an object with keys among {known}, got {json.dumps(raw)}")
    return qmp.HalpernSchedule(**{k: _number(raw, k, float) for k in raw})


@click.group()
def main():
    """Estimation, Bell-gap, and marginal-problem batch runs."""


@dataclasses.dataclass(frozen=True)
class _Run:
    """What a command body may use besides its config."""

    base_dir: str  # directory of the config file; relative references resolve against it
    out_dir: str
    seed: int


# every top-level key each command reads; any other key is a typo and exits 1
_CONFIG_KEYS: dict[str, frozenset] = {}


def _command(name: str, keys):
    """Register body(cfg, run) -> (exit code, result, run_info extras) as subcommand `name`.

    The body's docstring is the --help text and `keys` the config keys it
    reads.  The subcommand loads and checks the config, calls the body,
    stamps `command` and `seed` into result.json and writes run_info.json;
    a QopError or unreadable input becomes one `error:` line and exit 1.
    """

    def register(body):
        known = _CONFIG_KEYS[name] = frozenset(keys)

        @main.command(name=name, help=body.__doc__)
        # existence is checked at open time so a missing file exits 1, not
        # click's usage-error 2, which is reserved for the iteration cap
        @click.option("--config", "config_path", required=True,
                      type=click.Path(dir_okay=False), help="JSON run configuration.")
        @click.option("--out", "out_dir", default=".", show_default=True,
                      type=click.Path(file_okay=False), help="Output directory.")
        @click.option("--seed", default=0, type=click.IntRange(0, 2**64 - 1),
                      show_default=True, help="Seed for every random draw in the run.")
        @click.option("--threads", default=1, type=click.IntRange(min=1), show_default=True,
                      help="Recorded in run_info.json; no command runs worker threads.")
        def command(config_path, out_dir, seed, threads):
            started = time.time()
            os.makedirs(out_dir, exist_ok=True)
            try:
                cfg = _load_json(config_path)
                if not isinstance(cfg, dict):
                    raise QopError("config must be a JSON object")
                unknown = sorted(set(cfg) - known)
                if unknown:
                    raise QopError(f"unknown config key(s) for {name}: "
                                   f"{', '.join(map(repr, unknown))}; known keys: "
                                   f"{', '.join(sorted(known))}")
                click.echo(f"{name}: seed={seed} config={config_path}", err=True)
                run = _Run(os.path.dirname(os.path.abspath(config_path)), out_dir, seed)
                code, result, extra = body(cfg, run)
                result["command"] = name
                result["seed"] = seed
                write_started = time.perf_counter()
                _write_json(os.path.join(out_dir, "result.json"), result)
                write_seconds = time.perf_counter() - write_started
                _write_json(os.path.join(out_dir, "run_info.json"), {
                    "command": name,
                    "config": os.path.abspath(config_path),
                    "seed": seed,
                    "threads": threads,
                    "started_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
                    "finished_utc": datetime.now(timezone.utc).isoformat(),
                    "runtime_seconds": time.time() - started,
                    "write_seconds": write_seconds,
                    "version": __version__,
                    **extra,
                })
            except (QopError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_INPUT_ERROR)
            click.echo(f"{name}: done in {time.time() - started:.2f}s", err=True)
            sys.exit(code)

        return body

    return register


@_command("qse-estimate", {"measurements", "frequencies", "epsilon", "max_iters", "reference",
                           "dump_state"})
def qse_estimate(cfg, run):
    """Reconstruct a state from measured frequencies."""
    dump_state = _flag(cfg, "dump_state", True)
    problem, reference = qse.estimation_problem_from_dict(cfg, base_dir=run.base_dir)
    res = qse.estimate(problem)
    result = {
        "converged": res.converged,
        "iterations": res.iterations,
        "residual": res.residual,
        "fidelity": None if reference is None else fidelity(res.state, reference),
    }
    if dump_state:
        result["state"] = res.state.matrix
    return (EXIT_OK if res.converged else EXIT_NOT_CONVERGED), result, {}


@_command("qse-benchmark", {"protocol", "qubits", "trials", "white_noise", "samples_factor"})
def qse_benchmark(cfg, run):
    """Mean reconstruction fidelity over randomized noisy trials."""
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
        rng=run.seed,
        white_noise=result["white_noise"],
        samples_factor=result["samples_factor"],
    )
    timings = {key: stats.pop(key) for key in ("protocol_seconds", "trials_seconds")}
    result.update(stats)
    click.echo(f"{result['mean_fidelity']:.6f}")
    return EXIT_OK, result, timings


@_command("bell-lhv", {"inequality"})
def bell_lhv(cfg, run):
    """Exact local-hidden-variable bound of an inequality."""
    ineq = load_ref(_entry(cfg, "inequality"), run.base_dir, bell.inequality_from_dict)
    bound = bell.lhv_bound(ineq)
    click.echo(f"{bound:g}")
    return EXIT_OK, {"bound": bound}, {}


@_command("bell-optimize", {"counts", "trials"})
def bell_optimize(cfg, run):
    """Search for the inequality with the largest quantum/classical gap."""
    counts = load_ref(_entry(cfg, "counts"), run.base_dir, bell.counts_from_dict)
    res = bell.maximize_gap(counts, trials=_number(cfg, "trials", int, 20), rng=run.seed)
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
    ineq = res.inequality
    search = {
        "lp_rounds": res.rounds,
        "norm_cuts": res.rounds - 1,
        "upper_bound": res.upper_bound,
        "certificate_gap": res.upper_bound - res.ratio,
        "round_cap_hit": res.round_cap_hit,
        "zero_inequality": not (ineq.joint.any() or ineq.marg_a.any() or ineq.marg_b.any()),
        "lp_seconds": res.lp_seconds,
        "first_lp_seconds": res.first_lp_seconds,
        "stabilized_cuts": res.stabilized_cuts,
    }
    if search["round_cap_hit"]:
        click.echo(f"gap search ran all {bell.GAP_ROUND_CAP} LP rounds; "
                   f"certificate gap {search['certificate_gap']:.3g}", err=True)
    if search["zero_inequality"]:
        click.echo("no inequality beats ratio 1; returning the zero inequality", err=True)
    return EXIT_OK, result, search


@_command("bell-efficiency", {"inequality", "behavior", "counts", "mode"})
def bell_efficiency(cfg, run):
    """Critical detection efficiency for a behavior to keep violating."""
    ineq = load_ref(_entry(cfg, "inequality"), run.base_dir, bell.inequality_from_dict)
    if "behavior" in cfg:
        behavior = load_ref(_entry(cfg, "behavior"), run.base_dir, bell.behavior_from_dict)
    else:
        behavior = load_ref(_entry(cfg, "counts"), run.base_dir, bell.counts_from_dict).behavior()
    mode = cfg.get("mode", "symmetric")
    try:
        eta = bell.efficiency_threshold(ineq, behavior, mode=mode)
        result = {"mode": mode, "threshold": eta, "violated_at_any_efficiency": True}
        click.echo(f"{eta:g}")
    except NotViolatedAtAnyEfficiency:
        result = {"mode": mode, "threshold": None, "violated_at_any_efficiency": False}
        click.echo("none")
    return EXIT_OK, result, {}


@_command("qmp-solve", {"N", "d", "targets", "constraint", "accuracy", "max_iterations",
                        "identity_seed", "schedule", "dump_state"})
def qmp_solve(cfg, run):
    """Find a global state with prescribed marginals and spectrum."""
    dump_state = _flag(cfg, "dump_state", True)
    spec, constraint = qmp.problem_from_dict(cfg, base_dir=run.base_dir)
    kwargs = dict(
        accuracy=_number(cfg, "accuracy", float, 1e-6),
        max_iterations=_number(cfg, "max_iterations", int, 50000),
        rng=run.seed,
        identity_seed=_flag(cfg, "identity_seed", False),
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
        # the trajectory up to the failure is still written; _command reports the error
        (state, report), degenerate = exc.result, exc
    if report.eigh_fallbacks:
        click.echo(f"{report.eigh_fallbacks} of "
                   f"{report.eigh_fallbacks + report.warm_eigensteps} warm top-"
                   f"{constraint.rank} eigensteps were rejected and ran a full eigh", err=True)
    emit_plot_data(report.trajectory_rows(), "n,marginal_dist,spectral_dist,total_dist",
                   os.path.join(run.out_dir, "trajectory.csv"))
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
    if dump_state:
        result["state"] = state.matrix
    click.echo(f"{report.total_dist[-1]:.3e}")
    return code, result, {
        "solver_runtime_seconds": report.runtime,
        "warm_eigensteps": report.warm_eigensteps,
        "eigh_fallbacks": report.eigh_fallbacks,
    }


@_command("qmp-sweep", {"N", "k", "d", "generator", "trials", "m_range", "m_values"})
def qmp_sweep(cfg, run):
    """Count PSD outcomes of random marginal impositions."""
    if cfg.get("m_values") is None:
        lo, hi = _integers(cfg, "m_range", 2)
        m_values = range(lo, hi + 1)
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
        rng=run.seed,
    )
    emit_plot_data(table, "m,psd_count", os.path.join(run.out_dir, "sweep.csv"))
    for m, count in table:
        click.echo(f"{m} {count}")
    result["table"] = [[int(m), int(c)] for m, c in table]
    return EXIT_OK, result, {}


if __name__ == "__main__":
    main()
