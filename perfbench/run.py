"""Benchmark of the qoptools CLI, end to end and layer by layer.

Runs one workload (or all of them) through ``qoptools.cli:main``
in-process, checks every output, and prints one JSON object as the last
line of stdout:

    python3 perfbench/run.py --workload qmp-ame44-damped --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

--trace 0 reports the end-to-end metrics with no instrumentation.
--trace 1 runs the same invocations twice, untraced and then with every
function in layers.json wrapped, and reports the per-layer metrics and
the tracing overhead.  The package is imported from ./src of the
checkout this file sits in; nothing needs installing.

Everything the run writes goes under .bench_work/ at the checkout root:
per run a results.json (metrics, checks, every invocation with its exit
code, wall time and result.json sha256) and an env.json, plus
result_hashes.json, which maps (sources, command, inputs, seed) to the
sha256 of result.json so that a later run set giving another hash for
the same invocation counts as a failure.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread, set before numpy is first imported.  On a host of two
# shared cores a second BLAS thread stalls whenever the other core is
# busy.  A qmp-ame44-damped invocation on a two-vCPU Xeon VM took 1.28 s
# with one BLAS thread and 1.46 s with two; with a busy loop on the other
# core it took 1.85 s and 2.58 s.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
HASHES = os.path.join(WORK, "result_hashes.json")
THREADS = 2
# set-up is timed this many times per run (this process plus fresh child
# processes) and the median reported, because one import is a noisy sample
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def _workloads_module():
    """Import qoptools from ./src of this checkout, and the workloads built on it."""
    if not os.path.isfile(os.path.join(SRC, "qoptools", "__init__.py")):
        raise BenchError(f"no qoptools sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qoptools.cli  # noqa: F401  (the import is part of what set-up time measures)
    import workloads

    return workloads


def _setup(workload_name: str, seed: int, inputs: str):
    """Import qoptools and write the workload's inputs; return (seconds, workload, warm-up, invocations)."""
    t0 = time.perf_counter()
    workloads = _workloads_module()
    if workload_name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload_name!r}; have {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[workload_name](ROOT)
    os.makedirs(inputs, exist_ok=True)
    warmup, invocations = workload.prepare(seed, inputs)
    return time.perf_counter() - t0, workload, warmup, invocations


def _setup_child_seconds(workload_name: str, seed: int, k: int) -> float:
    inputs = os.path.join(WORK, workload_name, f"setup-{os.getpid()}-{k}")
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child", inputs,
           "--workload", workload_name, "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _invoke(cli_main, inv, out_dir: str, tracer=None) -> dict:
    """One CLI invocation, timed from argument parsing to result.json written."""
    argv = [inv.command, "--config", inv.config, "--out", out_dir,
            "--seed", str(inv.seed), "--threads", str(THREADS)]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            if tracer is None:
                cli_main(argv, standalone_mode=False)
            else:
                tracer.span("cli.main", cli_main, argv, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            code, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    return {"inv": inv, "out": out_dir, "code": code, "wall_s": wall, "error": error,
            "stderr_tail": stderr.getvalue()[-300:]}


def _timed_pass(cli_main, invocations, out_root: str, seconds: float, tracer=None,
                count: int | None = None) -> list[dict]:
    """Invoke in order, at least once, for about `seconds` (or exactly `count` times).

    The next invocation starts only if, at the mean length so far, it
    would end less than half an invocation past the budget, so a run
    of a few long invocations neither stops well short of nor runs far
    past its time.
    """
    records = []
    start = time.perf_counter()
    while True:
        i = len(records)
        out_dir = os.path.join(out_root, str(i))
        records.append(_invoke(cli_main, invocations[i % len(invocations)], out_dir, tracer))
        elapsed = time.perf_counter() - start
        if count is not None:
            if len(records) >= count:
                break
        elif elapsed + 0.5 * elapsed / len(records) >= seconds:
            break
    return records


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _source_digest(env: dict) -> str:
    """Digest of what fixes result.json besides inputs and seed: the sources and numerical stack.

    BLAS thread counts are in it because threaded reductions can change
    the last bits of a result.
    """
    h = hashlib.sha256(json.dumps(
        [env["python"], env["numpy"], env["scipy"], env["blas_libraries"]], sort_keys=True
    ).encode())
    pkg = os.path.join(SRC, "qoptools")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            h.update(open(os.path.join(pkg, name), "rb").read())
    return h.hexdigest()


def _hash_key(source: str, inv) -> str:
    h = hashlib.sha256()
    for path in inv.inputs:
        h.update(open(path, "rb").read())
    return f"{source[:16]}:{inv.command}:{h.hexdigest()[:16]}:{inv.seed}"


def _load_hashes() -> dict:
    try:
        with open(HASHES) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _save_hashes(hashes: dict) -> None:
    tmp = f"{HASHES}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(hashes, fh, sort_keys=True, indent=1)
    os.replace(tmp, HASHES)


def _verify(workload, records, hashes: dict, source: str) -> None:
    """Fill in each record's result, sha256 and failures; then drop its output directory."""
    for rec in records:
        inv = rec["inv"]
        path = os.path.join(rec["out"], "result.json")
        result = None
        if os.path.isfile(path):
            rec["sha256"] = _sha256_file(path)
            with open(path) as fh:
                result = json.load(fh)
        fails = [f"raised: {rec['error'].strip().splitlines()[-1]}"] if rec["error"] else []
        try:
            fails += workload.verify(inv, rec["code"], result)
        except (KeyError, TypeError, ValueError) as exc:
            fails.append(f"malformed result.json: {exc!r}")
        if "sha256" in rec:
            key = _hash_key(source, inv)
            seen = hashes.setdefault(key, rec["sha256"])
            if seen != rec["sha256"]:
                fails.append(f"result.json sha256 {rec['sha256'][:12]} differs from "
                             f"{seen[:12]} of an earlier run of the same invocation")
        rec["iterations"] = workload.iterations(result) if result and not fails else 0.0
        rec["failures"] = fails
        shutil.rmtree(rec["out"], ignore_errors=True)


def _blas_libraries() -> list[dict]:
    """The OpenBLAS builds numpy and scipy load, with their thread counts."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            entry = {"package": pkg.__name__, "library": os.path.basename(path)}
            try:
                lib = ctypes.CDLL(path)
                for suffix in ("64_", ""):
                    getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                    config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                    if getter is not None and config is not None:
                        config.restype = ctypes.c_char_p
                        entry["threads"] = int(getter())
                        entry["config"] = config().decode()
                        break
            except OSError as exc:
                entry["error"] = str(exc)
            found.append(entry)
    return found


def _environment(seed: int) -> dict:
    from importlib import metadata

    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": metadata.version("click"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_libraries": _blas_libraries(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "threads_flag": THREADS,
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = os.path.join(WORK, name, f"seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = os.path.join(run_dir, "inputs")
    own_setup_s, workload, warmup, invocations = _setup(name, seed, inputs)
    setup_samples = [own_setup_s] + [
        _setup_child_seconds(name, seed, k) for k in range(1, SETUP_SAMPLES)
    ]

    from qoptools import bell, cli, qmp, qse

    import tracing

    env = _environment(seed)
    source = _source_digest(env)
    hashes = _load_hashes()
    out_root = os.path.join(run_dir, "out")
    _invoke(cli.main, warmup, os.path.join(out_root, "warmup"))

    if not trace:
        passes = {"untraced": _timed_pass(cli.main, invocations, os.path.join(out_root, "u"),
                                           seconds)}
    else:
        layers = tracing.load_layers()
        untraced = _timed_pass(cli.main, invocations, os.path.join(out_root, "u"), seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer, {"qmp": qmp, "qse": qse, "bell": bell, "cli": cli}, layers)
        try:
            traced = _timed_pass(cli.main, invocations, os.path.join(out_root, "t"), 0, tracer,
                                 count=len(untraced))
        finally:
            tracer.unwrap()
        passes = {"untraced": untraced, "traced": traced}
    for records in passes.values():
        _verify(workload, records, hashes, source)
    shutil.rmtree(out_root, ignore_errors=True)
    _save_hashes(hashes)

    all_records = [r for records in passes.values() for r in records]
    attempted = len(all_records)
    failed = sum(1 for r in all_records if r["failures"])
    problems = []
    untraced = passes["untraced"]
    if not trace:
        # totals over the whole run: a shared host slows stretches of
        # several seconds, and a run's mean over all its invocations moved
        # less between runs of the same code than their median did
        wall = sum(r["wall_s"] for r in untraced)
        metrics = {
            "wall_s": _metric(wall / len(untraced), "s"),
            "iters_per_s": _metric(sum(r["iterations"] for r in untraced) / wall, "1/s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": _metric(statistics.median(setup_samples), "s"),
        }
    else:
        wall = sum(r["wall_s"] for r in untraced)
        traced_wall = sum(r["wall_s"] for r in passes["traced"])
        qmp_iterations = sum(r["iterations"] for r in passes["traced"]
                             if r["inv"].command == "qmp-solve")
        metrics = tracing.layer_metrics(tracer, layers, traced_wall, wall, int(qmp_iterations))
        problems = tracer.accounting_errors()
        if tracer.missing:
            print(f"trace: not found, reported as zero: {', '.join(tracer.missing)}",
                  file=sys.stderr)
        _write(os.path.join(run_dir, "trace.json"), {
            "missing": tracer.missing, "edges": tracer.edge_table(),
            "accounting_errors": problems,
        })

    _write(os.path.join(run_dir, "env.json"), env)
    _write(os.path.join(run_dir, "results.json"), {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "setup_samples_s": setup_samples,
        "metrics": metrics, "environment": env,
        "checks": [{"name": c.name, "tolerance": c.tolerance, "reason": c.reason}
                   for c in workload.checks],
        "invocations": [
            {"pass": label, "command": r["inv"].command, "config": os.path.relpath(r["inv"].config, ROOT),
             "seed": r["inv"].seed, "code": r["code"], "wall_s": r["wall_s"],
             "iterations": r["iterations"], "sha256": r.get("sha256"), "failures": r["failures"]}
            for label, records in passes.items() for r in records
        ],
    })
    for r in all_records:
        for msg in r["failures"]:
            print(f"FAILED {name} seed={r['inv'].seed}: {msg}", file=sys.stderr)
        if r["failures"]:
            print(r["error"] or r["stderr_tail"], file=sys.stderr)
    for msg in problems:
        print(f"trace accounting: {msg}", file=sys.stderr)
    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _write(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, default=str)
        fh.write("\n")


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process (peak RSS is per process), then one table."""
    workloads = _workloads_module()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 3)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']} "
              f"(failed_frac {res['failed'] / res['attempted']:.3f})")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
            summary["metrics"][f"{name}.{metric}"] = m
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_child:
            seconds = _setup(args.workload, args.seed, args.setup_child)[0]
            print(repr(seconds))
            return 0
        os.makedirs(WORK, exist_ok=True)
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            for metric, m in result["metrics"].items():
                print(f"{metric} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
