"""Time the damped marginal solve on AME(4,d) and record it in BENCH_qmp_scaling.json.

Each local dimension d runs in a fresh child process, so that its peak
RSS is its own.  The child runs `qmp-solve` in process on the bundled
configs/qmp_solve_ame44_slow.json (every two-body reduction of four
parties maximally mixed, rank 1, damped with mu 0.05) with its d
replaced and a fixed budget of --iterations iterations, which these
solves use up (exit code 2).  A row holds the median milliseconds per
marginal sweep (each call of the solver's sweep, timed around it), the
solver's milliseconds per iteration (sweep, eigenstep and distance),
the seconds spent writing result.json (its run_info write_seconds) and
its size, the child's peak RSS and the final total distance, which two
checkouts running the same iteration give alike up to rounding.

--src picks the qoptools source tree to import, so the same script and
the same seed time another checkout, e.g. the parent commit's:

    OPENBLAS_NUM_THREADS=1 python scripts/qmp_scaling.py --out BENCH_qmp_scaling.json
    OPENBLAS_NUM_THREADS=1 python scripts/qmp_scaling.py --label dense-momentum \
        --src ../parent/src --out BENCH_qmp_scaling.json

One JSON line per d goes to stdout.  With --out, the rows replace the
entry under --label in that file, other labels are kept, and the
machine description is rewritten.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from bell_scaling import ROOT, _merge

MU = 0.05


def _row(d: int, iterations: int, seed: int) -> dict:
    """One local dimension, run in this process."""
    from qoptools import cli, qmp

    sweep_seconds = []
    iterate = qmp._iterate

    def timed_iterate(*args):
        *head, sweep = args

        def timed(*sweep_args):
            started = time.perf_counter()
            out = sweep(*sweep_args)
            sweep_seconds.append(time.perf_counter() - started)
            return out

        return iterate(*head, timed)

    qmp._iterate = timed_iterate
    with open(os.path.join(ROOT, "configs", "qmp_solve_ame44_slow.json")) as fh:
        config = json.load(fh)
    config.update(d=d, max_iterations=iterations, schedule={"mu": MU})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        out = os.path.join(tmp, "out")
        try:
            cli.main(["qmp-solve", "--config", path, "--out", out, "--seed", str(seed)],
                     standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        with open(os.path.join(out, "run_info.json")) as fh:
            info = json.load(fh)
        with open(os.path.join(out, "trajectory.csv")) as fh:
            last = fh.read().splitlines()[-1].split(",")
        result_bytes = os.path.getsize(os.path.join(out, "result.json"))
    return {
        "d": d,
        "dim": d**4,
        "exit_code": code,
        "iterations": int(last[0]),
        "sweep_ms": 1e3 * statistics.median(sweep_seconds),
        "iteration_ms": 1e3 * info["solver_runtime_seconds"] / int(last[0]),
        "write_seconds": info["write_seconds"],
        "result_bytes": result_bytes,
        "peak_rss_mb": peak_rss_mb,
        "total_dist": float(last[3]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the qoptools package to time")
    parser.add_argument("--label", default="block-momentum", help="key of these rows in --out")
    parser.add_argument("--sizes", nargs="+", type=int, default=[3, 4, 5],
                        help="local dimensions d of AME(4,d) to time")
    parser.add_argument("--iterations", type=int, default=10, help="iteration budget per size")
    parser.add_argument("--seed", type=int, default=1, help="--seed of every qmp-solve run")
    parser.add_argument("--out", help="JSON file to merge the rows into")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.iterations < 1:
        parser.error("--iterations must be positive")

    if args.child is not None:
        sys.path.insert(0, os.path.abspath(args.src))
        print(json.dumps(_row(args.child, args.iterations, args.seed)), flush=True)
        return 0

    rows = []
    for d in args.sizes:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--src", args.src, "--seed", str(args.seed),
             "--iterations", str(args.iterations), "--child", str(d)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        row = json.loads(proc.stdout.splitlines()[-1])
        print(json.dumps(row), flush=True)
        rows.append(row)

    if args.out:
        entry = {"iterations": args.iterations, "seed": args.seed, "rows": rows}
        _merge(args.out, args.label, entry,
               f"qmp-solve on configs/qmp_solve_ame44_slow.json with d replaced (AME(4,d): every "
               f"two-body reduction maximally mixed, rank 1, damped with mu {MU:g}), a fixed "
               f"budget of iterations and --seed as given, one child process per d; sweep_ms is "
               f"the median over the sweeps, iteration_ms the solver runtime per iteration and "
               f"write_seconds the run_info write_seconds of result.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
