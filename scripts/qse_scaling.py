"""Time Pauli-protocol state estimation at growing qubit counts and record it in BENCH_qse_scaling.json.

Each qubit count n runs in a fresh child process, so that its peak RSS
is its own.  The child builds measurement_protocol(n, "pauli") and runs
--trials trials of the qse-benchmark recipe (qse.run_benchmark): trial t
draws from the stream seeded t a random full-rank n-qubit state, then
its frequencies at white noise 0.1 and 100 * 2^n Poisson samples per
basis, which are estimated with the default accuracy.  A row holds the
seconds spent building the protocol, the median seconds per trial of
simulate_frequencies and of estimate, the child's peak RSS and the mean
fidelity of the estimates to their states.

--src picks the qoptools source tree to import, so the same script and
the same seeds time another checkout, e.g. the parent commit's:

    OPENBLAS_NUM_THREADS=1 python scripts/qse_scaling.py --label flat --qubits 3 4 5 6 7 8
    OPENBLAS_NUM_THREADS=1 python scripts/qse_scaling.py --label per-set --src ../parent/src

One JSON line per qubit count goes to stdout.  With --out, the rows
replace the entry under --label in that file, other labels are kept,
and the machine description is rewritten.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from bell_scaling import ROOT, _merge

WHITE_NOISE = 0.1
SAMPLES_FACTOR = 100


def _row(n: int, trials: int) -> dict:
    """One qubit count, timed in this process."""
    from qoptools import qse
    from qoptools.mathcore import as_rng, fidelity, random_mixed_state

    started = time.perf_counter()
    measurements = qse.measurement_protocol(n, "pauli")
    protocol_seconds = time.perf_counter() - started
    noise = qse.NoiseModel(WHITE_NOISE, SAMPLES_FACTOR * 2**n)
    simulate, estimate, fidelities = [], [], []
    for t in range(trials):
        trial_rng = as_rng(t)
        rho = random_mixed_state([2] * n, trial_rng)
        started = time.perf_counter()
        freqs = qse.simulate_frequencies(rho, measurements, noise, trial_rng)
        simulated = time.perf_counter()
        result = qse.estimate(qse.EstimationProblem(tuple(measurements), tuple(freqs)))
        simulate.append(simulated - started)
        estimate.append(time.perf_counter() - simulated)
        fidelities.append(fidelity(result.state, rho))
    return {
        "n_qubits": n,
        "bases": len(measurements),
        "protocol_seconds": protocol_seconds,
        "simulate_seconds": statistics.median(simulate),
        "estimate_seconds": statistics.median(estimate),
        "simulate_runs_seconds": simulate,
        "estimate_runs_seconds": estimate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mean_fidelity": statistics.fmean(fidelities),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the qoptools package to time")
    parser.add_argument("--label", default="flat", help="key of these rows in --out")
    parser.add_argument("--qubits", nargs="+", type=int, default=[3, 4, 5, 6, 7, 8],
                        help="qubit counts to time")
    parser.add_argument("--trials", type=int, default=5, help="trials per qubit count")
    parser.add_argument("--out", help="JSON file to merge the rows into")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be positive")

    if args.child is not None:
        sys.path.insert(0, os.path.abspath(args.src))
        print(json.dumps(_row(args.child, args.trials)), flush=True)
        return 0

    rows = []
    for n in args.qubits:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--src", args.src,
             "--trials", str(args.trials), "--child", str(n)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        row = json.loads(proc.stdout.splitlines()[-1])
        print(json.dumps(row), flush=True)
        rows.append(row)

    if args.out:
        _merge(args.out, args.label, {"trials": args.trials, "rows": rows},
               f"Pauli protocol on n qubits, one child process per n; trial t draws a random "
               f"full-rank state and its frequencies (white noise {WHITE_NOISE:g}, "
               f"{SAMPLES_FACTOR} * 2^n Poisson samples per basis) from the stream seeded t, "
               f"and estimates at the default accuracy; simulate_seconds and estimate_seconds "
               f"are medians over the trials")
    return 0


if __name__ == "__main__":
    sys.exit(main())
