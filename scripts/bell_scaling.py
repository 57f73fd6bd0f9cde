"""Time the Bell gap search at growing (m, d) and record it in BENCH_bell_scaling.json.

The counts follow the bell-m4d2 recipe of perfbench/workloads.py: a
maximally entangled pair of d-level systems, m random bases per party
drawn from seed 3, and Poisson counts with mean 1e6 per setting drawn
from seed 0; at (4, 2) they are perfbench's counts_0.json at seed 0.
Each size is searched --repeats times after one small warm-up search,
which pays the scipy import.

--src picks the qoptools source tree to import, so the same script and
the same counts time another checkout, e.g. the parent commit's:

    python scripts/bell_scaling.py --label lifted --sizes 4,2 4,3 5,3 6,3 5,4
    python scripts/bell_scaling.py --label dense --src ../parent/src --sizes 4,2 4,3 5,3

One JSON line per size goes to stdout.  With --out, the rows replace
the entry under --label in that file, other labels are kept, and the
machine description is rewritten.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASES_SEED = 3
COUNTS_SEED = 0
PER_SETTING = 1e6


def _size(text: str) -> tuple[int, int]:
    m, d = (int(v) for v in text.split(","))
    return m, d


def _machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _counts(bell, m: int, d: int):
    import numpy as np

    from qoptools.mathcore import MeasurementSet, QuantumState

    def random_pvm(rng):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        return MeasurementSet([np.outer(u[:, k], u[:, k].conj()) for k in range(d)], "pvm")

    basis_rng = np.random.default_rng(BASES_SEED)
    alice = [random_pvm(basis_rng) for _ in range(m)]
    bob = [random_pvm(basis_rng) for _ in range(m)]
    psi = np.eye(d).ravel() / math.sqrt(d)
    behavior = bell.behavior_from_state(QuantumState(np.outer(psi, psi), (d, d)), alice, bob)
    return bell.CountsTable.sample(behavior, PER_SETTING, np.random.default_rng(COUNTS_SEED))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the qoptools package to time")
    parser.add_argument("--label", default="lifted", help="key of these rows in --out")
    parser.add_argument("--sizes", nargs="+", type=_size, default=[(4, 2), (4, 3)],
                        help="m,d pairs to search")
    parser.add_argument("--repeats", type=int, default=1, help="searches per size")
    parser.add_argument("--out", help="JSON file to merge the rows into")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    from qoptools import bell

    bell.maximize_gap(_counts(bell, 2, 2))  # warm-up: imports scipy
    rows = []
    for m, d in args.sizes:
        counts = _counts(bell, m, d)
        seconds, results = [], []
        for _ in range(args.repeats):
            started = time.perf_counter()
            results.append(bell.maximize_gap(counts))
            seconds.append(time.perf_counter() - started)
        res = results[-1]
        row = {
            "m": m,
            "d": d,
            "seconds": statistics.median(seconds),
            "runs_seconds": seconds,
            "lp_seconds": statistics.median(r.lp_seconds for r in results),
            "rounds": res.rounds,
            "round_cap_hit": res.round_cap_hit,
            "certificate_gap": res.upper_bound - res.ratio,
            "ratio": res.ratio,
        }
        print(json.dumps(row), flush=True)
        rows.append(row)

    if args.out:
        try:
            with open(args.out) as fh:
                report = json.load(fh)
        except FileNotFoundError:
            report = {"forms": {}}
        report["recipe"] = (f"maximally entangled d-level pair, m random bases per party from seed "
                            f"{BASES_SEED}, Poisson counts with mean {PER_SETTING:g} per setting "
                            f"from seed {COUNTS_SEED}; seconds is the median of the form's repeats "
                            f"of maximize_gap, after a warm-up search")
        report["machine"] = _machine()
        report["forms"][args.label] = {"repeats": args.repeats, "rows": rows}
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
