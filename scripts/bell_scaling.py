"""Time the Bell gap search at growing (m, d) and record it in BENCH_bell_scaling.json.

The counts follow the bell-m4d2 recipe of perfbench/workloads.py: a
maximally entangled pair of d-level systems, m random bases per party
drawn from seed 3, and Poisson counts with mean 1e6 per setting drawn
from seed 0; at (4, 2) they are perfbench's counts_0.json at seed 0.
Each size is searched --repeats times after one small warm-up search,
which pays the scipy import.

--src picks the qoptools source trees to import, with one --label each,
so the same script and the same counts time other checkouts, e.g. the
parent commit's.  With several trees, their searches alternate one by
one, in turns that swap which tree goes first, so that every label is
timed in the same machine state; each tree is imported under its own
package name, so all of them load in this one process:

    python scripts/bell_scaling.py --label in-out --sizes 4,2 4,3 5,3 6,3 5,4
    python scripts/bell_scaling.py --label in-out lifted --src src ../parent/src --sizes 4,2 4,3

One JSON line per label and size goes to stdout.  With --out, each
label's rows replace that label's rows of the same sizes in that file;
other sizes and labels are kept, so sizes can be timed with different
--repeats, and the machine description is rewritten.  The exit
status is 1 when a search hit the round cap or stopped with a
certificate gap above GAP_TOL, once every row is printed and written.
"""
from __future__ import annotations

import argparse
import importlib.util
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


def _merge(path: str, label: str, new_rows: list, recipe: str) -> None:
    """Put new_rows under label in the JSON report at path, keeping its other labels.

    new_rows replace the label's rows of the same (m, d); its other rows
    are kept, and rows are sorted by (d, m).  The recipe and the machine
    description are rewritten.
    """
    try:
        with open(path) as fh:
            report = json.load(fh)
    except FileNotFoundError:
        report = {"forms": {}}
    report["recipe"] = recipe
    report["machine"] = _machine()
    rows = {(row["m"], row["d"]): row for row in report["forms"].get(label, {}).get("rows", [])}
    rows.update(((row["m"], row["d"]), row) for row in new_rows)
    report["forms"][label] = {"rows": [rows[k] for k in sorted(rows, key=lambda k: k[::-1])]}
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _bell_module(src: str, name: str):
    """The bell module of the qoptools package under src, imported as package `name`."""
    package_dir = os.path.join(os.path.abspath(src), "qoptools")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package_dir, "__init__.py"), submodule_search_locations=[package_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package.bell


def _counts(bell, m: int, d: int):
    import numpy as np

    def random_pvm(rng):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        return bell.MeasurementSet([np.outer(u[:, k], u[:, k].conj()) for k in range(d)], "pvm")

    basis_rng = np.random.default_rng(BASES_SEED)
    alice = [random_pvm(basis_rng) for _ in range(m)]
    bob = [random_pvm(basis_rng) for _ in range(m)]
    psi = np.eye(d).ravel() / math.sqrt(d)
    state = bell.QuantumState(np.outer(psi, psi), (d, d))
    behavior = bell.behavior_from_state(state, alice, bob)
    return bell.CountsTable.sample(behavior, PER_SETTING, np.random.default_rng(COUNTS_SEED))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", nargs="+", default=[os.path.join(ROOT, "src")],
                        help="directories holding the qoptools packages to time")
    parser.add_argument("--label", nargs="+", default=["in-out"],
                        help="key of each --src tree's rows in --out")
    parser.add_argument("--sizes", nargs="+", type=_size, default=[(4, 2), (4, 3)],
                        help="m,d pairs to search")
    parser.add_argument("--repeats", type=int, default=1, help="searches per size and tree")
    parser.add_argument("--out", help="JSON file to merge the rows into")
    args = parser.parse_args(argv)
    if len(args.label) != len(args.src):
        parser.error(f"{len(args.src)} --src trees need as many labels, got {len(args.label)}")

    trees = [_bell_module(src, f"qoptools_{k}") for k, src in enumerate(args.src)]
    for bell in trees:
        bell.maximize_gap(_counts(bell, 2, 2))  # warm-up: imports scipy
    rows = {label: [] for label in args.label}
    uncertified = []
    for m, d in args.sizes:
        counts = [_counts(bell, m, d) for bell in trees]
        seconds = [[] for _ in trees]
        results = [[] for _ in trees]
        for turn in range(args.repeats):
            order = range(len(trees)) if turn % 2 == 0 else reversed(range(len(trees)))
            for k in order:
                started = time.perf_counter()
                results[k].append(trees[k].maximize_gap(counts[k]))
                seconds[k].append(time.perf_counter() - started)
        for k, label in enumerate(args.label):
            res = results[k][-1]
            row = {
                "m": m,
                "d": d,
                "seconds": statistics.median(seconds[k]),
                "runs_seconds": seconds[k],
                "lp_seconds": statistics.median(r.lp_seconds for r in results[k]),
                "rounds": res.rounds,
                "round_cap_hit": res.round_cap_hit,
                "certificate_gap": res.upper_bound - res.ratio,
                "ratio": res.ratio,
            }
            if hasattr(res, "first_lp_seconds"):  # trees before the in-out norm cuts report neither
                row["first_lp_seconds"] = statistics.median(r.first_lp_seconds for r in results[k])
                row["stabilized_cuts"] = res.stabilized_cuts
            print(json.dumps({"label": label, **row}), flush=True)
            rows[label].append(row)
            if res.round_cap_hit or row["certificate_gap"] > trees[k].GAP_TOL:
                uncertified.append((label, m, d))

    if args.out:
        for label, label_rows in rows.items():
            _merge(args.out, label, label_rows,
                   f"maximally entangled d-level pair, m random bases per party from seed "
                   f"{BASES_SEED}, Poisson counts with mean {PER_SETTING:g} per setting from "
                   f"seed {COUNTS_SEED}; seconds is the median of runs_seconds, the row's "
                   f"repeats of maximize_gap, after a warm-up search; forms timed together "
                   f"took turns search by search")
    if uncertified:
        print(f"not certified within GAP_TOL: {uncertified}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
