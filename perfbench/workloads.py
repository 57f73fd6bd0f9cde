"""The three benchmark workloads: their inputs, their invocations and their output checks.

Each workload writes its configs (and counts files) into an inputs
directory from the benchmark seed, and returns a warm-up invocation
plus a list of timed invocations of the qoptools CLI.  The timed loop
walks that list until its time is up, wrapping around if it runs out,
so a repeated invocation also checks that identical config and seed
give an identical result.json.

Every check an invocation must pass is declared as a Check with its
tolerance and the reason for it, and written into results.json.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from qoptools import bell
from qoptools.mathcore import MeasurementSet, QuantumState

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2


@dataclass(frozen=True)
class Check:
    name: str
    tolerance: float | tuple[float, float] | None
    reason: str


@dataclass(frozen=True)
class Invocation:
    command: str
    config: str
    seed: int
    expect_code: int
    # every file whose bytes define the run: the config and what it references
    inputs: tuple[str, ...]


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
    return path


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _cli_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**32, size=count)]


def _reduction(rho: np.ndarray, keep, n: int, d: int) -> np.ndarray:
    """Partial trace by index contraction, independent of qoptools.partial_trace."""
    t = rho.reshape((d,) * (2 * n))
    ket = list(range(n))
    bra = [n + i if i in keep else i for i in range(n)]
    out = list(keep) + [n + i for i in keep]
    k = d ** len(keep)
    return np.einsum(t, ket + bra, out).reshape(k, k)


def _ame_errors(rho: np.ndarray, n: int, d: int) -> list[float]:
    """Hilbert-Schmidt distance of every 2-body reduction from I/d^2."""
    target = np.eye(d * d) / (d * d)
    return [float(np.linalg.norm(_reduction(rho, pair, n, d) - target))
            for pair in itertools.combinations(range(n), 2)]


def _marginal_dist_fails(errs: list[float], result: dict) -> list[str]:
    rms = math.sqrt(sum(e * e for e in errs) / len(errs))
    reported = result["final"]["marginal_dist"]
    if not abs(rms - reported) <= 1e-9:
        return [f"reported marginal_dist {reported:.6e} but the dumped state gives {rms:.6e}"]
    return []


def _state(result: dict) -> np.ndarray:
    s = result["state"]
    return np.asarray(s["re"], dtype=float) + 1j * np.asarray(s["im"], dtype=float)


MARGINAL_DIST_CHECK = Check(
    "marginal_dist", 1e-9, "the reported final marginal_dist is the rms distance of the dumped "
    "state's reductions from their targets; recomputing it only changes summation order")


class Workload:
    name = ""
    why = ""
    command = ""
    checks: tuple[Check, ...] = ()

    def __init__(self, root: str):
        self.root = root

    def bundled(self, name: str) -> dict:
        return _load_json(os.path.join(self.root, "configs", name))

    def prepare(self, seed: int, inputs: str) -> tuple[Invocation, list[Invocation]]:
        raise NotImplementedError

    def verify(self, inv: Invocation, code, result: dict | None) -> list[str]:
        """Failed checks of one invocation, as messages; empty when it passed."""
        if code != inv.expect_code:
            return [f"exit code {code}, expected {inv.expect_code}"]
        if result is None:
            return ["no result.json"]
        return self.verify_result(inv, result)

    def verify_result(self, inv: Invocation, result: dict) -> list[str]:
        raise NotImplementedError

    def iterations(self, result: dict) -> float:
        """Solver iterations one invocation reports, the numerator of iters_per_s."""
        return float(result["iterations"])


class QmpAme44Damped(Workload):
    name = "qmp-ame44-damped"
    why = ("fixed 25-iteration budget of the bundled AME(4,4) mu=0.05 solve (D=256); the only "
           "solve_accelerated and per-target impose_marginal path, eigh-heavy, 4 MB result.json")
    command = "qmp-solve"
    budget = 25
    checks = (
        Check("exit_code", None, "exit 2: the budget is far below the ~30000 iterations a full "
              "solve needs, so the cap is hit and results are still written"),
        Check("iterations", None, "iterations equal the budget exactly"),
        Check("state_finite", None, "the dumped state has only finite entries"),
        Check("trace", 1e-9, "the rank-1 substitution renormalizes the spectrum to sum 1; "
              "only rounding on a 256x256 matrix remains"),
        MARGINAL_DIST_CHECK,
    )
    runs = 64

    def prepare(self, seed, inputs):
        cfg = self.bundled("qmp_solve_ame44_slow.json")
        config = _write_json(os.path.join(inputs, "ame44.json"), dict(cfg, max_iterations=self.budget))
        warm = _write_json(os.path.join(inputs, "warmup.json"), dict(cfg, max_iterations=2))
        warmup = Invocation(self.command, warm, 0, EXIT_NOT_CONVERGED, (warm,))
        return warmup, [
            Invocation(self.command, config, s, EXIT_NOT_CONVERGED, (config,))
            for s in _cli_seeds(seed, self.runs)
        ]

    def verify_result(self, inv, result):
        fails = []
        if result["converged"] or result["iterations"] != self.budget:
            fails.append(f"iterations {result['iterations']} (converged={result['converged']}), "
                         f"expected the budget {self.budget} unconverged")
        rho = _state(result)
        if not np.all(np.isfinite(rho)):
            fails.append("state has non-finite entries")
        elif not abs(np.trace(rho) - 1.0) <= 1e-9:
            fails.append(f"trace {np.trace(rho)} is not 1 within 1e-9")
        else:
            fails += _marginal_dist_fails(_ame_errors(rho, 4, 4), result)
        return fails


class QsePauli4(Workload):
    name = "qse-pauli4"
    why = ("qse-benchmark, 4 trials on the 4-qubit Pauli protocol (81 bases of 16 projectors); "
           "protocol construction and impose_pvm dominate, no qmp or bell code runs")
    command = "qse-benchmark"
    # At 5 qubits one invocation takes 7-9 s, almost all of it building the
    # protocol, so a run holds two or three of them and its median moved by
    # a quarter between runs; at 4 qubits the split is the same and a run
    # holds a few dozen.
    qubits = 4
    trials = 4
    band = (0.90, 0.96)
    checks = (
        Check("exit_code", None, "exit 0"),
        Check("mean_fidelity", band, "inside the band: white noise 0.1 caps the fidelity of the "
              "estimate to its generator below 1 at 100*2^4 samples per basis; measured "
              "0.927-0.938 over 12 seeds"),
        Check("std_error", None, "finite and positive over the trials"),
    )
    runs = 64

    def prepare(self, seed, inputs):
        config = _write_json(os.path.join(inputs, "pauli.json"),
                             {"protocol": "pauli", "qubits": self.qubits, "trials": self.trials})
        warm = _write_json(os.path.join(inputs, "warmup.json"),
                           {"protocol": "pauli", "qubits": 2, "trials": 2})
        warmup = Invocation(self.command, warm, 0, EXIT_OK, (warm,))
        return warmup, [
            Invocation(self.command, config, s, EXIT_OK, (config,))
            for s in _cli_seeds(seed, self.runs)
        ]

    def verify_result(self, inv, result):
        fails = []
        lo, hi = self.band
        fid, err = result["mean_fidelity"], result["std_error"]
        if result["trials"] != self.trials or result["qubits"] != self.qubits:
            fails.append("result describes another run than the config")
        if not lo <= fid <= hi:
            fails.append(f"mean_fidelity {fid} outside [{lo}, {hi}]")
        if not (math.isfinite(err) and err > 0):
            fails.append(f"std_error {err} is not finite and positive")
        return fails

    def iterations(self, result):
        return result["trials"] * result["mean_iterations"]


def _random_pvm(d: int, rng) -> MeasurementSet:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return MeasurementSet([np.outer(u[:, k], u[:, k].conj()) for k in range(d)], "pvm")


class BellM4D2(Workload):
    name = "bell-m4d2"
    why = ("bell-optimize, one SLSQP restart per call, on Poisson counts (1e6 per setting) of a "
           "maximally entangled qubit pair in fixed random bases; 256 dense strategy constraints")
    command = "bell-optimize"
    settings, outcomes = 4, 2
    per_setting = 1e6
    # SLSQP iteration counts vary by a quarter from restart to restart
    # even on one experiment, so a run needs many restarts for a steady
    # time: m=3, d=3 (729 constraints, ~4 s a restart) fits only a few in
    # a run, m=4, d=2 (~1 s) fits a few dozen.  Bases come from a fixed
    # seed so every run measures the same experiment.
    bases_seed = 3
    checks = (
        Check("exit_code", None, "exit 0"),
        Check("classical", 1e-9, "classical equals bell.lhv_bound of the returned inequality; "
              "both enumerate the same deterministic strategies"),
        Check("ratio", 1e-9, "ratio equals (quantum - error + dm)/(classical + dm), dm = m*d, "
              "recomputed with bell.quantum_value on the input counts"),
    )
    runs = 64

    def prepare(self, seed, inputs):
        m, d = self.settings, self.outcomes
        basis_rng = np.random.default_rng(self.bases_seed)
        alice = [_random_pvm(d, basis_rng) for _ in range(m)]
        bob = [_random_pvm(d, basis_rng) for _ in range(m)]
        psi = np.eye(d).ravel() / math.sqrt(d)
        behavior = bell.behavior_from_state(QuantumState(np.outer(psi, psi), (d, d)), alice, bob)
        rng = np.random.default_rng(seed)
        invocations = []
        for k, cli_seed in enumerate(_cli_seeds(seed, self.runs)):
            counts = bell.CountsTable.sample(behavior, self.per_setting, rng)
            name = f"counts_{k}.json"
            counts_path = _write_json(os.path.join(inputs, name), bell.counts_to_dict(counts))
            config = _write_json(os.path.join(inputs, f"bell_{k}.json"),
                                 {"counts": name, "trials": 1})
            invocations.append(
                Invocation(self.command, config, cli_seed, EXIT_OK, (config, counts_path))
            )
        # a full-size warm-up: the first restarts of a fresh process run slow
        return invocations[0], invocations

    def verify_result(self, inv, result):
        fails = []
        ineq = bell.inequality_from_dict(result["inequality"])
        counts = bell.counts_from_dict(_load_json(inv.inputs[1]))
        classical = bell.lhv_bound(ineq)
        if not abs(result["classical"] - classical) <= 1e-9:
            fails.append(f"classical {result['classical']} but lhv_bound gives {classical}")
        q, dq = bell.quantum_value(ineq, counts)
        dm = float(self.settings * self.outcomes)
        ratio = (q - dq + dm) / (result["classical"] + dm)
        if not abs(result["ratio"] - ratio) <= 1e-9:
            fails.append(f"ratio {result['ratio']} but recomputed {ratio}")
        return fails

    def iterations(self, result):
        # bell-optimize reports no iteration count; its unit of work is a restart
        return 1.0


WORKLOADS = {w.name: w for w in (QmpAme44Damped, QsePauli4, BellM4D2)}
