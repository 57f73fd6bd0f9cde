"""Quantum state estimation by iterated imposition of measured data.

The core object is the single-effect update
    T(rho) = rho + (p - Tr[rho E]) E / Tr(E^2),
which pushes the expectation of E to the target p while moving rho as
little as possible in Hilbert-Schmidt distance.  A full estimation pass
imposes every measurement in turn, and the loop stops once an entire
pass no longer moves the iterate.  Noisy data usually leaves the limit
slightly unphysical, so the result is projected back onto the density
matrices at the end.
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateEffect, InvalidInput, InvalidMeasurementKind, TooLargeScenario
from .mathcore import (
    _PAULIS,
    MeasurementKind,
    MeasurementSet,
    QuantumState,
    as_rng,
    check_hermitian,
    config_array,
    config_number,
    eigh,
    fidelity,
    hermitize,
    hs_distance,
    load_ref,
    matrix_from_dict,
    mub_bases,
    pauli_product_bases,
    qubit_mub_bases,
    random_mixed_state,
)

# qubits of the Pauli protocol at most: its 3^n bases and the 3^n x 2^n index
# table of _PauliFrame grow about 6x per qubit.  Peak RSS of building both:
# 45 MB at 8 qubits, 116 MB at 9 and 524 MB at 10 (one process, numpy
# 2.4.6); the int64 table alone takes 2.9 GB at 11 and 17 GB at 12
PAULI_QUBIT_GUARD = 10

# a pass that moves the iterate by at most this many machine epsilons times its
# Hilbert-Schmidt norm has converged: past a fixed point the dense path's passes
# still move it by rounding (about 1e-16), so accuracy 0 would never stop
ROUNDING_FLOOR = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class ImpositionTarget:
    """One effect with the value its expectation should take.

    `expectation` widens the allowed target range to [-1, 1] for
    observable (Pauli-string style) targets; plain effects use [0, 1].
    """

    effect: np.ndarray
    probability: float
    expectation: bool = False

    def __post_init__(self):
        object.__setattr__(self, "effect", check_hermitian(self.effect))
        p = float(self.probability)
        lo = -1.0 if self.expectation else 0.0
        if not lo - 1e-12 <= p <= 1.0 + 1e-12:
            raise InvalidInput(f"target value {p} outside [{lo}, 1]")
        object.__setattr__(self, "probability", p)


@dataclass(frozen=True)
class NoiseModel:
    """White-noise admixture plus finite counting statistics.

    samples_per_basis None means exact Born probabilities.
    """

    white_noise: float = 0.0
    samples_per_basis: int | None = None

    def __post_init__(self):
        lam = float(self.white_noise)
        if not 0.0 <= lam <= 1.0:
            raise InvalidInput("white noise weight must lie in [0, 1]")
        object.__setattr__(self, "white_noise", lam)
        n = self.samples_per_basis
        if n is not None and not math.isinf(n):
            n = int(n)
            if n < 1:
                raise InvalidInput("samples per basis must be positive")
            object.__setattr__(self, "samples_per_basis", n)
        else:
            object.__setattr__(self, "samples_per_basis", None)


@dataclass(frozen=True)
class EstimationProblem:
    measurements: tuple[MeasurementSet, ...]
    frequencies: tuple[np.ndarray, ...]
    accuracy: float = 1e-10
    max_iterations: int = 10_000

    def __post_init__(self):
        meas = tuple(self.measurements)
        freqs = tuple(np.asarray(f, dtype=float) for f in self.frequencies)
        if len(meas) != len(freqs):
            raise InvalidInput("one frequency vector per measurement set required")
        if not meas:
            raise InvalidInput("at least one measurement set required")
        if any(f.shape != (len(a),) for a, f in zip(meas, freqs)):
            raise InvalidInput("frequency vector length does not match effect count")
        # one check per kind over all of its sets at once: a Pauli protocol has 3^n of them
        of_kind = {kind: [f for a, f in zip(meas, freqs) if a.kind is kind]
                   for kind in MeasurementKind}
        if not np.all(np.isfinite(np.concatenate(freqs))):
            raise InvalidInput("frequencies must be finite")
        expectations = of_kind[MeasurementKind.OBSERVABLE_BASIS]
        if expectations and np.any(np.abs(np.concatenate(expectations)) > 1 + 1e-12):
            raise InvalidInput("expectation targets must lie in [-1, 1]")
        pvms = of_kind[MeasurementKind.PVM]
        probabilities = pvms + of_kind[MeasurementKind.POVM]
        if probabilities and np.any(np.concatenate(probabilities) < -1e-12):
            raise InvalidInput("frequencies must be nonnegative")
        if pvms:
            starts = np.cumsum([0] + [f.size for f in pvms[:-1]])
            if np.any(np.abs(np.add.reduceat(np.concatenate(pvms), starts) - 1.0) > 1e-9):
                raise InvalidInput("PVM frequencies must sum to 1 within 1e-9")
        if not 0.0 <= float(self.accuracy) <= 1.0:
            raise InvalidInput("accuracy must lie in [0, 1]")
        if int(self.max_iterations) < 1:
            raise InvalidInput("max_iterations must be positive")
        object.__setattr__(self, "measurements", meas)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "accuracy", float(self.accuracy))
        object.__setattr__(self, "max_iterations", int(self.max_iterations))


@dataclass(frozen=True)
class EstimationResult:
    """The projected estimate and how the passes ended.

    `residual` is the distance the last pass moved the iterate.  When
    converged is True it is at most the requested accuracy, or at most
    ROUNDING_FLOOR times the iterate's norm: below that floor a requested
    accuracy can be missed and still count as converged.
    """

    state: QuantumState
    iterations: int
    residual: float
    converged: bool


def impose_one(rho: np.ndarray, target: ImpositionTarget) -> np.ndarray:
    """Shift rho minimally so that Tr[rho E] equals the target value."""
    rho = np.asarray(rho, dtype=complex)
    e = target.effect
    if rho.shape != e.shape:
        raise InvalidInput("state and effect dimensions differ")
    tr_e2 = float(np.trace(e @ e).real)
    if tr_e2 <= 1e-30:
        raise DegenerateEffect("effect has zero Hilbert-Schmidt norm")
    gap = target.probability - float(np.trace(rho @ e).real)
    return rho + (gap / tr_e2) * e


def _pvm_expectations(rho: np.ndarray, pvm: MeasurementSet) -> np.ndarray:
    """Tr[rho P_k] for every outcome k: the diagonal of V†ρV summed per outcome."""
    v = pvm.basis
    diag = np.einsum("ij,ij->j", v.conj(), rho @ v).real
    return np.bincount(pvm.outcomes, weights=diag, minlength=len(pvm))


def impose_pvm(rho: np.ndarray, pvm: MeasurementSet, probs: Sequence[float]) -> np.ndarray:
    """Impose a full outcome distribution of one projective measurement.

    Orthogonality makes the single-effect updates independent, so the
    composition collapses to one additive correction per projector,
    (p_k - q_k)/rank_k times projector k with q_k = Tr[rho P_k].  In the
    basis V of the PVM that is rho + V diag(c) V†, c_j the correction of
    column j's outcome: O(D^3) for the whole basis.
    """
    if not isinstance(pvm, MeasurementSet) or pvm.kind is not MeasurementKind.PVM:
        raise InvalidMeasurementKind("impose_pvm needs a PVM measurement set")
    rho = np.asarray(rho, dtype=complex)
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (len(pvm),):
        raise InvalidInput("probability vector length does not match PVM")
    if rho.shape != pvm.basis.shape:
        raise InvalidInput("state and effect dimensions differ")
    v, g = pvm.basis, pvm.outcomes
    c = ((probs - _pvm_expectations(rho, pvm)) / np.bincount(g))[g]
    return rho + (v * c) @ v.conj().T


def _impose_set(rho: np.ndarray, meas: MeasurementSet, freq: np.ndarray) -> np.ndarray:
    if meas.kind is MeasurementKind.PVM:
        return impose_pvm(rho, meas, freq)
    expectation = meas.kind is MeasurementKind.OBSERVABLE_BASIS
    out = rho
    for e, f in zip(meas.effects, freq):
        out = impose_one(out, ImpositionTarget(e, float(f), expectation=expectation))
    return out


def estimate(problem: EstimationProblem) -> EstimationResult:
    """Iterate imposition passes from the maximally mixed seed.

    Runs until one full pass moves the iterate by at most the requested
    accuracy (Hilbert-Schmidt distance) or by no more than rounding
    (ROUNDING_FLOOR times its norm), or until the iteration cap is hit, in
    which case the result carries converged=False.  An accuracy below the
    rounding floor is therefore not always met: converged=True can mean
    the passes stopped at the floor with a residual above the accuracy.
    The raw limit is projected onto the density matrices before returning.  When every
    set is a Pauli product basis the passes run in Pauli coordinates.
    """
    frame = _PauliFrame.of(problem.measurements)
    if frame is None:
        d = problem.measurements[0].dim
        for a in problem.measurements:
            if a.dim != d:
                raise InvalidInput("measurement sets act on different dimensions")
        x = np.eye(d, dtype=complex) / d

        def one_pass(rho):
            for meas, freq in zip(problem.measurements, problem.frequencies):
                rho = _impose_set(rho, meas, freq)
            return rho

        distance, norm, matrix = hs_distance, np.linalg.norm, np.asarray
    else:
        x = frame.coordinates(np.eye(2**frame.n) / 2**frame.n)
        values = np.asarray(problem.frequencies) @ frame.hadamard  # H f per basis; H is symmetric

        def one_pass(r):
            return frame.impose(r, values)

        distance, norm, matrix = frame.distance, frame.norm, frame.matrix
    iterations = 0
    residual = math.inf
    converged = False
    while iterations < problem.max_iterations:
        prev, x = x, one_pass(x)
        iterations += 1
        residual = distance(x, prev)
        if residual <= problem.accuracy or residual <= ROUNDING_FLOOR * norm(x):
            converged = True
            break
    return EstimationResult(
        state=nearest_density_matrix(matrix(x)),
        iterations=iterations,
        residual=float(residual),
        converged=converged,
    )


# Pauli coordinates of an n-qubit operator: rho = sum_s r_s sigma_s / D over the 4^n
# Pauli strings s, with r_s = Tr(rho sigma_s) real for Hermitian rho and r_I = Tr(rho).
# String s has Pauli s_i (0..3 for I, X, Y, Z) on qubit i and flat index
# sum_i s_i 4^(n-1-i); Pauli letter c (0, 1, 2 for x, y, z) is Pauli c + 1 of _PAULIS.


def _sitewise(m: np.ndarray, vec: np.ndarray, n: int) -> np.ndarray:
    """Apply the 4x4 matrix m to each of the n base-4 digits of vec's index.

    Each step acts on the leading digit and rotates it to the back, so n
    steps restore the digit order.
    """
    for _ in range(n):
        vec = (m @ vec.reshape(4, -1)).T.ravel()
    return vec


def _interleaving(n: int) -> np.ndarray:
    """Axis order (row 0, column 0, row 1, column 1, ...) of an n-qubit matrix's (2,)*2n view."""
    return np.arange(2 * n).reshape(2, n).T.ravel()


@dataclass(frozen=True, eq=False)
class _PauliFrame:
    """Pauli product bases on n qubits, worked in Pauli coordinates.

    Outcome k of basis c projects onto the eigenvalue (-1)^k_i of its
    letter at qubit i (bits k_i from qubit 0 down), so its probability is
    (H g)_k / D: H = H_2^(x)n with H_2 = [[1, 1], [1, -1]], and g_b = r of
    the string with letter c_i where bit b_i is 1 and I elsewhere.
    `strings[j]` holds the flat indices of those strings for basis j.
    """

    n: int
    strings: np.ndarray  # (bases, D)
    hadamard: np.ndarray  # (D, D), symmetric, H @ H = D I

    @classmethod
    def of(cls, measurements: Sequence[MeasurementSet]) -> "_PauliFrame | None":
        """The frame of the given sets when every one records Pauli letters, else None."""
        letters = tuple(m.letters for m in measurements)
        if any(c is None for c in letters):
            return None
        if any(len(c) != len(letters[0]) for c in letters):
            raise InvalidInput("measurement sets act on different dimensions")
        return cls._last(letters)

    @staticmethod
    @functools.lru_cache(maxsize=1)
    def _last(letters: tuple[tuple[int, ...], ...]) -> "_PauliFrame":
        """The frame of these letters, kept until other letters are asked for.

        A benchmark trial asks for its protocol's frame twice (to simulate
        and to estimate), so only the last frame is kept; at 10 qubits it
        holds a 480 MB index table.  It is shared between callers, so its
        arrays are read-only.
        """
        return _PauliFrame._build(letters)

    @staticmethod
    def _build(letters: tuple[tuple[int, ...], ...]) -> "_PauliFrame":
        """The frame of these letters, built anew."""
        n = len(letters[0])
        bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # (D, n)
        place = 4 ** np.arange(n - 1, -1, -1)
        strings = ((np.asarray(letters) + 1) * place) @ bits.T
        hadamard = 1.0 - 2.0 * ((bits @ bits.T) & 1)
        strings.flags.writeable = hadamard.flags.writeable = False
        return _PauliFrame(n, strings, hadamard)

    def coordinates(self, rho: np.ndarray) -> np.ndarray:
        """r_s = Tr(rho sigma_s) for every string s: sum_ij rho_ij (sigma_s)_ji site by site."""
        n = self.n
        if rho.shape != (2**n, 2**n):
            raise InvalidInput("state and effect dimensions differ")
        vec = rho.reshape((2,) * (2 * n)).transpose(_interleaving(n)).ravel()
        return _sitewise(_PAULIS.transpose(0, 2, 1).reshape(4, 4), vec, n).real

    def matrix(self, r: np.ndarray) -> np.ndarray:
        """The dense matrix sum_s r_s sigma_s / D."""
        n, d = self.n, 2**self.n
        vec = _sitewise(_PAULIS.reshape(4, 4).T, r, n) / d
        return vec.reshape((2,) * (2 * n)).transpose(np.argsort(_interleaving(n))).reshape(d, d)

    def norm(self, r: np.ndarray) -> float:
        """Hilbert-Schmidt norm of the operator with coordinates r."""
        return math.sqrt(float(np.sum(r**2)) / 2**self.n)

    def distance(self, r: np.ndarray, s: np.ndarray) -> float:
        """Hilbert-Schmidt distance of the operators with coordinates r and s."""
        return self.norm(r - s)

    def probabilities(self, r: np.ndarray) -> np.ndarray:
        """(bases, D) table of outcome probabilities of the operator with coordinates r."""
        table = r[self.strings] @ self.hadamard
        table /= 2**self.n
        return table

    def impose(self, r: np.ndarray, values: np.ndarray) -> np.ndarray:
        """One pass imposing every basis in turn, as `impose_pvm` does densely.

        Imposing basis c on frequencies f moves only its strings g, to
        g + H (f - H g / D), the coordinates of rho + sum_k (f_k - p_k) P_k.
        H H = D I turns that into H f whatever g was, so each basis assigns
        H f to its strings (the last basis that measures a string sets it),
        and a second pass writes the same values: its residual is exactly 0.
        values holds H f of every basis, computed once for all passes.
        """
        r = r.copy()
        for strings, value in zip(self.strings, values):
            r[strings] = value
        return r


def nearest_density_matrix(rho: np.ndarray) -> QuantumState:
    """Project a Hermitian matrix onto the closest density matrix.

    Diagonalize, then shift the spectrum down by the x0 solving
    sum_i max(lambda_i - x0, 0) = 1 and clip at zero; this is the
    Hilbert-Schmidt projection onto the spectrahedron.  x0 is exact by
    sort and threshold: with the eigenvalues in descending order, the
    kept ones are the longest prefix whose last member exceeds the shift
    that prefix alone would need (Smolin, Gambetta & Smith, PRL 108,
    070502, 2012).
    """
    rho = check_hermitian(np.asarray(rho, dtype=complex))
    lam, u = eigh(rho)  # descending
    shifts = (np.cumsum(lam) - 1.0) / np.arange(1, lam.size + 1)
    x0 = shifts[np.flatnonzero(lam > shifts)[-1]]
    spec = np.clip(lam - x0, 0.0, None)
    out = hermitize((u * spec) @ u.conj().T)
    return QuantumState(out)


def born_probabilities(state, meas: MeasurementSet) -> np.ndarray:
    """Expectation of every effect in the set (real parts).

    A PVM reads them off the diagonal of V†ρV, summed per outcome; a
    Pauli product basis reads them from the Pauli coordinates of ρ.
    """
    mat = state.matrix if isinstance(state, QuantumState) else np.asarray(state, dtype=complex)
    if meas.letters is not None:
        # one basis: built anew, so that the kept frame of a protocol stays
        frame = _PauliFrame._build((meas.letters,))
        return frame.probabilities(frame.coordinates(mat))[0]
    if meas.kind is MeasurementKind.PVM:
        return _pvm_expectations(mat, meas)
    return np.einsum("kij,ji->k", meas.effects, mat).real


def simulate_frequencies(
    rho_gen: QuantumState,
    measurements: Sequence[MeasurementSet],
    noise: NoiseModel,
    rng,
) -> list[np.ndarray]:
    """Per-measurement outcome frequencies of the noisy state.

    The generator is mixed with white noise, then each basis is either
    read out exactly (samples_per_basis None) or sampled with
    independent Poisson counts per outcome, normalized by the realized
    total.  Observable-expectation sets only support the exact mode;
    their entries are expectation values, not outcome probabilities.
    All sets are worked as one flat table in the order of the sets and
    outcomes, read out at once from the Pauli coordinates when every
    set is a Pauli product basis: one clip, one Poisson call and one
    per-set total.  The returned vectors are slices of that table.
    """
    rng = as_rng(rng)
    d = rho_gen.dim
    lam = noise.white_noise
    noisy = (1.0 - lam) * rho_gen.matrix + lam * np.eye(d) / d
    frame = _PauliFrame.of(measurements)
    if frame is not None:
        table = frame.probabilities(frame.coordinates(noisy)).ravel()
    else:
        table = np.concatenate([born_probabilities(noisy, meas) for meas in measurements])
    sizes = [len(meas) for meas in measurements]
    bounds = list(itertools.accumulate(sizes, initial=0))
    observable = [meas.kind is MeasurementKind.OBSERVABLE_BASIS for meas in measurements]
    if any(observable) and noise.samples_per_basis is not None:
        raise InvalidMeasurementKind(
            "finite-sample simulation is undefined for expectation targets"
        )
    clip = np.repeat(np.logical_not(observable), sizes) if any(observable) else True
    np.clip(table, 0.0, None, out=table, where=clip)
    if noise.samples_per_basis is not None:
        np.multiply(table, noise.samples_per_basis, out=table)
        table[...] = rng.poisson(table)
        totals = np.add.reduceat(table, bounds[:-1])
        # a set that drew no count falls back to uniform
        empty = np.flatnonzero(totals == 0)
        totals[empty] = 1.0
        table /= np.repeat(totals, sizes)
        for k in empty:
            table[bounds[k]:bounds[k + 1]] = 1.0 / sizes[k]
    return [table[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _fidelity_trials(measurements, noise: NoiseModel, trials: int, base: int, draw_state):
    """Mean fidelity, its standard error and the mean pass count of simulated estimations.

    Trial t draws from the stream seeded base + t: first its true state,
    draw_state(stream), then the counts that are estimated from.
    """
    fid, iters = [], []  # grown per trial: nothing is held for trials not yet run
    for t in range(trials):
        trial_rng = as_rng(base + t)
        rho_gen = draw_state(trial_rng)
        freqs = simulate_frequencies(rho_gen, measurements, noise, trial_rng)
        result = estimate(EstimationProblem(tuple(measurements), tuple(freqs)))
        fid.append(fidelity(result.state, rho_gen))
        iters.append(result.iterations)
    fid = np.array(fid)
    return float(fid.mean()), float(fid.std(ddof=1) / math.sqrt(trials)), float(np.mean(iters))


def bootstrap_fidelity(
    rho_gen: QuantumState,
    measurements: Sequence[MeasurementSet],
    noise: NoiseModel,
    trials: int,
    rng,
) -> tuple[float, float]:
    """Mean estimation fidelity and its standard error over repeated runs.

    The generator state stays fixed; only the sampled counts vary from
    trial to trial (per-trial seeds derived as base + index).
    """
    trials = int(trials)
    if trials < 2:
        raise InvalidInput("need at least two trials")
    base = int(rng.integers(2**62)) if isinstance(rng, np.random.Generator) else int(rng)
    return _fidelity_trials(measurements, noise, trials, base, lambda _: rho_gen)[:2]


def measurement_protocol(n_qubits: int, protocol: str) -> list[MeasurementSet]:
    """Bundled tomography protocols: 'mub' or 'pauli' on n qubits."""
    n = int(n_qubits)
    if protocol == "mub":
        if n == 1:
            return mub_bases(2)
        return qubit_mub_bases(n)
    if protocol == "pauli":
        if n > PAULI_QUBIT_GUARD:
            raise TooLargeScenario(
                f"{n} qubits exceed the Pauli protocol guard of {PAULI_QUBIT_GUARD}"
            )
        return pauli_product_bases(n)
    raise InvalidInput(f"unknown protocol {protocol!r}")


def run_benchmark(
    n_qubits: int,
    protocol: str,
    trials: int,
    rng,
    white_noise: float = 0.1,
    samples_factor: int = 100,
) -> dict:
    """Estimation benchmark with a fresh random full-rank generator per trial.

    Mirrors the noisy-tomography setting used in the acceptance tests:
    white noise 0.1 and 100 * 2^n Poisson samples per basis.  Trials run
    one after another.  Besides the statistics, the returned dict holds
    the wall-clock seconds spent building the protocol and running the
    trials ("protocol_seconds", "trials_seconds"); everything else is
    determined by the arguments.
    """
    trials = int(trials)
    if trials < 2:
        raise InvalidInput("need at least two trials")
    base = int(as_rng(rng).integers(2**62))
    n = int(n_qubits)
    started = time.perf_counter()
    measurements = measurement_protocol(n, protocol)
    built = time.perf_counter()
    noise = NoiseModel(white_noise, samples_factor * 2**n)
    mean, std_error, mean_iterations = _fidelity_trials(
        measurements, noise, trials, base, lambda trial_rng: random_mixed_state([2] * n, trial_rng)
    )
    return {
        "protocol": protocol,
        "n_qubits": n,
        "trials": trials,
        "mean_fidelity": mean,
        "std_error": std_error,
        "mean_iterations": mean_iterations,
        "protocol_seconds": built - started,
        "trials_seconds": time.perf_counter() - built,
    }


def estimation_problem_from_dict(obj: dict, base_dir=None):
    """Parse {"measurements", "frequencies", "epsilon", "max_iters"}.

    measurements is either {"protocol": "mub"|"pauli", "qubits": n} or a
    list of {"kind": ..., "effects": [matrix refs]}.  An optional
    "reference" matrix ref names the state that fidelity should be
    reported against.  Returns (problem, reference or None).
    """
    try:
        raw_meas = obj["measurements"]
        frequencies = [config_array(f, "'frequencies'") for f in obj["frequencies"]]
        if isinstance(raw_meas, dict):
            qubits = config_number(raw_meas["qubits"], int, "'qubits'")
            protocol = raw_meas["protocol"]
        else:
            raw_sets = [(entry.get("kind", "pvm"), list(entry["effects"])) for entry in raw_meas]
        accuracy = config_number(obj.get("epsilon", 1e-10), float, "'epsilon'")
        max_iterations = config_number(obj.get("max_iters", 10_000), int, "'max_iters'")
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed problem file: {exc}") from exc
    if isinstance(raw_meas, dict):
        measurements = measurement_protocol(qubits, protocol)
    else:
        measurements = [
            MeasurementSet(
                [load_ref(e, base_dir, matrix_from_dict) for e in effects],
                MeasurementKind.coerce(kind),
            )
            for kind, effects in raw_sets
        ]
    problem = EstimationProblem(measurements, frequencies, accuracy, max_iterations)
    reference = obj.get("reference")
    if reference is not None:
        reference = QuantumState(load_ref(reference, base_dir, matrix_from_dict))
    return problem, reference
