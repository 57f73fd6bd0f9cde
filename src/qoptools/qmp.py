"""Marginal-problem solver: imposing prescribed reductions and spectra.

A reduced state enters the global matrix through the trace-one embedding
sigma_J (x) I/d^{|Jc|}, and the basic substitution

    Q(rho) = rho - embed(Tr_{Jc} rho) + embed(sigma_J)

swaps the marginal on J for the prescribed one while keeping the trace
at one.  Q is affine and its output is Hermitian but not necessarily
positive, so compatibility questions become fixed-point questions: the
solver alternates one Q per prescribed subset with a spectral projection
(exact spectrum, or rank truncation) and watches how far the iterate
sits from both prescriptions at once.

Q only touches the entries that are diagonal on the complement of J, so
it is applied as an in-place update on a strided view of those entries
(O(D d^{|J|}) rather than two dense Kronecker products).  In rank mode
the spectral step needs only the top r eigenpairs; after the first step
they come from a stateless block Krylov step started at the previous
iterate's vectors, with an exact eigh whenever it fails its residual check.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import (
    DegenerateIterate,
    InvalidInput,
    InvalidSubsystem,
    NotConverged,
    TooLargeScenario,
)
from .mathcore import (
    QuantumState,
    _as_matrix,
    _complement_diagonal,
    _ginibre_state,
    as_rng,
    check_hermitian,
    config_array,
    config_number,
    eigh,
    hermitize,
    hs_distance,
    load_ref,
    matrix_from_dict,
    partial_trace,
    random_mixed_state,
    random_pure_state,
)

PSD_WITNESS_TOL = -1e-10
# global dimension d^N at most: every solver and sweep holds dense D x D
# complex matrices, 1 GiB each at D = 2^13
DIMENSION_GUARD = 2**13
# a warm top-r eigenstep is accepted when its Ritz residual ||X V - V diag(w)||_F
# is at most this fraction of ||X||_F; otherwise it restarts once, then falls back to eigh
RITZ_RESIDUAL_TOL = 1e-12
KRYLOV_BLOCKS = 8


def _check_dimension(n_parties: int, local_dim: int) -> None:
    """Refuse a global dimension d^N past DIMENSION_GUARD before anything of that size exists."""
    # for every d >= 2, d^64 already exceeds the guard, so capping the
    # exponent keeps an absurd N from spending its time on the power itself
    if local_dim ** min(n_parties, 64) > DIMENSION_GUARD:
        raise TooLargeScenario(
            f"global dimension {local_dim}^{n_parties} exceeds the guard of {DIMENSION_GUARD}"
        )


def _check_subset(subset, n_parties: int) -> tuple[int, ...]:
    sub = tuple(sorted(set(int(i) for i in subset)))
    if len(sub) != len(tuple(subset)):
        raise InvalidSubsystem(f"subset {subset} repeats a party")
    if not sub:
        raise InvalidSubsystem("subset is empty")
    if sub[0] < 0 or sub[-1] >= n_parties:
        raise InvalidSubsystem(f"subset {sub} out of range for {n_parties} parties")
    if len(sub) == n_parties:
        raise InvalidSubsystem("subset covers every party; nothing is left to embed into")
    return sub


def embed_with_mixed(op, subset, n_parties: int, local_dim: int) -> np.ndarray:
    """Tensor `op` on `subset` with the maximally mixed state elsewhere.

    The complement carries I/d^{|Jc|}, so a trace-one input stays trace
    one.  Factors are permuted back into natural party order, which is
    what lets non-contiguous subsets like {0, 2} work.
    """
    d = int(local_dim)
    sub = _check_subset(subset, n_parties)
    mat = _as_matrix(op)
    dk = d ** len(sub)
    if mat.shape != (dk, dk):
        raise InvalidInput(f"operator shape {mat.shape} does not match subset {sub} at d={d}")
    comp = [i for i in range(n_parties) if i not in sub]
    if comp:
        dc = d ** len(comp)
        full = np.kron(mat, np.eye(dc, dtype=complex) / dc)
    else:
        full = mat.astype(complex)
    order = list(sub) + comp
    if order == list(range(n_parties)):
        return full
    axes = [order.index(j) for j in range(n_parties)]
    tensor = full.reshape([d] * (2 * n_parties))
    tensor = tensor.transpose(axes + [a + n_parties for a in axes])
    return tensor.reshape(d**n_parties, d**n_parties)


def _marginal_step(mat, sub, sigma, n_parties: int, d: int):
    """Apply the substitution Q on `sub` to `mat` in place.

    Adds (sigma - Tr_Jc mat) (x) I/d^{|Jc|} through the strided view of
    the entries that are diagonal on the complement of `sub`.
    """
    k = len(sub)
    view = _complement_diagonal(mat, sub, (d,) * n_parties)
    reduced = view.sum(axis=tuple(range(2 * k, n_parties + k)))
    delta = (sigma.reshape(reduced.shape) - reduced) * (1.0 / d ** (n_parties - k))
    view += delta.reshape(delta.shape + (1,) * (n_parties - k))


def impose_marginal(rho, subset, sigma, local_dim: int) -> np.ndarray:
    """Replace the reduction of `rho` on `subset` by `sigma`.

    Output is Hermitian and trace one but can fail positivity: the
    diagonal two-qubit example with rho = diag(a,0,0,1-a) and a one-body
    target diag(g,1-g) picks up the eigenvalue (g-a)/2.  The reduction
    on any subset disjoint from `subset` is untouched.
    """
    d = int(local_dim)
    mat = _as_matrix(rho)
    dim = mat.shape[0]
    n_parties = int(round(math.log(dim, d))) if d > 1 else 0
    if d < 2 or d**n_parties != dim:
        raise InvalidInput(f"matrix of dim {dim} is not a {d}-level tensor power")
    sub = _check_subset(subset, n_parties)
    sig = _as_matrix(sigma)
    if sig.shape != (d ** len(sub),) * 2:
        raise InvalidInput(f"target shape {sig.shape} does not match subset {sub} at d={d}")
    out = mat.copy()
    _marginal_step(out, sub, sig, n_parties, d)
    return out


@dataclass(frozen=True)
class MarginalSpec:
    """A set of prescribed reductions of an N-party, d-level system."""

    n_parties: int
    local_dim: int
    targets: tuple = ()

    def __init__(self, n_parties: int, local_dim: int, targets):
        n = int(n_parties)
        d = int(local_dim)
        if n < 2:
            raise InvalidInput("need at least two parties")
        if d < 2:
            raise InvalidInput("local dimension must be at least 2")
        _check_dimension(n, d)
        clean = []
        for subset, sigma in targets:
            sub = _check_subset(subset, n)
            if not isinstance(sigma, QuantumState):
                sigma = QuantumState(np.asarray(sigma, dtype=complex), (d,) * len(sub))
            if sigma.dim != d ** len(sub):
                raise InvalidInput(
                    f"target for subset {sub} has dim {sigma.dim}, expected {d**len(sub)}"
                )
            # exactly Hermitian targets keep every marginal sweep exactly Hermitian
            clean.append((sub, QuantumState(hermitize(sigma.matrix), sigma.dims)))
        object.__setattr__(self, "n_parties", n)
        object.__setattr__(self, "local_dim", d)
        object.__setattr__(self, "targets", tuple(clean))

    @property
    def dim(self) -> int:
        return self.local_dim**self.n_parties

    def __len__(self) -> int:
        return len(self.targets)


def spec_from_generator(generator: QuantumState, subsets) -> MarginalSpec:
    """Spec whose targets are the reductions of an explicit global state.

    Existence of a compatible state is then guaranteed by construction,
    which is the standard way to set up solvable test problems.
    """
    dims = generator.dims
    d = dims[0]
    if any(x != d for x in dims):
        raise InvalidInput("generator must have uniform local dimensions")
    n = len(dims)
    targets = [(tuple(sub), partial_trace(generator, sub)) for sub in subsets]
    return MarginalSpec(n, d, targets)


def ame_spec(n_parties: int, local_dim: int) -> MarginalSpec:
    """All floor(N/2)-body reductions prescribed maximally mixed.

    A rank-one solution of this spec is an absolutely maximally
    entangled state; for some (N, d), e.g. N=4 d=2, none exists.
    """
    k = n_parties // 2
    d = int(local_dim)
    dk = d**k
    mixed = QuantumState(np.eye(dk, dtype=complex) / dk, (d,) * k)
    targets = [(sub, mixed) for sub in itertools.combinations(range(n_parties), k)]
    return MarginalSpec(n_parties, d, targets)


def impose_all(rho, spec: MarginalSpec) -> np.ndarray:
    """Apply one marginal substitution per target, in spec order.

    The substitutions commute, so the order is cosmetic; after the full
    sweep every prescribed reduction is recovered exactly whenever the
    targets are compatible with some global state.
    """
    mat = _as_matrix(rho)
    if mat.shape != (spec.dim, spec.dim):
        raise InvalidInput(f"matrix shape {mat.shape} does not match spec dim {spec.dim}")
    out = mat.copy()
    for subset, sigma in spec.targets:
        _marginal_step(out, subset, sigma.matrix, spec.n_parties, spec.local_dim)
    return out


@dataclass(frozen=True)
class SpectralConstraint:
    """Prescribed spectrum, or a rank cap, for the global state."""

    mode: str
    spectrum: np.ndarray | None = None
    rank: int | None = None

    def __post_init__(self):
        if self.mode not in ("spectra", "rank"):
            raise InvalidInput(f"unknown constraint mode {self.mode!r}")
        if self.mode == "spectra":
            lam = np.asarray(self.spectrum, dtype=float).ravel()
            if lam.size == 0:
                raise InvalidInput("empty spectrum")
            if not np.all(np.isfinite(lam)):
                raise InvalidInput("spectrum has a non-finite entry")
            if np.any(np.diff(lam) > 1e-12):
                raise InvalidInput("spectrum must be sorted in descending order")
            if lam[-1] < -1e-12:
                raise InvalidInput("spectrum has a negative entry")
            s = float(lam.sum())
            if abs(s - 1.0) > 1e-9:
                raise InvalidInput(f"spectrum sums to {s}, expected 1")
            lam = np.clip(lam, 0.0, None)
            object.__setattr__(self, "spectrum", lam / lam.sum())
        else:
            if self.rank is None or int(self.rank) < 1:
                raise InvalidInput("rank must be a positive integer")
            object.__setattr__(self, "rank", int(self.rank))

    @classmethod
    def with_spectrum(cls, values) -> "SpectralConstraint":
        return cls(mode="spectra", spectrum=np.asarray(values, dtype=float))

    @classmethod
    def with_rank(cls, r: int) -> "SpectralConstraint":
        return cls(mode="rank", rank=r)


def _substitute_spectrum(vals, vecs, constraint: SpectralConstraint):
    """Rebuild the matrix on its own eigenbasis with the constrained spectrum.

    Returns the new matrix together with the spectrum actually written,
    which in rank mode is the renormalized truncation of `vals`.
    """
    dim = vals.size
    if constraint.mode == "spectra":
        lam = constraint.spectrum
        if lam.size != dim:
            raise InvalidInput(f"spectrum length {lam.size} does not match dim {dim}")
    else:
        positive = int(np.count_nonzero(vals > 0.0))
        if positive == 0:
            raise DegenerateIterate("no positive eigenvalue left to keep")
        keep = min(constraint.rank, positive)
        lam = np.zeros(dim)
        lam[:keep] = vals[:keep] / vals[:keep].sum()
    out = (vecs * lam) @ vecs.conj().T
    return hermitize(out), lam


def impose_spectrum(rho_prime, constraint: SpectralConstraint) -> np.ndarray:
    """Force the constraint onto a Hermitian matrix, eigenbasis kept.

    Eigenvalues and prescription are both taken descending and paired
    by index; under degeneracy the eigenvector order is whatever the
    decomposition returns.
    """
    vals, vecs = eigh(check_hermitian(rho_prime))
    out, _ = _substitute_spectrum(vals, vecs, constraint)
    return out


@dataclass
class ConvergenceReport:
    """Distance trajectories of one solver run.

    marginal_dist is the rms Hilbert-Schmidt distance over the targets,
    spectral_dist the euclidean gap between the iterate's spectrum and
    the prescription, and total_dist their quadrature sum.

    In rank mode, warm_eigensteps counts the spectral steps taken from a
    warm-started top-r decomposition and eigh_fallbacks the steps where
    that decomposition was rejected (its Ritz residual stayed above
    RITZ_RESIDUAL_TOL after one restart) and a full eigh ran instead.
    The first step, spectra mode and rank >= dim - 1 always use eigh and
    count as neither.
    """

    iterations: int = 0
    steps: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    marginal_dist: np.ndarray = field(default_factory=lambda: np.zeros(0))
    spectral_dist: np.ndarray = field(default_factory=lambda: np.zeros(0))
    total_dist: np.ndarray = field(default_factory=lambda: np.zeros(0))
    runtime: float = 0.0
    converged: bool = False
    warm_eigensteps: int = 0
    eigh_fallbacks: int = 0

    def trajectory_rows(self):
        return [
            (int(n), float(dm), float(dl), float(dt))
            for n, dm, dl, dt in zip(
                self.steps, self.marginal_dist, self.spectral_dist, self.total_dist
            )
        ]


class _Trajectory:
    """Per-iteration recorder that halves its rate whenever it holds 10,000 points."""

    def __init__(self):
        self.stride = 1
        self.rows = []
        self.last = None

    def record(self, n, dm, dl, dt):
        self.last = (n, dm, dl, dt)
        if n % self.stride == 0:
            self.rows.append(self.last)
            if len(self.rows) >= 10000:
                self.rows = self.rows[::2]
                self.stride *= 2

    def report(self, runtime: float, converged: bool, **counts) -> ConvergenceReport:
        rows = list(self.rows)
        if self.last is not None and (not rows or rows[-1][0] != self.last[0]):
            rows.append(self.last)
        arr = np.asarray(rows, dtype=float) if rows else np.zeros((0, 4))
        return ConvergenceReport(
            iterations=int(self.last[0]) if self.last else 0,
            steps=arr[:, 0].astype(int),
            marginal_dist=arr[:, 1].copy(),
            spectral_dist=arr[:, 2].copy(),
            total_dist=arr[:, 3].copy(),
            runtime=runtime,
            converged=converged,
            **counts,
        )


def _marginal_distance(mat: np.ndarray, spec: MarginalSpec) -> tuple[float, list]:
    """Rms Hilbert-Schmidt distance of the target reductions of `mat`, and the reductions."""
    dims = [spec.local_dim] * spec.n_parties
    reductions = [partial_trace(mat, subset, dims=dims) for subset, _ in spec.targets]
    acc = 0.0
    for (_, sigma), got in zip(spec.targets, reductions):
        acc += hs_distance(sigma.matrix, got) ** 2
    return math.sqrt(acc / len(spec.targets)), reductions


def _seed_state(spec: MarginalSpec, rng, identity_seed: bool) -> np.ndarray:
    if identity_seed:
        return np.eye(spec.dim, dtype=complex) / spec.dim
    return _ginibre_state(spec.dim, spec.dim, rng)


def _top_eigenpairs(xp: np.ndarray, v0: np.ndarray):
    """Top-r eigenpairs of Hermitian `xp` (descending) from r orthonormal columns v0, or None.

    Rayleigh-Ritz on the block Krylov space of v0, up to KRYLOV_BLOCKS blocks.  A
    Householder QR of the basis and the next product gives columns orthonormal to the
    basis, also when that block collapses, and fewer once the basis fills the space.
    A Ritz residual above RITZ_RESIDUAL_TOL * ||xp||_F restarts once from the Ritz vectors.
    """
    r = v0.shape[1]
    for _ in range(2):
        q, xq = [v0], []
        for _ in range(KRYLOV_BLOCKS - 1):
            basis = np.hstack(q)
            xq.append(xp @ q[-1])
            q.append(np.linalg.qr(np.hstack([basis, xq[-1]]))[0][:, basis.shape[1]:])
        q, xq = np.hstack(q), np.hstack(xq + [xp @ q[-1]])
        w, u = np.linalg.eigh(q.conj().T @ xq)
        w, u = w[::-1][:r], u[:, ::-1][:, :r]
        v0 = q @ u
        if np.linalg.norm(xq @ u - v0 * w) <= RITZ_RESIDUAL_TOL * np.linalg.norm(xp):
            return w, v0
    return None


def _iterate(spec, constraint, accuracy, max_iterations, seed_mat, sweep):
    """Common outer loop: sweep marginals, project the spectrum, measure.

    `sweep` maps the current iterate and its reductions on the targets
    (None before the first step) to the post-imposition matrix; the plain
    solver passes impose_all and the accelerated one a damped stepper.
    Its output is exactly Hermitian because the iterate and the targets
    are, so it goes to the eigensolvers as is.  In rank mode
    with rank < dim - 1, every step after the first asks _top_eigenpairs
    for the top r pairs, warm-started from the previous iterate's
    vectors, and falls back to a full eigh when that answer is rejected.
    The spectral distance is then
        dl^2 = sum_{i<r} (w_i - l_i)^2 + ||X - V diag(w) V^dag||_F^2,
    the tail taken as that residual norm directly: ||X||_F^2 - sum w_i^2
    cancels and cannot resolve dl below about sqrt(eps).

    Raises NotConverged when the cap is hit and DegenerateIterate when
    the iterate stops being usable, both with the last good iterate and
    the trajectory so far attached as `result`.
    """
    if not (math.isfinite(accuracy) and accuracy > 0):
        raise InvalidInput("accuracy must be a positive finite number")
    if not spec.targets:
        raise InvalidInput("the problem needs at least one target marginal")
    if int(max_iterations) < 1:
        raise InvalidInput("max_iterations must be at least 1")
    t0 = time.perf_counter()
    traj = _Trajectory()
    counts = {"warm_eigensteps": 0, "eigh_fallbacks": 0}
    x = seed_mat
    rank = constraint.rank if constraint.mode == "rank" else None
    warm = None  # previous iterate's top-r eigenvectors, when a warm step may follow
    reductions = None  # of the current iterate, on each target subset
    converged = False
    n = 0

    def partial():
        report = traj.report(time.perf_counter() - t0, converged, **counts)
        return QuantumState(x, (spec.local_dim,) * spec.n_parties), report

    try:
        for n in range(1, int(max_iterations) + 1):
            xp = sweep(x, reductions)
            # the norm overflows well before the entries do
            with np.errstate(over="ignore", invalid="ignore"):
                finite = math.isfinite(np.linalg.norm(xp))
            if not finite:
                raise DegenerateIterate(
                    f"iterate diverged (its norm overflowed) at step {n}; "
                    "momentum too strong for this problem, reduce mu or beta_scale"
                )
            top = None
            if warm is not None:
                top = _top_eigenpairs(xp, warm)
                counts["eigh_fallbacks" if top is None else "warm_eigensteps"] += 1
            if top is None:
                vals, vecs = eigh(xp)
                x, lam = _substitute_spectrum(vals, vecs, constraint)
                dl = float(np.linalg.norm(vals - lam))
            else:
                vals, vecs = top
                x, lam = _substitute_spectrum(vals, vecs, constraint)
                tail = np.linalg.norm(xp - (vecs * vals) @ vecs.conj().T)
                dl = float(np.hypot(np.linalg.norm(vals - lam), tail))
            if rank is not None and rank < xp.shape[0] - 1:
                warm = vecs[:, :rank]
            dm, reductions = _marginal_distance(x, spec)
            dt = math.hypot(dm, dl)
            traj.record(n, dm, dl, dt)
            if dt <= accuracy:
                converged = True
                break
    except DegenerateIterate as exc:
        raise DegenerateIterate(str(exc), result=partial()) from None
    state, report = partial()
    if not converged:
        raise NotConverged(
            f"distance {report.total_dist[-1]:.3e} after {n} iterations",
            result=(state, report),
        )
    return state, report


def solve(
    spec: MarginalSpec,
    constraint: SpectralConstraint,
    accuracy: float = 1e-6,
    max_iterations: int = 50000,
    rng=None,
    identity_seed: bool = False,
):
    """Alternate marginal imposition with spectral projection to a fixed point.

    Starts from a Hilbert-Schmidt-random full-rank state (or I/d^N with
    identity_seed) and stops once the combined marginal-plus-spectral
    distance drops below `accuracy`.  Convergence certifies that a state
    with the prescribed data exists to that precision; spinning at a
    plateau above it is the typical signature of an infeasible
    prescription, though the method is heuristic and cannot prove
    nonexistence.
    """
    x0 = _seed_state(spec, as_rng(rng), identity_seed)
    return _iterate(spec, constraint, accuracy, max_iterations, x0,
                    lambda m, _: impose_all(m, spec))


@dataclass(frozen=True)
class HalpernSchedule:
    """Step policy for the accelerated iteration.

    mu damps the applied step, and alpha_n = (n/1e5 + 1)^(-exponent)
    decays both the step and the momentum weight beta_n = beta_scale *
    alpha_n^2.  exponent=0 pins alpha_n at 1 and, together with
    beta_scale=0 and mu=1, makes the accelerated iteration coincide with
    the plain one step for step.  alpha has no effect (it cancels).
    """

    alpha: float = 1.0
    mu: float = 1.0
    exponent: float = 1.0
    beta_scale: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise InvalidInput("schedule entries must be finite numbers")
        if self.alpha <= 0:
            raise InvalidInput("alpha must be positive")
        if not 0 < self.mu <= 1:
            raise InvalidInput("mu must lie in (0, 1]")
        if self.exponent < 0:
            raise InvalidInput("exponent must be nonnegative")
        if not 0 <= self.beta_scale <= 1:
            raise InvalidInput("beta_scale must lie in [0, 1]")

    def coefficients(self, n: int) -> tuple[float, float]:
        a = (n / 1e5 + 1.0) ** (-self.exponent)
        return a, self.beta_scale * a * a


def _cross_reduction(sub_l, sub_i, n_parties: int, d: int):
    """The map C(A) = Tr_{J_i^c}(A (x) I) for an operator A on the parties sub_l.

    C(A) = d^{N - |J_i u J_l|} (Tr_{J_l - J_i} A) (x) I_{J_i - J_l}, in the
    party order of J_i = sub_i, taken by one einsum: row digit p carries
    label p and column digit p label N + p, except on the parties traced
    out, where both carry p.
    """
    n = n_parties
    shape, di = (d,) * (2 * len(sub_l)), d ** len(sub_i)
    labels = list(sub_l) + [n + p if p in sub_i else p for p in sub_l]
    eyes = []
    for p in sub_i:
        if p not in sub_l:
            eyes += [np.eye(d, dtype=complex), [p, n + p]]
    out = list(sub_i) + [n + p for p in sub_i]
    scale = float(d ** (n - len(set(sub_l) | set(sub_i))))

    def reduce(block):
        return scale * np.einsum(block.reshape(shape), labels, *eyes, out).reshape(di, di)

    return reduce


def solve_accelerated(
    spec: MarginalSpec,
    constraint: SpectralConstraint,
    schedule: HalpernSchedule = HalpernSchedule(),
    accuracy: float = 1e-6,
    max_iterations: int = 50000,
    rng=None,
    identity_seed: bool = False,
):
    """Momentum-damped variant of solve.

    Each marginal substitution is applied as a relaxed step
        z <- (Q(x) - x) + beta_n z
        x <- x + mu alpha_n z
    with the accumulator z persisting across sweeps, then the spectral
    projection runs unchanged.  Accumulating (Q(x) - x)/alpha and
    stepping by mu alpha_n alpha z is the same update, so the schedule's
    alpha does not enter.  Full momentum with mu near 1 overshoots and
    usually diverges; that surfaces as DegenerateIterate rather than
    silent nonsense.

    Q(x) - x on target l is a block Z_l on its subset J_l tensored with
    the identity elsewhere, so z = sum_l Z_l (x) I is held as one
    d^|J_l| x d^|J_l| block per target, never as a D x D matrix.  Within
    a sweep the iterate is x_0 + s sum_l S_l (x) I, with s = mu alpha_n
    and S_l the running sum of Z_l over the sweep's steps so far, and its
    reduction on J_i is that of x_0 (taken by the distance measurement
    before the sweep) plus s sum_l C_il(S_l) (see _cross_reduction).  The
    sweep writes x_0 + s sum_l S_l (x) I once, at its end.
    """
    x0 = _seed_state(spec, as_rng(rng), identity_seed)
    n, d = spec.n_parties, spec.local_dim
    subsets = [subset for subset, _ in spec.targets]
    cross = [[_cross_reduction(sub_l, sub_i, n, d) for sub_l in subsets] for sub_i in subsets]
    blocks = [np.zeros_like(sigma.matrix) for _, sigma in spec.targets]
    sweeps = itertools.count()

    def sweep(x, reductions):
        a_n, b_n = schedule.coefficients(next(sweeps))
        step = schedule.mu * a_n
        if reductions is None:
            reductions = [partial_trace(x, subset, dims=(d,) * n) for subset in subsets]
        sums = [np.zeros_like(z) for z in blocks]
        x = x.copy()
        # non-finite values can legitimately appear mid-divergence; the
        # outer loop sees the norm overflow and raises, so keep numpy quiet here
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (subset, sigma) in enumerate(spec.targets):
                for z in blocks:
                    np.multiply(z, b_n, out=z)
                reduced = reductions[i]
                if i:  # the running sums are all zero before the first step
                    shift = sum(term(total) for term, total in zip(cross[i], sums))
                    reduced = reduced + step * shift
                blocks[i] += (sigma.matrix - reduced) * (1.0 / d ** (n - len(subset)))
                for total, z in zip(sums, blocks):
                    total += z
            for subset, total in zip(subsets, sums):
                k = len(subset)
                view = _complement_diagonal(x, subset, (d,) * n)
                view += (step * total).reshape((d,) * (2 * k) + (1,) * (n - k))
        return x

    return _iterate(spec, constraint, accuracy, max_iterations, x0, sweep)


def _npm_trial(n_parties, k, local_dim, m, generator, rng) -> bool:
    d = local_dim
    subsets = list(itertools.combinations(range(n_parties), k))
    if generator == "pure":
        gen = random_pure_state((d,) * n_parties, rng)
    else:
        gen = random_mixed_state((d,) * n_parties, rng)
    picked = rng.choice(len(subsets), size=m, replace=False) if m else []
    spec = spec_from_generator(gen, [subsets[int(i)] for i in picked])
    dim = d**n_parties
    if len(spec) == 0:
        return True
    out = impose_all(np.eye(dim, dtype=complex) / dim, spec)
    return float(np.linalg.eigvalsh(out)[0]) >= PSD_WITNESS_TOL


def npm_sweep(
    n_parties: int,
    k: int,
    local_dim: int,
    m_values,
    trials: int,
    generator: str = "full-rank",
    rng=None,
):
    """Count PSD outcomes of imposing m random k-body reductions on I/d^N.

    For each m, every trial draws a fresh generator state, selects m of
    the C(N,k) subsets at random, and checks whether the one-shot
    composition is already positive.  Full-rank mixed generators succeed
    often and increasingly so at larger d; Haar-random pure generators
    almost never do.  Each trial draws from its own rng stream, spawned
    in (m, trial) order, which keeps the counts of earlier releases.
    """
    if not 1 <= k < n_parties:
        raise InvalidInput("need 1 <= k < n_parties")
    _check_dimension(n_parties, local_dim)
    if generator not in ("pure", "full-rank"):
        raise InvalidInput(f"unknown generator mode {generator!r}")
    if trials < 1:
        raise InvalidInput("trials must be positive")
    n_subsets = math.comb(n_parties, k)
    m_list = []
    for m in map(int, m_values):  # one at a time, so a long range stops at its first bad m
        if not 0 <= m <= n_subsets:
            m_list = []
            break
        m_list.append(m)
    if not m_list:
        raise InvalidInput(f"need at least one m value, each in 0..{n_subsets}")
    parent = as_rng(rng)
    # one stream spawned as each trial starts: the streams of one spawn of them all
    return [
        (m, sum(_npm_trial(n_parties, k, local_dim, m, generator, parent.spawn(1)[0])
                for _ in range(trials)))
        for m in m_list
    ]


def problem_from_dict(obj: dict, base_dir=None) -> tuple[MarginalSpec, SpectralConstraint]:
    """Parse {"N", "d", "targets", "constraint"} into solver inputs.

    A target state may be an inline matrix dict, a path to a JSON file
    holding one, or the token "maximally-mixed".
    """
    try:
        n = config_number(obj["N"], int, "'N'")
        d = config_number(obj["d"], int, "'d'")
        raw_targets = [
            (tuple(config_number(i, int, "a subset entry") for i in entry["subset"]),
             entry["state"])
            for entry in obj["targets"]
        ]
        raw_constraint = obj["constraint"]
        if "rank" in raw_constraint:
            constraint = SpectralConstraint.with_rank(
                config_number(raw_constraint["rank"], int, "'rank'"))
        elif "spectra" in raw_constraint:
            constraint = SpectralConstraint.with_spectrum(
                config_array(raw_constraint["spectra"], "'spectra'"))
        else:
            raise InvalidInput("constraint must carry 'rank' or 'spectra'")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed problem description: {exc}") from exc
    _check_dimension(n, d)
    targets = []
    for subset, state in raw_targets:
        if state == "maximally-mixed":
            dk = d ** len(_check_subset(subset, n))
            mat = np.eye(dk, dtype=complex) / dk
        else:
            mat = load_ref(state, base_dir, matrix_from_dict)
        targets.append((subset, mat))
    return MarginalSpec(n, d, targets), constraint
