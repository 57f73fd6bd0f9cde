"""Bell inequality machinery for two parties.

Covers exact LHV bounds by deterministic enumeration, inequality values
on experimental counts with Poissonian error propagation, gap-ratio
maximization over the coefficient box, outcome-0 canonical forms and
detection-efficiency thresholds.

The gap ratio is concave over affine in the coefficients, so after the
Charnes-Cooper substitution its maximization is a linear program (the
LHV value lifted to d^m (m d + 1) sparse rows, the box) plus one
Euclidean norm, the Poisson error.  `maximize_gap` solves it with
HiGHS, replacing the norm by cutting planes added where each LP lands
(Kelley); every LP value bounds the global maximum from above, which
certifies the result.

Conventions: settings x, y and outcomes a, b are 0-based; marginal
probabilities are always the average over the other party's settings,
p_A(a|x) = m^-1 sum_y sum_b p(ab|xy).  An inequality value is

    Q = sum s[x,y,a,b] p(ab|xy) + sum sA[x,a] p_A(a|x) + sum sB[y,b] p_B(b|y).
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    InvalidInput,
    NotViolatedAtAnyEfficiency,
    QopError,
    TooLargeScenario,
    UnsupportedOutcomes,
)
from .mathcore import _PAULIS, MeasurementSet, QuantumState, as_rng, config_array, config_number

ENUMERATION_GUARD = 10**8
# lifted LHV rows d^m (m d + 1) the gap search builds at most.  Searches
# past the old dense guard run: (6,3), 13,851 rows, took 11.2 s in 20 LP
# rounds and (5,4), 21,504 rows, 34.2 s in 22 rounds (perfbench counts
# recipe, 2-vCPU Xeon VM, one BLAS thread); (4,6) has 32,400
LIFTED_ROW_GUARD = 25_000
GAP_TOL = 1e-9  # certificate gap (LP bound minus exact ratio) at which the gap search stops
GAP_ROUND_CAP = 200  # linear programs the gap search solves at most
# HiGHS primal and dual feasibility tolerances of the gap search LPs: at the
# default 1e-7 an LP point may violate its own cut by more than GAP_TOL, and
# the same cut then comes back every round
LP_TOL = 1e-10


@dataclass(frozen=True)
class BellScenario:
    """Two parties, m settings and d outcomes per party."""

    settings: int
    outcomes: int

    def __post_init__(self):
        m, d = int(self.settings), int(self.outcomes)
        if m < 1 or d < 2:
            raise InvalidInput("need settings >= 1 and outcomes >= 2")
        object.__setattr__(self, "settings", m)
        object.__setattr__(self, "outcomes", d)

    @property
    def strategy_count(self) -> int:
        return self.outcomes ** (2 * self.settings)


def _coerce_table(arr, m: int, d: int, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.shape != (m, m, d, d):
        raise InvalidInput(f"{name} must have shape (m, m, d, d) = {(m, m, d, d)}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class BellInequality:
    """Coefficients of a linear Bell functional plus an optional known bound.

    joint[x, y, a, b] weights p(ab|xy); marg_a[x, a] and marg_b[y, b]
    weight the averaged marginals.  The gap optimizer confines its
    search to coefficients in [-1, 1]; constructed inequalities (e.g.
    the tilted family) may legitimately live outside that box, so the
    constructor only checks shapes.
    """

    joint: np.ndarray
    marg_a: np.ndarray
    marg_b: np.ndarray
    scenario: BellScenario
    bound: float | None = None

    def __post_init__(self):
        sc = self.scenario
        m, d = sc.settings, sc.outcomes
        joint = _coerce_table(self.joint, m, d, "joint")
        ma = np.asarray(self.marg_a, dtype=float)
        mb = np.asarray(self.marg_b, dtype=float)
        if ma.shape != (m, d) or mb.shape != (m, d):
            raise InvalidInput("marginal coefficient arrays must have shape (m, d)")
        if not (np.all(np.isfinite(ma)) and np.all(np.isfinite(mb))):
            raise InvalidInput("marginal coefficients contain non-finite entries")
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "marg_a", ma)
        object.__setattr__(self, "marg_b", mb)
        if self.bound is not None:
            if not math.isfinite(float(self.bound)):
                raise InvalidInput("bound must be finite")
            object.__setattr__(self, "bound", float(self.bound))

    @classmethod
    def zero(cls, scenario: BellScenario) -> "BellInequality":
        m, d = scenario.settings, scenario.outcomes
        return cls(np.zeros((m, m, d, d)), np.zeros((m, d)), np.zeros((m, d)), scenario)


@dataclass(frozen=True)
class BehaviorTable:
    """Joint conditional probabilities p[x, y, a, b], normalized per setting."""

    table: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=float)
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise InvalidInput("behavior must have shape (m, m, d, d)")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("behavior contains non-finite entries")
        if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
            raise InvalidInput("behavior entries must lie in [0, 1]")
        sums = arr.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise InvalidInput("behavior not normalized per setting within 1e-9")
        object.__setattr__(self, "table", np.clip(arr, 0.0, 1.0))

    @property
    def settings(self) -> int:
        return self.table.shape[0]

    @property
    def outcomes(self) -> int:
        return self.table.shape[2]

    def marginal_a(self) -> np.ndarray:
        """p_A(a|x), averaged over y."""
        return self.table.sum(axis=3).mean(axis=1)

    def marginal_b(self) -> np.ndarray:
        """p_B(b|y), averaged over x."""
        return self.table.sum(axis=2).mean(axis=0)


@dataclass(frozen=True)
class CountsTable:
    """Coincidence counts c[x, y, a, b] with a positive total per setting."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=float)
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise InvalidInput("counts must have shape (m, m, d, d)")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise InvalidInput("counts must be finite and nonnegative")
        if np.any(arr.sum(axis=(2, 3)) <= 0):
            raise InvalidInput("every setting pair needs a positive total count")
        object.__setattr__(self, "counts", arr)

    @property
    def settings(self) -> int:
        return self.counts.shape[0]

    @property
    def outcomes(self) -> int:
        return self.counts.shape[2]

    @property
    def scenario(self) -> BellScenario:
        return BellScenario(self.settings, self.outcomes)

    def behavior(self) -> BehaviorTable:
        totals = self.counts.sum(axis=(2, 3), keepdims=True)
        return BehaviorTable(self.counts / totals)

    @classmethod
    def sample(cls, behavior: BehaviorTable, mean_per_setting: float, rng) -> "CountsTable":
        """Poisson counts with mean mean_per_setting * p(ab|xy)."""
        rng = as_rng(rng)
        lam = np.clip(behavior.table, 0.0, None) * float(mean_per_setting)
        counts = rng.poisson(lam).astype(float)
        # a fully dark setting breaks normalization downstream; give it one event
        for x, y in np.ndindex(counts.shape[0], counts.shape[1]):
            if counts[x, y].sum() == 0:
                counts[x, y, 0, 0] = 1.0
        return cls(counts)


def _unstack_coefficients(s: np.ndarray, scenario: BellScenario, bound=None) -> BellInequality:
    m, d = scenario.settings, scenario.outcomes
    nj = m * m * d * d
    nm = m * d
    joint = s[:nj].reshape(m, m, d, d)
    marg_a = s[nj:nj + nm].reshape(m, d)
    marg_b = s[nj + nm:].reshape(m, d)
    return BellInequality(joint, marg_a, marg_b, scenario, bound)


@functools.lru_cache(maxsize=16)
def _assignments(m: int, d: int) -> np.ndarray:
    """One-hot table of every map x -> a(x), shape (d^m, m, d), in np.ndindex order.

    Built once per (m, d), since the gap search bounds a candidate every
    round; the table is shared between callers, so it is read-only.
    """
    digits = np.indices((d,) * m).reshape(m, -1).T
    table = np.eye(d)[digits]
    table.setflags(write=False)
    return table


def _features(table: np.ndarray) -> np.ndarray:
    """Coefficient-space image [p, p_A, p_B] of [..., x, y, a, b] tables.

    Marginals are averaged over the other party's settings, so the value
    of an inequality with stacked coefficients s is s . _features(p).
    """
    lead = table.shape[:-4]
    return np.concatenate([
        table.reshape(*lead, -1),
        table.sum(axis=-1).mean(axis=-2).reshape(*lead, -1),
        table.sum(axis=-2).mean(axis=-3).reshape(*lead, -1),
    ], axis=-1)


def lhv_bound(ineq: BellInequality) -> float:
    """Exact maximum of the functional over local deterministic strategies.

    For a fixed assignment x -> a(x) the best responses b(y) decouple
    per setting, so only the d^m Alice assignments are enumerated.
    """
    sc = ineq.scenario
    m, d = sc.settings, sc.outcomes
    if sc.strategy_count > ENUMERATION_GUARD:
        raise TooLargeScenario(f"{sc.strategy_count} deterministic strategies exceed guard")
    alice = _assignments(m, d).reshape(d**m, m * d)
    with np.errstate(over="ignore", invalid="ignore"):
        # Bob's coefficients once Alice answers a(x): shape (d^m, m, d) over (y, b)
        bob = alice @ ineq.joint.transpose(0, 2, 1, 3).reshape(m * d, m * d)
        bob = bob.reshape(-1, m, d) + ineq.marg_b
        bound = float(np.max(alice @ ineq.marg_a.ravel() + bob.max(axis=2).sum(axis=1)))
    if not math.isfinite(bound):
        raise InvalidInput("the LHV bound overflows a float; scale the coefficients down")
    return bound


def _cell_weights(ineq: BellInequality) -> np.ndarray:
    """w[x,y,a,b] = s[x,y,a,b] + (sA[x,a] + sB[y,b]) / m."""
    m = ineq.scenario.settings
    return (
        ineq.joint
        + ineq.marg_a[:, None, :, None] / m
        + ineq.marg_b[None, :, None, :] / m
    )


def quantum_value(ineq: BellInequality, counts: CountsTable) -> tuple[float, float]:
    """Inequality value on measured counts and its Poissonian error bar.

    Q reads each setting's probabilities off the counts; the error
    assumes independent Poisson statistics per coincidence cell and
    propagates through the normalization, so cells only compete with
    their own setting's total.
    """
    if counts.scenario != ineq.scenario:
        raise InvalidInput("counts and inequality describe different scenarios")
    c = counts.counts
    totals = c.sum(axis=(2, 3), keepdims=True)
    p = c / totals
    w = _cell_weights(ineq)
    q = float((w * p).sum())
    setting_avg = (w * p).sum(axis=(2, 3), keepdims=True)
    partials = (w - setting_avg) / totals
    dq = float(np.sqrt((partials**2 * c).sum()))
    return q, dq


def behavior_value(ineq: BellInequality, behavior: BehaviorTable) -> float:
    """Inequality value on exact probabilities (no error bar)."""
    return float((_cell_weights(ineq) * behavior.table).sum())


def behavior_from_state(
    state: QuantumState,
    settings_a: Sequence[MeasurementSet],
    settings_b: Sequence[MeasurementSet],
) -> BehaviorTable:
    """Born probabilities p(ab|xy) = Tr[rho (E_a^x o F_b^y)], one contraction for all cells."""
    if len(settings_a) != len(settings_b) or not settings_a:
        raise InvalidInput("need equally many settings per party")
    d = len(settings_a[0])
    if any(len(s) != d for s in (*settings_a, *settings_b)):
        raise InvalidInput("all settings need the same outcome count")
    da, db = settings_a[0].dim, settings_b[0].dim
    if any(s.dim != da for s in settings_a) or any(s.dim != db for s in settings_b):
        raise InvalidInput("each party's settings need one dimension")
    if da * db != state.dim:
        raise InvalidInput("state dimension does not factor into the settings' dims")
    effects_a = np.stack([s.effects for s in settings_a])
    effects_b = np.stack([s.effects for s in settings_b])
    rho = state.matrix.reshape(da, db, da, db)
    table = np.einsum("ikjl,xaji,yblk->xyab", rho, effects_a, effects_b).real
    return BehaviorTable(np.clip(table, 0.0, 1.0))


class GapResult(NamedTuple):
    inequality: BellInequality
    ratio: float
    quantum: float
    error: float
    classical: float
    upper_bound: float  # no coefficients in the box reach a higher ratio
    rounds: int  # linear programs solved
    round_cap_hit: bool  # the search stopped because it ran GAP_ROUND_CAP rounds
    lp_seconds: float  # time spent in the LP solves


def _gap_pieces(counts: CountsTable):
    """Precompute the linear/quadratic data behind Q(s), dQ(s) on fixed counts."""
    c = counts.counts
    totals = c.sum(axis=(2, 3), keepdims=True)
    p = c / totals
    # Q(s) = q_vec . s
    q_vec = _features(p)
    # dQ(s) = |G s|; one row per coincidence cell, scaled by sqrt(count)
    cell_jac = _features(np.eye(c.size).reshape(c.shape * 2))
    setting_mean = (cell_jac * p[..., None]).sum(axis=(2, 3), keepdims=True)
    g = (cell_jac - setting_mean) / totals[..., None]
    g = g * np.sqrt(c)[..., None]
    return q_vec, g.reshape(-1, q_vec.size)


@functools.lru_cache(maxsize=16)
def _lifted_lp(m: int, d: int):
    """Rows, right-hand sides and bounds of the gap search LP over z = (y, tau, r, u).

    The LHV value max_k v_k . y is lifted exactly: with one free u[alpha, y]
    per Alice assignment alpha and Bob setting y, Bob's best answer b(y)
    decouples, as in lhv_bound, into the rows

        sum_x y_J[x, y, alpha(x), b] + y_B[y, b] - u[alpha, y] <= 0     (alpha, y, b)
        sum_x y_A[x, alpha(x)] + sum_y u[alpha, y] + dm tau   <= 1     (alpha)

    followed by the box -tau <= y_i <= tau, so d^m (m d + 1) sparse rows
    stand in for the d^(2m) dense strategy rows.  Built once per (m, d) and
    shared between searches, so every array is read-only.
    """
    count = d**m
    if count * (m * d + 1) > LIFTED_ROW_GUARD:
        raise TooLargeScenario(
            f"{count * (m * d + 1)} lifted strategy rows exceed the gap search guard "
            f"of {LIFTED_ROW_GUARD}"
        )
    from scipy.sparse import coo_array

    nj, nm = m * m * d * d, m * d
    n = nj + 2 * nm
    tau, cols = n, n + 2 + count * m
    alpha = _assignments(m, d).argmax(axis=2)  # (count, x) -> alpha(x)
    # (alpha, y, b) rows first: m joint entries, then y_B[y, b] and -u[alpha, y]
    k, y, b, x = np.ix_(range(count), range(m), range(d), range(m))
    pair_cols = np.concatenate([
        np.broadcast_to(((x * m + y) * d + alpha[k, x]) * d + b, (count, m, d, m)),
        np.broadcast_to(nj + nm + y * d + b, (count, m, d, 1)),
        np.broadcast_to(n + 2 + k * m + y, (count, m, d, 1)),
    ], axis=3)
    pair_rows = np.broadcast_to((k * m + y) * d + b, pair_cols.shape)
    pair_vals = np.broadcast_to(np.r_[np.ones(m + 1), -1.0], pair_cols.shape)
    # then one row per alpha: y_A[x, alpha(x)], u[alpha, y] and dm tau
    k, x = np.ix_(range(count), range(m))
    alpha_cols = np.concatenate([nj + x * d + alpha, n + 2 + k * m + x,
                                 np.full((count, 1), tau)], axis=1)
    alpha_rows = np.broadcast_to(count * m * d + k, alpha_cols.shape)
    alpha_vals = np.broadcast_to(np.r_[np.ones(2 * m), float(nm)], alpha_cols.shape)
    # then the box: y_i - tau <= 0, then -y_i - tau <= 0
    first_box = count * (m * d + 1)
    box_rows = np.tile(first_box + np.arange(2 * n), 2)
    box_cols = np.concatenate([np.tile(np.arange(n), 2), np.full(2 * n, tau)])
    box_vals = np.concatenate([np.ones(n), -np.ones(n), -np.ones(2 * n)])
    rows = coo_array(
        (np.concatenate([pair_vals.ravel(), alpha_vals.ravel(), box_vals]),
         (np.concatenate([pair_rows.ravel(), alpha_rows.ravel(), box_rows]),
          np.concatenate([pair_cols.ravel(), alpha_cols.ravel(), box_cols]))),
        shape=(first_box + 2 * n, cols),
    ).tocsc()
    rhs = np.zeros(rows.shape[0])
    rhs[count * m * d:first_box] = 1.0
    bounds = np.full((cols, 2), (-np.inf, np.inf))
    bounds[tau] = (0.0, 1.0 / nm)
    bounds[tau + 1, 0] = 0.0
    for arr in (rows.data, rows.indices, rows.indptr, rhs, bounds):
        arr.setflags(write=False)
    return rows, rhs, bounds


def _highs():
    """HiGHS's own bindings, which scipy bundles since 1.15.

    Only the gap search needs scipy, so it is imported here, on the first
    search, and not with this module: importing scipy.optimize loads
    hundreds of modules, which every other command would pay for at start.
    """
    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        raise QopError(f"bell-optimize needs scipy >= 1.15 (HiGHS bindings): {exc}") from None
    return _core


class _GapLP:
    """max objective . z subject to rows z <= rhs, bounds and the norm cuts added so far.

    rows is a scipy CSC array, handed to HiGHS as it is.  One model lives
    for the whole search and each cut is appended as a row, so the dual
    simplex restarts from the last optimal basis.
    """

    def __init__(self, objective, rows, rhs, bounds):
        self.highs = _highs()  # imports scipy here, outside the timed solves
        self.seconds = 0.0
        lp = self.highs.HighsLp()
        lp.num_row_, lp.num_col_ = rows.shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = rows.shape
        lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = (
            rows.indptr, rows.indices, rows.data)
        lp.col_cost_ = -objective
        lp.col_lower_, lp.col_upper_ = bounds[:, 0], bounds[:, 1]
        lp.row_lower_, lp.row_upper_ = np.full(rows.shape[0], -np.inf), rhs
        self.model = self.highs._Highs()
        self.model.setOptionValue("output_flag", False)
        self.model.setOptionValue("primal_feasibility_tolerance", LP_TOL)
        self.model.setOptionValue("dual_feasibility_tolerance", LP_TOL)
        self.model.passModel(lp)

    def add_cut(self, row: np.ndarray) -> None:
        """Add the row row . z <= 0; columns past the end of row are zero."""
        index = np.flatnonzero(row).astype(np.int32)
        self.model.addRow(-np.inf, 0.0, index.size, index, row[index])

    def solve(self) -> tuple[np.ndarray, float]:
        """An optimal point z and the optimal value."""
        started = time.perf_counter()
        self.model.run()
        status = self.model.getModelStatus()
        if status != self.highs.HighsModelStatus.kOptimal:
            raise QopError(f"gap search LP failed: {self.model.modelStatusToString(status)}")
        x = np.array(self.model.getSolution().col_value)
        fun = self.model.getInfo().objective_function_value
        self.seconds += time.perf_counter() - started
        return x, -float(fun)


def maximize_gap(counts: CountsTable, trials: int = 20, rng=None) -> GapResult:
    """Find the coefficients in the box [-1, 1] with the largest certification ratio.

    The ratio is R(s) = (Q - dQ + dm) / (C + dm) with dm = d * m,
    Q = q . s the value on the counts, dQ = |G s| its Poisson error and
    C >= 0 the LHV value of s (the ratio's certification reading rescales
    inequalities to a positive LHV value; without the sign constraint the
    literal objective diverges toward C = -dm).  C is a max over the
    deterministic strategies v_k, so it enters through a bound t >= v_k . s,
    and the substitution y = tau s, tau = 1 / (t + dm) (Charnes and
    Cooper) turns the ratio into the convex program

        max q . y - |G y| + dm tau   subject to   v_k . y + dm tau <= 1,
                                                  -tau <= y_i <= tau,
                                                  0 <= tau <= 1 / dm.

    The LP holds the strategy rows in their lifted form (`_lifted_lp`):
    d^m (m d + 1) sparse rows over one extra free variable per Alice
    assignment and Bob setting, with the same optimum as the d^(2m)
    rows above.  The norm is replaced by an epigraph variable
    r >= |G y| which only sees cutting planes r >= w . G y,
    w = G y / |G y| at the points the linear programs visit (Kelley).
    Every cut underestimates the norm, so each LP value bounds the
    global maximum from above; each LP
    solution s = clip(y / tau) is scored exactly, and the search stops
    once no cut is violated or the LP value is within GAP_TOL of the best
    exact ratio, or after GAP_ROUND_CAP rounds.  The returned
    upper_bound is the last LP value: upper_bound - ratio certifies how
    far the result can be from the global maximum.  The returned quantum,
    error and classical are the Q, dQ and C the winner was scored with,
    so ratio = (quantum - error + dm) / (classical + dm) holds exactly.

    A candidate counts only if its exact LHV value is >= -1e-9 and its
    ratio beats 1; otherwise the zero inequality (R = 1) is returned.
    On exact local data Q(s) <= C(s) for every s, so the ratio never
    exceeds 1; genuinely nonlocal data admits R > 1.  The program is
    convex and solved to its global maximum, so trials (still checked
    to be >= 1) and rng do not affect the result.
    """
    if int(trials) < 1:
        raise InvalidInput("trials must be at least 1")
    sc = counts.scenario
    dm = float(sc.outcomes * sc.settings)
    # the row guard first: the cell arrays of _gap_pieces grow as (m d)^4
    rows, rhs, bounds = _lifted_lp(sc.settings, sc.outcomes)
    q_vec, g = _gap_pieces(counts)
    n = q_vec.size
    # variables z = (y, tau, r, u); only y, tau and r enter the objective and the cuts
    objective = np.zeros(rows.shape[1])
    objective[:n + 2] = np.concatenate([q_vec, [dm, -1.0]])
    lp = _GapLP(objective, rows, rhs, bounds)

    best = (1.0, np.zeros(n), 0.0, 0.0, 0.0)  # ratio, s, C, Q, dQ of the best candidate
    capped = False
    for rounds in range(1, GAP_ROUND_CAP + 1):
        z, upper = lp.solve()
        y, tau, r = z[:n], z[n], z[n + 1]
        sol = np.clip(y / tau, -1.0, 1.0)
        c = lhv_bound(_unstack_coefficients(sol, sc))
        if c >= -1e-9:  # feasible candidates only
            q, dq = float(q_vec @ sol), float(np.linalg.norm(g @ sol))
            value = (q - dq + dm) / (c + dm)
            if value > best[0]:
                best = (value, sol, c, q, dq)
        gy = g @ y
        norm = float(np.linalg.norm(gy))
        if norm - r <= GAP_TOL or upper - best[0] <= GAP_TOL:
            break
        lp.add_cut(np.concatenate([gy @ g / norm, [0.0, -1.0]]))
    else:
        capped = True
    ratio, sol, c, q, dq = best
    return GapResult(_unstack_coefficients(sol, sc, bound=c), ratio, q, dq, c, upper, rounds,
                     capped, lp.seconds)


class TiltedFamily(NamedTuple):
    inequality: BellInequality
    lhv: float
    quantum: float
    state: QuantumState
    settings_a: list[MeasurementSet]
    settings_b: list[MeasurementSet]


def _qubit_basis(direction: np.ndarray) -> MeasurementSet:
    """Two-outcome PVM of (I +/- n.sigma)/2; outcome 0 is the + eigenvector."""
    obs = direction[0] * _PAULIS[1] + direction[1] * _PAULIS[2] + direction[2] * _PAULIS[3]
    eye = np.eye(2)
    return MeasurementSet([(eye + obs) / 2, (eye - obs) / 2])


def tilted_inequality(alpha: float) -> TiltedFamily:
    """The one-parameter tilted family with its optimal realization.

    alpha [p_A(0|0) - p_A(1|0)] + sum (-1)^(xy) [p(a=b|xy) - p(a!=b|xy)]
    has LHV bound alpha + 2 and quantum maximum sqrt(8 + 2 alpha^2),
    reached by a partially entangled pure state; alpha = 0 is CHSH,
    alpha = 2 is classical.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 2.0:
        raise InvalidInput("alpha must lie in [0, 2]")
    sc = BellScenario(2, 2)
    joint = np.zeros((2, 2, 2, 2))
    for x, y, a, b in np.ndindex(2, 2, 2, 2):
        joint[x, y, a, b] = (-1.0) ** (x * y) * (1.0 if a == b else -1.0)
    marg_a = np.zeros((2, 2))
    marg_a[0, 0] = alpha
    marg_a[0, 1] = -alpha
    ineq = BellInequality(joint, marg_a, np.zeros((2, 2)), sc, bound=alpha + 2.0)

    ratio = math.sqrt((1 - (alpha / 2) ** 2) / (1 + (alpha / 2) ** 2))
    theta = 0.5 * math.asin(ratio)
    mu = math.atan(ratio)
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = math.cos(theta), math.sin(theta)
    state = QuantumState(np.outer(psi, psi.conj()), (2, 2))
    settings_a = [_qubit_basis(np.array([0.0, 0.0, 1.0])), _qubit_basis(np.array([1.0, 0.0, 0.0]))]
    settings_b = [
        _qubit_basis(np.array([math.sin(mu), 0.0, math.cos(mu)])),
        _qubit_basis(np.array([-math.sin(mu), 0.0, math.cos(mu)])),
    ]
    return TiltedFamily(ineq, alpha + 2.0, math.sqrt(8 + 2 * alpha**2), state, settings_a, settings_b)


def canonical_form(ineq: BellInequality, scale: float = 1.0) -> BellInequality:
    """Rewrite a two-outcome inequality in terms of outcome-0 probabilities.

    Uses p(01|xy) = p_A(0|x) - p(00|xy) and friends to eliminate every
    outcome-1 probability; the leftover constant is absorbed into the
    bound, so original and canonical values agree (up to the overall
    scale) on every no-signaling behavior.  The bound transforms to
    scale * (C - const); it is computed exactly if the input carries
    none.
    """
    if ineq.scenario.outcomes != 2:
        raise UnsupportedOutcomes("canonical form needs two outcomes per party")
    m = ineq.scenario.settings
    s = ineq.joint
    j00 = s[:, :, 0, 0] - s[:, :, 0, 1] - s[:, :, 1, 0] + s[:, :, 1, 1]
    a0 = ineq.marg_a[:, 0] - ineq.marg_a[:, 1] + (s[:, :, 0, 1] - s[:, :, 1, 1]).sum(axis=1)
    b0 = ineq.marg_b[:, 0] - ineq.marg_b[:, 1] + (s[:, :, 1, 0] - s[:, :, 1, 1]).sum(axis=0)
    const = float(s[:, :, 1, 1].sum() + ineq.marg_a[:, 1].sum() + ineq.marg_b[:, 1].sum())
    bound = ineq.bound if ineq.bound is not None else lhv_bound(ineq)

    joint = np.zeros((m, m, 2, 2))
    joint[:, :, 0, 0] = scale * j00
    marg_a = np.zeros((m, 2))
    marg_a[:, 0] = scale * a0
    marg_b = np.zeros((m, 2))
    marg_b[:, 0] = scale * b0
    return BellInequality(joint, marg_a, marg_b, ineq.scenario, bound=scale * (bound - const))


def efficiency_threshold(
    ineq: BellInequality,
    behavior: BehaviorTable,
    mode: str = "symmetric",
) -> float:
    """Minimum detector efficiency at which the data still violates.

    The inequality must be in canonical (outcome-0) form; lost events
    count as outcome 1 there, so finite efficiency simply rescales
    p(00|xy) by etaA etaB and the marginals by their party's eta.
    Solves etaA etaB J + etaA MA + etaB MB = C for eta in (0, 1], with
    etaA = etaB (symmetric) or etaB = 1 (asymmetricB1).
    """
    if ineq.scenario.outcomes != 2:
        raise UnsupportedOutcomes("efficiency analysis needs two outcomes")
    nontrivial = (
        np.any(ineq.joint[:, :, 0, 1:]) or np.any(ineq.joint[:, :, 1:, :])
        or np.any(ineq.marg_a[:, 1:]) or np.any(ineq.marg_b[:, 1:])
    )
    if nontrivial:
        raise InvalidInput("inequality is not in canonical outcome-0 form")
    if behavior.settings != ineq.scenario.settings or behavior.outcomes != 2:
        raise InvalidInput("behavior does not match the inequality's scenario")

    j = float((ineq.joint[:, :, 0, 0] * behavior.table[:, :, 0, 0]).sum())
    ma = float((ineq.marg_a[:, 0] * behavior.marginal_a()[:, 0]).sum())
    mb = float((ineq.marg_b[:, 0] * behavior.marginal_b()[:, 0]).sum())
    c = ineq.bound if ineq.bound is not None else lhv_bound(ineq)

    eps = 1e-9
    if mode == "symmetric":
        roots = [r.real for r in np.roots([j, ma + mb, -c]) if abs(r.imag) < 1e-12]
    elif mode == "asymmetricB1":
        denom = j + ma
        roots = [] if abs(denom) < 1e-15 else [(c - mb) / denom]
    else:
        raise InvalidInput(f"unknown mode {mode!r}")
    feasible = [r for r in roots if eps < r <= 1.0 + 1e-12]
    if not feasible:
        raise NotViolatedAtAnyEfficiency(f"no efficiency in (0, 1] solves the {mode} threshold")
    return float(min(min(feasible), 1.0))


def format_inequality(ineq: BellInequality) -> str:
    """Human-readable signed-coefficient form, joints then marginals, 4 decimals."""
    parts = []

    def push(coeff, label):
        if abs(coeff) < 5e-5:  # would print as 0.0000
            return
        sign = "-" if coeff < 0 else "+"
        parts.append(f"{sign} {abs(coeff):.4f} {label}")

    m, d = ineq.scenario.settings, ineq.scenario.outcomes
    for x, y in np.ndindex(m, m):
        for a, b in np.ndindex(d, d):
            push(ineq.joint[x, y, a, b], f"p({a}{b}|{x}{y})")
    for x in range(m):
        for a in range(d):
            push(ineq.marg_a[x, a], f"pA({a}|{x})")
    for y in range(m):
        for b in range(d):
            push(ineq.marg_b[y, b], f"pB({b}|{y})")
    if not parts:
        parts = ["+ 0"]
    text = " ".join(parts).lstrip("+ ")
    if ineq.bound is not None:
        text += f" <= {ineq.bound:.4f}"
    return text


def _table_from_dict(obj: dict, key: str) -> np.ndarray:
    """Decode {"m", "d", key: {"x,y": [[...d x d...]], ...}} into an (m, m, d, d) array."""
    try:
        m, d = config_number(obj["m"], int, "'m'"), config_number(obj["d"], int, "'d'")
        entries = obj[key]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed {key} file: {exc}") from exc
    if not isinstance(entries, dict):
        raise InvalidInput(f"{key} must be an object keyed by 'x,y', got {type(entries).__name__}")
    blocks = {}
    for cell, block in entries.items():
        try:
            x, y = (int(t) for t in str(cell).split(","))
        except ValueError:
            raise InvalidInput(f"{key} key {cell!r} is not of the form 'x,y'") from None
        if not (0 <= x < m and 0 <= y < m):
            raise InvalidInput(f"{key} key {cell!r} outside {m} settings")
        arr = config_array(block, f"{key} block {cell!r}")
        if arr.shape != (d, d):
            raise InvalidInput(f"{key} block {cell!r} has shape {arr.shape}, expected ({d}, {d})")
        blocks[x, y] = arr
    if len(blocks) != m * m:
        raise InvalidInput(f"{key} must cover all {m*m} setting pairs")
    # allocated only now, so the table is no larger than the blocks read
    out = np.zeros((m, m, d, d))
    for (x, y), arr in blocks.items():
        out[x, y] = arr
    return out


def counts_from_dict(obj: dict) -> CountsTable:
    """Parse {"m", "d", "counts": {"x,y": [[...]], ...}}."""
    return CountsTable(_table_from_dict(obj, "counts"))


def counts_to_dict(counts: CountsTable) -> dict:
    """Encode as {"m", "d", "counts": {"x,y": [[...]], ...}}, the form counts_from_dict reads."""
    arr = counts.counts
    m, d = arr.shape[0], arr.shape[2]
    blocks = {f"{x},{y}": arr[x, y].tolist() for x, y in np.ndindex(m, m)}
    return {"m": m, "d": d, "counts": blocks}


def behavior_from_dict(obj: dict) -> BehaviorTable:
    """Parse {"m", "d", "behavior": {"x,y": [[...]], ...}}."""
    return BehaviorTable(_table_from_dict(obj, "behavior"))


def inequality_from_dict(obj: dict) -> BellInequality:
    """Parse {"m", "d", "joint", "marg_a", "marg_b", "bound"} coefficient arrays."""
    try:
        m, d = config_number(obj["m"], int, "'m'"), config_number(obj["d"], int, "'d'")
        joint = config_array(obj["joint"], "'joint'")
        marg_a = config_array(obj["marg_a"], "'marg_a'")
        marg_b = config_array(obj["marg_b"], "'marg_b'")
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed inequality file: {exc}") from exc
    bound = obj.get("bound")
    bound = None if bound is None else config_number(bound, float, "'bound'")
    return BellInequality(joint, marg_a, marg_b, BellScenario(m, d), bound)


def inequality_to_dict(ineq: BellInequality) -> dict:
    return {
        "m": ineq.scenario.settings,
        "d": ineq.scenario.outcomes,
        "joint": ineq.joint.tolist(),
        "marg_a": ineq.marg_a.tolist(),
        "marg_b": ineq.marg_b.tolist(),
        "bound": None if ineq.bound is None else float(ineq.bound),
    }
