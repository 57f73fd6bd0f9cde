"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (explicit loops, basis
state index arithmetic, recursion) so that agreement with the library
is evidence rather than tautology.
"""
import itertools
import math

import numpy as np


def partial_trace_loops(mat, keep, dims):
    """Partial trace by summing explicit basis-state indices."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    drop = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((dk, dk), dtype=complex)

    def digits(flat, axes):
        out = []
        for ax in axes:
            out.append(flat % dims[ax])
            flat //= dims[ax]
        return out

    # enumerate row/column digit tuples for kept axes and summed axes
    kept_states = list(itertools.product(*[range(dims[i]) for i in keep])) or [()]
    drop_states = list(itertools.product(*[range(dims[i]) for i in drop])) or [()]

    def flat_index(kept_digits, drop_digits):
        full = [0] * n
        for ax, v in zip(keep, kept_digits):
            full[ax] = v
        for ax, v in zip(drop, drop_digits):
            full[ax] = v
        idx = 0
        for ax in range(n):
            idx = idx * dims[ax] + full[ax]
        return idx

    for r, row in enumerate(kept_states):
        for c, col in enumerate(kept_states):
            acc = 0.0 + 0.0j
            for s in drop_states:
                acc += mat[flat_index(row, s), flat_index(col, s)]
            out[r, c] = acc
    return out


def embed_loops(op, subset, n, d):
    """sigma_J (x) I/d^{|Jc|} in natural party order, by index arithmetic."""
    subset = sorted(subset)
    comp = [i for i in range(n) if i not in subset]
    dim = d**n
    out = np.zeros((dim, dim), dtype=complex)
    scale = 1.0 / d ** len(comp)

    def split(flat):
        digs = [0] * n
        for ax in range(n - 1, -1, -1):
            digs[ax] = flat % d
            flat //= d
        return digs

    def sub_index(digs):
        idx = 0
        for ax in subset:
            idx = idx * d + digs[ax]
        return idx

    for r in range(dim):
        dr = split(r)
        for c in range(dim):
            dc = split(c)
            if any(dr[ax] != dc[ax] for ax in comp):
                continue
            out[r, c] = op[sub_index(dr), sub_index(dc)] * scale
    return out


def impose_effects_sequential(rho, targets):
    """Compose single-effect updates one at a time, no shortcuts."""
    out = np.array(rho, dtype=complex)
    for effect, p in targets:
        effect = np.asarray(effect, dtype=complex)
        gap = p - np.trace(out @ effect)
        out = out + gap * effect / np.trace(effect @ effect)
    return out


def impose_pvm_projectors(rho, projectors, probs):
    """One additive correction per dense projector, every gap read off the original state."""
    rho = np.asarray(rho, dtype=complex)
    out = rho.copy()
    for p, proj in zip(probs, projectors):
        tr_p2 = float(np.trace(proj @ proj).real)
        out += (p - float(np.trace(rho @ proj).real)) / tr_p2 * proj
    return out


def born_probabilities_projectors(projectors, rho):
    """Tr[rho P_k] for a dense (K, D, D) stack of projectors."""
    return np.einsum("kij,ji->k", np.asarray(projectors), np.asarray(rho, dtype=complex)).real


def simulate_frequencies_per_set(rho_gen, measurements, noise, rng):
    """Outcome frequencies worked one set at a time: clip, split, total and divide per set.

    The probabilities come from the library's own readers (the Pauli
    frame's table when every set has letters, else born_probabilities per
    set), so what this checks is the sampling and normalization: one
    Poisson call over the concatenated sets, then each set divided by its
    own total, a set without counts falling back to uniform.
    """
    from qoptools.errors import InvalidMeasurementKind
    from qoptools.mathcore import MeasurementKind, as_rng
    from qoptools.qse import _PauliFrame, born_probabilities

    rng = as_rng(rng)
    d = rho_gen.dim
    lam = noise.white_noise
    noisy = (1.0 - lam) * rho_gen.matrix + lam * np.eye(d) / d
    frame = _PauliFrame.of(measurements)
    if frame is not None:
        r = frame.coordinates(noisy)
        values = list(r[frame.strings] @ frame.hadamard / 2**frame.n)
    else:
        values = [born_probabilities(noisy, meas) for meas in measurements]
    observable = [meas.kind is MeasurementKind.OBSERVABLE_BASIS for meas in measurements]
    probs = [v if obs else np.clip(v, 0.0, None) for v, obs in zip(values, observable)]
    if noise.samples_per_basis is None:
        return probs
    if any(observable):
        raise InvalidMeasurementKind("finite-sample simulation is undefined for expectation targets")
    counts = rng.poisson(noise.samples_per_basis * np.concatenate(probs)).astype(float)
    out = []
    for c in np.split(counts, np.cumsum([len(p) for p in probs])[:-1]):
        total = c.sum()
        out.append(c / total if total > 0 else np.full(len(c), 1.0 / len(c)))
    return out


def compose_two_closed_form(rho, e1, p1, e2, p2):
    """Two-effect composition via the explicit cross-term formula."""
    rho = np.asarray(rho, dtype=complex)
    t1 = float(np.trace(e1 @ e1).real)
    t2 = float(np.trace(e2 @ e2).real)
    g1 = p1 - np.trace(rho @ e1)
    g2 = p2 - np.trace(rho @ e2)
    cross = float(np.trace(e1 @ e2).real)
    return rho + g1 * e1 / t1 + g2 * e2 / t2 - g1 * cross * e2 / (t1 * t2)


def nearest_density_sort(mat):
    """Eigenvalue simplex projection by the sort-and-threshold rule."""
    w, v = np.linalg.eigh(np.asarray(mat, dtype=complex))
    lam = w[::-1]
    cum = np.cumsum(lam)
    ks = np.arange(1, lam.size + 1)
    cond = lam - (cum - 1.0) / ks > 0
    k = int(np.max(np.nonzero(cond)[0])) + 1
    theta = (cum[k - 1] - 1.0) / k
    clipped = np.clip(w - theta, 0.0, None)
    return (v * clipped) @ v.conj().T


def lhv_recursive(joint, marg_a, marg_b):
    """Max over deterministic strategies, by recursion over settings.

    Builds each assignment one setting at a time instead of vectorized
    enumeration; marginal coefficients use the averaged convention.
    """
    m, d = marg_a.shape

    def value(a_assign, b_assign):
        total = 0.0
        for x in range(m):
            for y in range(m):
                total += joint[x, y, a_assign[x], b_assign[y]]
        for x in range(m):
            total += marg_a[x, a_assign[x]]
        for y in range(m):
            total += marg_b[y, b_assign[y]]
        return total

    best = -np.inf

    def rec_b(a_assign, b_assign):
        nonlocal best
        if len(b_assign) == m:
            best = max(best, value(a_assign, b_assign))
            return
        for b in range(d):
            rec_b(a_assign, b_assign + [b])

    def rec_a(a_assign):
        if len(a_assign) == m:
            rec_b(a_assign, [])
            return
        for a in range(d):
            rec_a(a_assign + [a])

    rec_a([])
    return best


def bell_value_sum(joint, marg_a, marg_b, table):
    """Inequality value by direct summation over all indices."""
    m, d = marg_a.shape
    total = 0.0
    for x in range(m):
        for y in range(m):
            for a in range(d):
                for b in range(d):
                    total += joint[x, y, a, b] * table[x, y, a, b]
    for x in range(m):
        for a in range(d):
            pa = sum(table[x, y, a, b] for y in range(m) for b in range(d)) / m
            total += marg_a[x, a] * pa
    for y in range(m):
        for b in range(d):
            pb = sum(table[x, y, a, b] for x in range(m) for a in range(d)) / m
            total += marg_b[y, b] * pb
    return total


def born_table_kron(rho, effects_a, effects_b):
    """p[x, y, a, b] = Tr[rho (E_a^x (x) F_b^y)], one Kronecker product and trace per cell.

    effects_a[x][a] and effects_b[y][b] are the dense effect matrices.
    """
    m, d = len(effects_a), len(effects_a[0])
    table = np.empty((m, m, d, d))
    for x, y, a, b in itertools.product(range(m), range(m), range(d), range(d)):
        table[x, y, a, b] = np.trace(rho @ np.kron(effects_a[x][a], effects_b[y][b])).real
    return table


def poisson_error_fd(value_fn, counts, h=1e-4):
    """Propagated count error by central finite differences.

    value_fn maps a counts array to the inequality value; the returned
    figure is sqrt(sum (dQ/dc)^2 c) over every cell.
    """
    counts = np.asarray(counts, dtype=float)
    acc = 0.0
    it = np.nditer(counts, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        up = counts.copy()
        dn = counts.copy()
        up[idx] += h
        dn[idx] -= h
        grad = (value_fn(up) - value_fn(dn)) / (2 * h)
        acc += grad * grad * counts[idx]
        it.iternext()
    return math.sqrt(acc)


def closed_formula(name, sigmas_2, sigmas_1, sigmas_k, n, d, embed):
    """Evaluate one of the identity-seed composition formulas.

    sigmas_2: dict subset -> 2-body target; sigmas_1: dict party -> 1-body;
    sigmas_k: dict subset -> k-body for the N4k3 case.  `embed` is the
    embedding function under test (validated separately against
    embed_loops).
    """
    dim = d**n
    eye = np.eye(dim, dtype=complex) / dim
    if name == "N2k1":
        return embed(sigmas_1[0], (0,), n, d) + embed(sigmas_1[1], (1,), n, d) - eye
    if name in ("N3k1", "N4k1"):
        total = sum(embed(sigmas_1[i], (i,), n, d) for i in range(n))
        return total - (n - 1) * eye
    if name == "N3k2":
        s2 = sum(embed(v, k, n, d) for k, v in sigmas_2.items())
        s1 = sum(embed(sigmas_1[i], (i,), n, d) for i in range(n))
        return eye + s2 - s1
    if name == "N4k2":
        s2 = sum(embed(v, k, n, d) for k, v in sigmas_2.items())
        s1 = sum(embed(sigmas_1[i], (i,), n, d) for i in range(n))
        return 3 * eye + s2 - 2 * s1
    if name == "N5k2":
        s2 = sum(embed(v, k, n, d) for k, v in sigmas_2.items())
        s1 = sum(embed(sigmas_1[i], (i,), n, d) for i in range(n))
        return 6 * eye + s2 - 3 * s1
    if name == "N4k3":
        s3 = sum(embed(v, k, n, d) for k, v in sigmas_k.items())
        s2 = sum(embed(v, k, n, d) for k, v in sigmas_2.items())
        s1 = sum(embed(sigmas_1[i], (i,), n, d) for i in range(n))
        return s3 - s2 + s1 - eye
    if name == "all2":
        s2 = sum(embed(v, k, n, d) for k, v in sigmas_2.items())
        s1 = sum(embed(sigmas_1[i], (i,), n, d) for i in range(n))
        return s2 - (n - 2) * s1 + (n - 1) * (n - 2) / 2 * eye
    raise ValueError(name)


def reduction_einsum(mat, keep, n, d):
    """Partial trace onto sorted `keep` by one einsum contraction."""
    t = np.asarray(mat).reshape((d,) * (2 * n))
    bra = [n + i if i in keep else i for i in range(n)]
    out = list(keep) + [n + i for i in keep]
    k = d ** len(keep)
    return np.einsum(t, list(range(n)) + bra, out).reshape(k, k)


def reference_marginal_solve(x0, spec, constraint, steps, impose_all, impose_spectrum):
    """The plain alternating iteration on dense, full-spectrum steps.

    Each step is impose_all, hermitize, then impose_spectrum (a full
    eigendecomposition).  The spectral distance is the euclidean gap
    between the full spectra before and after the projection, and the
    marginal distance the rms Hilbert-Schmidt distance of einsum
    reductions.  Returns one (marginal_dist, spectral_dist, iterate) per
    step for `steps` steps, with no convergence test.
    """
    n, d = spec.n_parties, spec.local_dim
    x = np.array(x0, dtype=complex)
    out = []
    for _ in range(steps):
        xp = impose_all(x, spec)
        xp = 0.5 * (xp + xp.conj().T)
        x = impose_spectrum(xp, constraint)
        before = np.sort(np.linalg.eigvalsh(xp))[::-1]
        after = np.sort(np.linalg.eigvalsh(x))[::-1]
        dl = float(np.linalg.norm(before - after))
        errs = [np.linalg.norm(reduction_einsum(x, sub, n, d) - sigma.matrix) ** 2
                for sub, sigma in spec.targets]
        dm = math.sqrt(sum(errs) / len(errs))
        out.append((dm, dl, x))
    return out


def damped_sweep_dense(spec, schedule, embed):
    """The damped marginal sweep with its momentum z held as one dense D x D matrix.

    Each call is one sweep n = 0, 1, ...: for each target (J, sigma) in
    spec order, z <- beta_n z + embed(sigma - Tr_Jc x, J, N, d), which is
    Q(x) - x, and x <- x + mu alpha_n z, with (alpha_n, beta_n) from
    schedule.coefficients(n).  `embed` is qmp.embed_with_mixed
    (op (x) I/d^{N-|J|}) and the reductions are einsum contractions, so
    the call ignores its second argument, the iterate's reductions.  z
    persists across calls; the swept copy of x is returned.
    """
    n, d = spec.n_parties, spec.local_dim
    z = np.zeros((spec.dim, spec.dim), dtype=complex)
    sweeps = itertools.count()

    def sweep(x, _reductions=None):
        a_n, b_n = schedule.coefficients(next(sweeps))
        x = np.array(x, dtype=complex)
        for sub, sigma in spec.targets:
            z[...] = b_n * z + embed(sigma.matrix - reduction_einsum(x, sub, n, d), sub, n, d)
            x += schedule.mu * a_n * z
        return x

    return sweep


def strategy_matrix(m, d):
    """Coefficient-space image [p, p_A, p_B] of every deterministic strategy, one dense row each.

    Rows run over Alice's assignments a, then Bob's b, both in
    itertools.product order; the marginals of a deterministic strategy
    are one-hot whatever the averaging.
    """
    rows = []
    for a in itertools.product(range(d), repeat=m):
        for b in itertools.product(range(d), repeat=m):
            joint = np.zeros((m, m, d, d))
            marg_a = np.zeros((m, d))
            marg_b = np.zeros((m, d))
            for x in range(m):
                marg_a[x, a[x]] = 1.0
                marg_b[x, b[x]] = 1.0
                for y in range(m):
                    joint[x, y, a[x], b[y]] = 1.0
            rows.append(np.concatenate([joint.ravel(), marg_a.ravel(), marg_b.ravel()]))
    return np.array(rows)


def dense_gap_lp(m, d):
    """The gap search LP over z = (y, tau, r) with one row per deterministic strategy.

    Returns (rows, rhs, bounds) of v_k . y + dm tau <= 1 and
    -tau <= y_i <= tau, with 0 <= tau <= 1/dm and r >= 0: the form the
    lifted rows of qoptools.bell replace.
    """
    strategies = strategy_matrix(m, d)
    k, n = strategies.shape
    dm = float(m * d)
    eye = np.eye(n)
    rows = np.block([
        [strategies, np.full((k, 1), dm), np.zeros((k, 1))],
        [eye, -np.ones((n, 1)), np.zeros((n, 1))],
        [-eye, -np.ones((n, 1)), np.zeros((n, 1))],
    ])
    rhs = np.concatenate([np.ones(k), np.zeros(2 * n)])
    bounds = [(None, None)] * n + [(0.0, 1.0 / dm), (0.0, None)]
    return rows, rhs, bounds


def maximize_gap_slsqp(counts, trials=20, rng=None):
    """The gap-ratio search by SLSQP restarts over an epigraph variable.

    C(s) enters through t >= v_k . s, one constraint per deterministic
    strategy, with t >= 0; the ratio (Q - dQ + dm) / (t + dm) is smooth
    in (s, t).  The next start is the midpoint of the previous start and
    its solution, and the best candidate with C >= -1e-9 wins.  Returns
    (ratio, coefficients), (1, 0) when no candidate is feasible.
    """
    from scipy.optimize import minimize

    from qoptools.bell import _gap_pieces, _unstack_coefficients, lhv_bound

    sc = counts.scenario
    dm = float(sc.outcomes * sc.settings)
    q_vec, g = _gap_pieces(counts)
    n = q_vec.size
    strategies = strategy_matrix(sc.settings, sc.outcomes)
    # rows of A z >= 0 encode t - v_k . s >= 0 for z = (s, t)
    a_mat = np.hstack([-strategies, np.ones((strategies.shape[0], 1))])
    rng = np.random.default_rng(rng)

    def neg_objective(z):
        s, t = z[:n], z[n]
        q = float(q_vec @ s)
        gs = g @ s
        dq = float(np.linalg.norm(gs))
        grad_dq = (g.T @ gs) / dq if dq > 1e-30 else np.zeros(n)
        den = t + dm
        num = q - dq + dm
        grad = np.concatenate([(q_vec - grad_dq) / den, [-num / den**2]])
        return -num / den, -grad

    constraints = [{"type": "ineq", "fun": lambda z: a_mat @ z, "jac": lambda z: a_mat}]
    bounds = [(-1.0, 1.0)] * n + [(0.0, float(n))]

    best = (-math.inf, None)
    start = rng.uniform(-1.0, 1.0, size=n)
    for _ in range(trials):
        t0 = max(float(np.max(strategies @ start)), 0.0)
        res = minimize(
            neg_objective,
            np.concatenate([start, [t0]]),
            jac=True,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 400, "ftol": 1e-12},
        )
        sol = np.clip(res.x[:n], -1.0, 1.0)
        q = float(q_vec @ sol)
        dq = float(np.linalg.norm(g @ sol))
        c = lhv_bound(_unstack_coefficients(sol, sc))
        if c >= -1e-9:
            value = (q - dq + dm) / (c + dm)
            if value > best[0]:
                best = (value, sol)
        start = 0.5 * (start + sol)
    if best[1] is None:
        return 1.0, np.zeros(n)
    return best


def lifted_rows(m, d):
    """The rows of bell._lifted_lp(m, d) as a scipy CSR array, with its rhs and bounds.

    The package keeps them as HiGHS's row-wise (start, index, value)
    arrays, which are CSR's (indptr, indices, data).
    """
    from scipy.sparse import csr_array

    from qoptools.bell import _lifted_lp

    (start, index, value), rhs, bounds = _lifted_lp(m, d)
    return csr_array((value, index, start), shape=(rhs.size, bounds.shape[0])), rhs, bounds


def maximize_gap_linprog(counts):
    """The cutting-plane gap search of bell.maximize_gap, every LP rebuilt and solved cold.

    Each round stacks the norm cuts found so far below the rows of
    bell._lifted_lp (as `lifted_rows` gives them) and hands the whole
    program to linprog(method="highs") at the search's LP_TOL; the
    scoring and stop rule are the search's.  The cut rule is written out
    here, not taken from bell: once a candidate has beaten ratio 1, the
    cut r >= w . G y has w = G p / |G p| at the midpoint p of the best
    scored coefficients and the LP point s, if the LP point violates it
    by more than GAP_TOL; otherwise w = G y / |G y| at the LP point.
    Returns (ratio, upper_bound, rounds).
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_array, vstack

    from qoptools.bell import (
        GAP_ROUND_CAP,
        GAP_TOL,
        LP_TOL,
        _gap_pieces,
        _unstack_coefficients,
        lhv_bound,
    )

    sc = counts.scenario
    dm = float(sc.outcomes * sc.settings)
    q_vec, g = _gap_pieces(counts)
    n = q_vec.size
    rows, rhs, bounds = lifted_rows(sc.settings, sc.outcomes)
    cost = np.zeros(rows.shape[1])
    cost[:n + 2] = -np.concatenate([q_vec, [dm, -1.0]])
    cuts = []
    best, best_sol = 1.0, None
    for rounds in range(1, GAP_ROUND_CAP + 1):
        res = linprog(
            cost,
            A_ub=vstack([rows, csr_array(np.array(cuts))]) if cuts else rows,
            b_ub=np.concatenate([rhs, np.zeros(len(cuts))]),
            bounds=bounds,
            method="highs",
            options={"primal_feasibility_tolerance": LP_TOL, "dual_feasibility_tolerance": LP_TOL},
        )
        assert res.status == 0, res.message
        upper = -float(res.fun)
        y, tau, r = res.x[:n], res.x[n], res.x[n + 1]
        sol = np.clip(y / tau, -1.0, 1.0)
        c = lhv_bound(_unstack_coefficients(sol, sc))
        if c >= -1e-9:
            value = (float(q_vec @ sol) - float(np.linalg.norm(g @ sol)) + dm) / (c + dm)
            if value > best:
                best, best_sol = value, sol
        gy = g @ y
        norm = float(np.linalg.norm(gy))
        if norm - r <= GAP_TOL or upper - best <= GAP_TOL:
            break
        direction = gy / norm
        if best_sol is not None:
            gp = g @ ((best_sol + sol) / 2)
            gp_norm = float(np.linalg.norm(gp))
            if gp_norm > 0 and gp @ gy / gp_norm - r > GAP_TOL:
                direction = gp / gp_norm
        cut = np.zeros(rows.shape[1])
        cut[:n + 2] = np.concatenate([direction @ g, [0.0, -1.0]])
        cuts.append(cut)
    return best, upper, rounds
