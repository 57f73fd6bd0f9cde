"""Bell functionals: bounds, gap search, the tilted family, fits."""
import json
import math
import os

import numpy as np
import pytest

from qoptools.errors import (
    InvalidInput,
    NotViolatedAtAnyEfficiency,
    QopError,
    TooLargeScenario,
)
from qoptools import bell
from qoptools.bell import (
    _gap_pieces,
    BehaviorTable,
    BellInequality,
    BellScenario,
    CountsTable,
    behavior_from_dict,
    behavior_from_state,
    behavior_value,
    canonical_form,
    counts_from_dict,
    counts_to_dict,
    efficiency_threshold,
    format_inequality,
    inequality_from_dict,
    inequality_to_dict,
    lhv_bound,
    maximize_gap,
    quantum_value,
    tilted_inequality,
)
from qoptools.mathcore import MeasurementSet, QuantumState, random_mixed_state

import oracles

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _bundled(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        return json.load(fh)


def _chsh():
    """The bundled CHSH inequality: outcome-0 probability form, LHV bound 0."""
    return inequality_from_dict(_bundled("chsh.json"))


def _random_inequality(m, d, rng):
    return BellInequality(
        rng.normal(size=(m, m, d, d)),
        rng.normal(size=(m, d)),
        rng.normal(size=(m, d)),
        BellScenario(m, d),
    )


def _local_behavior(m, d, rng):
    """Convex mixture of deterministic strategies."""
    table = np.zeros((m, m, d, d))
    k = 6
    w = rng.dirichlet(np.ones(k))
    for i in range(k):
        a = rng.integers(0, d, size=m)
        b = rng.integers(0, d, size=m)
        for x in range(m):
            for y in range(m):
                table[x, y, a[x], b[y]] += w[i]
    return BehaviorTable(table)


def test_lhv_bound_matches_recursive_oracle():
    rng = np.random.default_rng(90)
    for _ in range(12):
        ineq = _random_inequality(2, 2, rng)
        want = oracles.lhv_recursive(ineq.joint, ineq.marg_a, ineq.marg_b)
        assert abs(lhv_bound(ineq) - want) < 1e-10


def test_lhv_bound_larger_scenarios_against_oracle():
    rng = np.random.default_rng(91)
    for m, d in ((3, 2), (2, 3), (4, 2), (3, 3)):
        for _ in range(3):
            ineq = _random_inequality(m, d, rng)
            want = oracles.lhv_recursive(ineq.joint, ineq.marg_a, ineq.marg_b)
            assert abs(lhv_bound(ineq) - want) < 1e-10


def test_strategy_matrix_rows_are_deterministic_behaviors():
    # the dense strategy rows of the oracles, which the lifted rows replace
    rng = np.random.default_rng(98)
    for m, d in ((2, 3), (3, 2)):
        rows = oracles.strategy_matrix(m, d)
        nj = m * m * d * d
        assert rows.shape == (d ** (2 * m), nj + 2 * m * d)
        assert len({row.tobytes() for row in rows}) == len(rows)
        for row in rows:
            joint = row[:nj].reshape(m, m, d, d)
            marg_a = row[nj:nj + m * d].reshape(m, d)
            marg_b = row[nj + m * d:].reshape(m, d)
            assert set(np.unique(row)) <= {0.0, 1.0}
            assert np.array_equal(marg_a.sum(axis=1), np.ones(m))
            assert np.array_equal(marg_b.sum(axis=1), np.ones(m))
            # a product of the two parties' answers, whose marginals are the one-hot rows
            assert np.array_equal(joint, np.einsum("xa,yb->xyab", marg_a, marg_b))
        for _ in range(5):
            ineq = _random_inequality(m, d, rng)
            s = np.concatenate([ineq.joint.ravel(), ineq.marg_a.ravel(), ineq.marg_b.ravel()])
            assert abs(np.max(rows @ s) - lhv_bound(ineq)) < 1e-12


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_lifted_rows_give_the_lhv_bound(m, d):
    # rows: (alpha, y, b) rows, one row per alpha, then the box; z = (s, tau, r, u)
    rows = oracles.lifted_rows(m, d)[0]
    count, n = d**m, m * m * d * d + 2 * m * d
    pairs, alphas = rows[:count * m * d], rows[count * m * d:count * (m * d + 1)]
    assert rows.shape == (count * (m * d + 1) + 2 * n, n + 2 + count * m)
    assert pairs[:, n + 2:].sum() == -count * m * d  # -u in every (alpha, y, b) row
    rng = np.random.default_rng(95 + 10 * m + d)
    for _ in range(5):
        ineq = _random_inequality(m, d, rng)
        s = np.concatenate([ineq.joint.ravel(), ineq.marg_a.ravel(), ineq.marg_b.ravel()])
        z = np.concatenate([s, [0.0, 0.0], np.zeros(count * m)])
        # the smallest u[alpha, y] satisfying the (alpha, y, b) rows: max over b
        u = (pairs @ z).reshape(count, m, d).max(axis=2).ravel()
        z[n + 2:] = u
        assert np.all(pairs @ z <= 1e-12)
        assert abs(np.max(alphas @ z) - lhv_bound(ineq)) < 1e-12


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_lifted_lp_matches_the_dense_lp(m, d):
    from scipy.optimize import linprog

    rng = np.random.default_rng(96 + 10 * m + d)
    dense, dense_rhs, dense_bounds = oracles.dense_gap_lp(m, d)
    rows, rhs, bounds = oracles.lifted_rows(m, d)
    n = dense.shape[1] - 2
    cost = np.concatenate([rng.normal(size=n + 1), [1.0]])  # r is only bounded below
    want = linprog(cost, A_ub=dense, b_ub=dense_rhs, bounds=dense_bounds, method="highs")
    got = linprog(np.pad(cost, (0, rows.shape[1] - cost.size)), A_ub=rows, b_ub=rhs,
                  bounds=bounds, method="highs")
    assert want.status == got.status == 0
    assert abs(want.fun - got.fun) <= 1e-9


def test_lifted_row_guard(monkeypatch):
    build = bell._lifted_lp.__wrapped__  # past the cache, so every call checks the guard
    build(6, 3)  # 13,851 lifted rows
    build(5, 4)  # 21,504
    with pytest.raises(TooLargeScenario):
        build(4, 6)  # 32,400 rows
    monkeypatch.setattr(bell, "LIFTED_ROW_GUARD", 3**6 * 19)
    build(6, 3)
    monkeypatch.setattr(bell, "LIFTED_ROW_GUARD", 3**6 * 19 - 1)
    with pytest.raises(TooLargeScenario):
        build(6, 3)


def test_strategy_table_is_shared_and_read_only():
    table = bell._assignments(3, 2)
    assert bell._assignments(3, 2) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 1.0
    # one one-hot row per map x -> a(x), in np.ndindex order
    assert np.array_equal(table.argmax(axis=2), list(np.ndindex(2, 2, 2)))
    assert np.array_equal(table.sum(axis=2), np.ones((8, 3)))


def test_gap_pieces_match_quantum_value():
    rng = np.random.default_rng(99)
    for m, d in ((2, 2), (3, 2), (2, 3)):
        counts = CountsTable(rng.integers(1, 5000, size=(m, m, d, d)).astype(float))
        q_vec, g = _gap_pieces(counts)
        for _ in range(5):
            ineq = _random_inequality(m, d, rng)
            s = np.concatenate([ineq.joint.ravel(), ineq.marg_a.ravel(), ineq.marg_b.ravel()])
            q, dq = quantum_value(ineq, counts)
            assert abs(q_vec @ s - q) < 1e-12
            assert abs(np.linalg.norm(g @ s) - dq) < 1e-12


def test_lhv_bound_chsh_is_zero():
    assert lhv_bound(_chsh()) == 0.0


def test_lhv_bound_refuses_an_overflowing_value():
    # finite coefficients whose best strategy sums past the float range
    huge = BellInequality(np.full((2, 2, 2, 2), 1e308), np.zeros((2, 2)), np.zeros((2, 2)),
                          BellScenario(2, 2))
    with pytest.raises(InvalidInput):
        lhv_bound(huge)


def test_lhv_bound_scenario_guard():
    # the guard counts declared strategies d^(2m), not the decoupled
    # enumeration the solver actually walks
    assert lhv_bound(BellInequality.zero(BellScenario(13, 2))) == 0.0
    with pytest.raises(TooLargeScenario):
        lhv_bound(BellInequality.zero(BellScenario(14, 2)))
    with pytest.raises(TooLargeScenario):
        lhv_bound(BellInequality.zero(BellScenario(9, 3)))


def test_local_behaviors_never_beat_the_bound():
    rng = np.random.default_rng(92)
    for _ in range(10):
        ineq = _random_inequality(2, 2, rng)
        bound = lhv_bound(ineq)
        beh = _local_behavior(2, 2, rng)
        assert behavior_value(ineq, beh) <= bound + 1e-10


def test_behavior_value_matches_direct_sum():
    rng = np.random.default_rng(93)
    chsh = _chsh()
    for _ in range(5):
        beh = _local_behavior(2, 2, rng)
        want = oracles.bell_value_sum(chsh.joint, chsh.marg_a, chsh.marg_b, beh.table)
        assert abs(behavior_value(chsh, beh) - want) < 1e-12


def test_quantum_value_and_poisson_error():
    rng = np.random.default_rng(94)
    chsh = _chsh()
    counts = rng.integers(2000, 9000, size=(2, 2, 2, 2)).astype(float)
    q, dq = quantum_value(chsh, CountsTable(counts))

    def value_of(arr):
        return quantum_value(chsh, CountsTable(arr))[0]

    assert abs(q - value_of(counts)) == 0.0
    dq_fd = oracles.poisson_error_fd(value_of, counts)
    assert abs(dq - dq_fd) / dq < 1e-6


def test_quantum_value_of_singlet_counts():
    fam = tilted_inequality(0.0)
    beh = behavior_from_state(fam.state, fam.settings_a, fam.settings_b)
    counts = CountsTable(beh.table * 1_000_000)
    q, dq = quantum_value(fam.inequality, counts)
    assert abs(q - 2 * math.sqrt(2)) < 1e-9
    assert 0.0 < dq < 0.01


def _random_unitary(dim, rng):
    return np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]


def _random_povm(dim, outcomes, rng):
    """Random full-rank effects G_k, normalized as S^-1/2 G_k S^-1/2 with S = sum G_k."""
    grams = [z @ z.conj().T for z in rng.normal(size=(outcomes, dim, dim))
             + 1j * rng.normal(size=(outcomes, dim, dim))]
    w, v = np.linalg.eigh(sum(grams))
    root = (v / np.sqrt(w)) @ v.conj().T
    return MeasurementSet([root @ g @ root for g in grams], "povm")


def test_behavior_from_state_matches_per_cell_traces():
    rng = np.random.default_rng(95)
    # qubit x qutrit PVMs, Bob's outcome 1 a rank-2 projector
    qubit = [MeasurementSet.from_basis(_random_unitary(2, rng)) for _ in range(3)]
    qutrit = [MeasurementSet.from_basis(_random_unitary(3, rng), [0, 1, 1]) for _ in range(3)]
    # qutrit x qubit three-outcome POVMs
    povm_a = [_random_povm(3, 3, rng) for _ in range(2)]
    povm_b = [_random_povm(2, 3, rng) for _ in range(2)]
    for dims, sa, sb in (((2, 3), qubit, qutrit), ((3, 2), povm_a, povm_b)):
        state = random_mixed_state(dims, rng)
        got = behavior_from_state(state, sa, sb).table
        want = oracles.born_table_kron(
            state.matrix, [s.effects for s in sa], [s.effects for s in sb]
        )
        assert np.abs(got - want).max() <= 1e-14
    state = random_mixed_state((2, 3), rng)
    with pytest.raises(InvalidInput):  # Alice's settings on a qubit and a qutrit
        behavior_from_state(state, [qubit[0], qutrit[0]], qutrit[:2])
    with pytest.raises(InvalidInput):  # two outcomes against three
        behavior_from_state(state, qubit[:1], [MeasurementSet.from_basis(np.eye(3))])


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_tilted_family_closed_values(alpha):
    fam = tilted_inequality(alpha)
    assert fam.lhv == alpha + 2.0
    assert abs(fam.quantum - math.sqrt(8 + 2 * alpha**2)) < 1e-10
    # the stated classical bound is the actual enumeration maximum
    assert abs(lhv_bound(fam.inequality) - (alpha + 2.0)) < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.4, 1.9])
def test_tilted_family_state_reaches_quantum_value(alpha):
    fam = tilted_inequality(alpha)
    beh = behavior_from_state(fam.state, fam.settings_a, fam.settings_b)
    assert abs(behavior_value(fam.inequality, beh) - fam.quantum) < 1e-9


def test_tilted_family_rejects_out_of_range():
    with pytest.raises(InvalidInput):
        tilted_inequality(-0.1)
    with pytest.raises(InvalidInput):
        tilted_inequality(2.1)


def test_canonical_form_is_outcome_zero_and_gap_preserving():
    rng = np.random.default_rng(101)
    fam = tilted_inequality(1.0)
    can = canonical_form(fam.inequality)
    assert not np.any(can.joint[:, :, 0, 1:])
    assert not np.any(can.joint[:, :, 1:, :])
    assert not np.any(can.marg_a[:, 1:])
    assert not np.any(can.marg_b[:, 1:])
    # the rewrite shifts value and bound by the same constant, so the
    # violation gap of any no-signaling behavior is untouched
    for _ in range(5):
        beh = _local_behavior(2, 2, rng)
        gap0 = behavior_value(fam.inequality, beh) - fam.inequality.bound
        gap1 = behavior_value(can, beh) - can.bound
        assert abs(gap0 - gap1) < 1e-10
    q_beh = behavior_from_state(fam.state, fam.settings_a, fam.settings_b)
    gap0 = behavior_value(fam.inequality, q_beh) - fam.inequality.bound
    gap1 = behavior_value(can, q_beh) - can.bound
    assert abs(gap0 - gap1) < 1e-10


def test_canonical_form_preserves_violation_ordering():
    # affine rewrites keep gap signs: quantum stays above the bound,
    # local stays at or below it
    rng = np.random.default_rng(95)
    fam = tilted_inequality(0.8)
    can = canonical_form(fam.inequality)
    cb = can.bound if can.bound is not None else lhv_bound(can)
    beh = behavior_from_state(fam.state, fam.settings_a, fam.settings_b)
    assert behavior_value(can, beh) > cb + 1e-6
    for _ in range(5):
        loc = _local_behavior(2, 2, rng)
        assert behavior_value(can, loc) <= cb + 1e-10


def test_canonical_form_scale():
    fam = tilted_inequality(0.5)
    one = canonical_form(fam.inequality, scale=1.0)
    half = canonical_form(fam.inequality, scale=0.5)
    assert np.abs(half.joint - 0.5 * one.joint).max() < 1e-12
    assert abs(half.bound - 0.5 * one.bound) < 1e-12


def test_efficiency_threshold_chsh_values():
    fam = tilted_inequality(0.0)
    beh = behavior_from_state(fam.state, fam.settings_a, fam.settings_b)
    can = canonical_form(fam.inequality)
    sym = efficiency_threshold(can, beh, "symmetric")
    asym = efficiency_threshold(can, beh, "asymmetricB1")
    assert abs(sym - 2 * (math.sqrt(2) - 1)) < 1e-10
    assert abs(asym - 1 / math.sqrt(2)) < 1e-10


def test_efficiency_threshold_requires_canonical_input():
    fam = tilted_inequality(0.0)
    beh = behavior_from_state(fam.state, fam.settings_a, fam.settings_b)
    with pytest.raises(InvalidInput):
        efficiency_threshold(fam.inequality, beh, "symmetric")


def test_efficiency_threshold_no_violation():
    rng = np.random.default_rng(96)
    fam = tilted_inequality(0.0)
    can = canonical_form(fam.inequality)
    local = _local_behavior(2, 2, rng)
    with pytest.raises(NotViolatedAtAnyEfficiency):
        efficiency_threshold(can, local, "symmetric")


def test_maximize_gap_chsh_counts_beats_one():
    fam = tilted_inequality(0.0)
    beh = behavior_from_state(fam.state, fam.settings_a, fam.settings_b)
    counts = CountsTable(np.round(beh.table * 250_000))
    res = maximize_gap(counts, trials=6, rng=3)
    assert res.ratio > 1.0
    # every reported number must be reproducible from the returned
    # inequality and the input counts
    q, dq = quantum_value(res.inequality, counts)
    c = lhv_bound(res.inequality)
    assert abs(res.quantum - q) < 1e-9
    assert abs(res.error - dq) < 1e-9
    assert abs(res.classical - c) < 1e-9
    dm = 4.0  # d * m for two settings, two outcomes
    assert abs(res.ratio - (q - dq + dm) / (c + dm)) < 1e-6


def test_maximize_gap_local_counts_stay_at_one():
    rng = np.random.default_rng(97)
    for trial in range(3):
        beh = _local_behavior(2, 2, rng)
        counts = CountsTable(np.round(beh.table * 40_000) + 1)
        res = maximize_gap(counts, trials=4, rng=trial)
        assert res.ratio <= 1.0 + 1e-6


def test_maximize_gap_reproducible():
    fam = tilted_inequality(0.0)
    beh = behavior_from_state(fam.state, fam.settings_a, fam.settings_b)
    counts = CountsTable(np.round(beh.table * 100_000))
    a = maximize_gap(counts, trials=4, rng=11)
    b = maximize_gap(counts, trials=4, rng=11)
    assert a.ratio == b.ratio
    assert np.abs(a.inequality.joint - b.inequality.joint).max() == 0.0


def _random_basis_counts(m, d, per_setting, rng):
    """Poisson counts of a maximally entangled pair measured in random bases."""

    def basis():
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u, _ = np.linalg.qr(z)
        return MeasurementSet([np.outer(u[:, k], u[:, k].conj()) for k in range(d)])

    psi = np.eye(d).ravel() / math.sqrt(d)
    state = QuantumState(np.outer(psi, psi), (d, d))
    beh = behavior_from_state(state, [basis() for _ in range(m)], [basis() for _ in range(m)])
    return CountsTable.sample(beh, per_setting, rng)


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_maximize_gap_reaches_slsqp_oracle_and_certifies(m, d):
    counts = _random_basis_counts(m, d, 1e6, np.random.default_rng(10 * m + d))
    res = maximize_gap(counts)
    oracle_ratio, _ = oracles.maximize_gap_slsqp(counts, trials=2, rng=0)
    q, dq = quantum_value(res.inequality, counts)
    c = lhv_bound(res.inequality)
    dm = float(m * d)
    ratio = (q - dq + dm) / (c + dm)
    assert abs(res.ratio - ratio) < 1e-9
    assert abs(res.classical - c) < 1e-9
    assert c >= -1e-9
    assert ratio >= oracle_ratio - 1e-9
    assert -1e-9 <= res.upper_bound - ratio <= 1e-8
    assert 1 <= res.rounds <= bell.GAP_ROUND_CAP


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3)])
def test_maximize_gap_reports_the_values_it_scored(m, d):
    rng = np.random.default_rng(7 * m + d)
    tables = [_random_basis_counts(m, d, 1e4, rng) for _ in range(3)]
    tables.append(CountsTable(rng.integers(1, 5000, size=(m, m, d, d)).astype(float)))
    dm = float(m * d)
    for counts in tables:
        res = maximize_gap(counts)
        assert res.ratio == (res.quantum - res.error + dm) / (res.classical + dm)
        assert res.classical == lhv_bound(res.inequality) == res.inequality.bound


def test_maximize_gap_bundled_chsh_counts_ratio():
    counts = counts_from_dict(_bundled("chsh_counts.json"))
    res = maximize_gap(counts)
    assert abs(res.ratio - 1.2067532277959543) <= 1e-9


def test_maximize_gap_round_cap_keeps_a_valid_bound(monkeypatch):
    counts = _random_basis_counts(3, 2, 1e6, np.random.default_rng(32))
    full = maximize_gap(counts)
    assert full.rounds > 2
    assert not full.round_cap_hit
    monkeypatch.setattr(bell, "GAP_ROUND_CAP", full.rounds)
    assert not maximize_gap(counts).round_cap_hit  # converged on its last allowed round
    monkeypatch.setattr(bell, "GAP_ROUND_CAP", 2)
    capped = maximize_gap(counts)
    assert capped.rounds == 2
    assert capped.round_cap_hit
    # fewer cuts give a looser bound, still above the best ratio found
    assert capped.upper_bound >= full.upper_bound - 1e-9
    assert capped.upper_bound >= full.ratio - 1e-9
    assert capped.ratio <= full.ratio + 1e-9


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_warm_gap_search_matches_linprog_rounds(m, d):
    counts = _random_basis_counts(m, d, 1e6, np.random.default_rng(10 * m + d))
    warm = maximize_gap(counts)
    ratio, upper, rounds = oracles.maximize_gap_linprog(counts)
    assert warm.rounds == rounds
    assert abs(warm.ratio - ratio) <= 1e-10
    assert abs(warm.upper_bound - upper) <= 1e-10
    assert warm.upper_bound - warm.ratio <= 1e-9
    assert upper - ratio <= 1e-9
    assert 0.0 < warm.lp_seconds


def _record_cuts(monkeypatch):
    """Patch bell._GapLP to log (LP point z solved last, cut row) for every cut added."""
    solved, cuts = [], []
    solve, add_cut = bell._GapLP.solve, bell._GapLP.add_cut

    def logged_solve(self):
        z, value = solve(self)
        solved.append(z)
        return z, value

    def logged_add_cut(self, row):
        cuts.append((solved[-1], row.copy()))
        add_cut(self, row)

    monkeypatch.setattr(bell._GapLP, "solve", logged_solve)
    monkeypatch.setattr(bell._GapLP, "add_cut", logged_add_cut)
    return cuts


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_every_norm_cut_separates_the_lp_point_before_it(monkeypatch, m, d):
    cuts = _record_cuts(monkeypatch)
    counts = _random_basis_counts(m, d, 1e6, np.random.default_rng(10 * m + d))
    res = maximize_gap(counts)
    assert len(cuts) == res.rounds - 1
    assert 0 < res.stabilized_cuts <= len(cuts)
    assert 0.0 < res.first_lp_seconds <= res.lp_seconds
    _, g = _gap_pieces(counts)
    n = g.shape[1]
    elsewhere = 0
    for z, row in cuts:
        # row = (w . G, 0, -1) over (y, tau, r) with a unit w, so row . z = w . G y - r
        # is how far the LP point solved just before the cut breaks it
        assert np.array_equal(row[n:], [0.0, -1.0])
        w = np.linalg.lstsq(g.T, row[:n], rcond=None)[0]
        assert abs(np.linalg.norm(w) - 1.0) < 1e-9
        assert row @ z[:n + 2] > bell.GAP_TOL
        gy = g @ z[:n]
        elsewhere += not np.allclose(w, gy / np.linalg.norm(gy), rtol=0, atol=1e-9)
    # a cut at p can coincide with the LP-point cut, when the LP point is the best point
    assert elsewhere <= res.stabilized_cuts


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3)])
def test_a_search_without_a_candidate_cuts_only_at_lp_points(monkeypatch, m, d):
    cuts = _record_cuts(monkeypatch)
    rng = np.random.default_rng(10 * m + d)
    total = 0
    for _ in range(3):
        cuts.clear()
        counts = CountsTable(np.round(_local_behavior(m, d, rng).table * 40_000) + 1)
        res = maximize_gap(counts)
        assert res.ratio == 1.0
        assert res.stabilized_cuts == 0
        assert len(cuts) == res.rounds - 1
        _, g = _gap_pieces(counts)
        n = g.shape[1]
        for z, row in cuts:
            gy = g @ z[:n]
            w = gy / np.linalg.norm(gy)
            assert np.array_equal(row, np.concatenate([w @ g, [0.0, -1.0]]))
        total += len(cuts)
    assert total > 0


def test_warm_gap_search_is_silent(capfd):
    # HiGHS logs from C, past Python's sys.stdout and sys.stderr
    counts = _random_basis_counts(3, 2, 1e6, np.random.default_rng(32))
    maximize_gap(counts)
    assert capfd.readouterr() == ("", "")


def test_gap_lp_failure_is_a_qop_error():
    # x <= -1 and -x <= -1: no point is feasible; rows as (start, index, value)
    rows = np.array([0, 1, 2]), np.array([0, 0]), np.array([1.0, -1.0])
    lp = bell._GapLP(np.ones(1), rows, -np.ones(2), np.array([(-np.inf, np.inf)]))
    with pytest.raises(QopError, match="gap search LP failed"):
        lp.solve()


def test_maximize_gap_rejects_no_restarts():
    counts = CountsTable(np.ones((2, 2, 2, 2)))
    with pytest.raises(InvalidInput):
        maximize_gap(counts, trials=0)


def test_behavior_entries_must_be_finite():
    with pytest.raises(InvalidInput):
        BehaviorTable(np.full((1, 1, 2, 2), np.nan))


def test_counts_round_trip():
    rng = np.random.default_rng(99)
    counts = CountsTable(rng.integers(1, 100, size=(2, 2, 2, 2)).astype(float))
    back = counts_from_dict(counts_to_dict(counts))
    assert np.abs(back.counts - counts.counts).max() == 0.0


def test_behavior_round_trip():
    rng = np.random.default_rng(100)
    beh = _local_behavior(2, 2, rng)
    obj = {"m": 2, "d": 2,
           "behavior": {f"{x},{y}": beh.table[x, y].tolist() for x, y in np.ndindex(2, 2)}}
    back = behavior_from_dict(obj)
    assert np.abs(back.table - beh.table).max() == 0.0


def test_inequality_round_trip():
    fam = tilted_inequality(1.3)
    back = inequality_from_dict(inequality_to_dict(fam.inequality))
    assert np.abs(back.joint - fam.inequality.joint).max() == 0.0
    assert back.bound == fam.inequality.bound


def test_counts_from_dict_wants_complete_tables():
    with pytest.raises(InvalidInput):
        counts_from_dict({"m": 2, "d": 2, "counts": {"0,0": [[1, 2], [3, 4]]}})
    with pytest.raises(InvalidInput):
        counts_from_dict({"m": 2, "d": 2, "counts": {
            "0,0": [[1, 2], [3, 4]], "0,1": [[1, 2], [3, 4]],
            "1,0": [[1, 2], [3, 4]], "9,9": [[1, 2], [3, 4]]}})


def test_format_inequality_mentions_nonzero_terms():
    text = format_inequality(_chsh())
    assert "p(" in text
    assert "00|00" in text.replace(" ", "")
