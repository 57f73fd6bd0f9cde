"""Marginal problem: substitution maps, spectra, the fixed-point solvers."""
import itertools

import numpy as np
import pytest

from qoptools.errors import (
    DegenerateIterate,
    InvalidInput,
    InvalidSubsystem,
    NotConverged,
)
from qoptools.mathcore import (
    fidelity,
    hs_distance,
    matrix_to_dict,
    partial_trace,
    random_mixed_state,
    random_pure_state,
)
from qoptools import qmp
from qoptools.qmp import (
    HalpernSchedule,
    MarginalSpec,
    SpectralConstraint,
    ame_spec,
    embed_with_mixed,
    impose_all,
    impose_marginal,
    impose_spectrum,
    npm_sweep,
    problem_from_dict,
    solve,
    solve_accelerated,
    spec_from_generator,
)

import oracles
from test_qse import Sentinel, fail_on_third_call


def test_embed_matches_loop_oracle():
    rng = np.random.default_rng(110)
    for subset in [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]:
        sig = random_mixed_state((2,) * len(subset), rng).matrix
        got = embed_with_mixed(sig, subset, 3, 2)
        want = oracles.embed_loops(sig, subset, 3, 2)
        assert np.abs(got - want).max() < 1e-13


def test_impose_marginal_writes_the_reduction():
    rng = np.random.default_rng(111)
    for subset in [(0,), (0, 1), (1, 2), (0, 2)]:
        rho = random_mixed_state((2, 2, 2), rng).matrix
        sigma = random_mixed_state((2,) * len(subset), rng).matrix
        out = impose_marginal(rho, subset, sigma, 2)
        red = partial_trace(out, subset, (2, 2, 2))
        assert np.abs(red - sigma).max() < 1e-12
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_impose_marginal_matches_dense_embedding():
    # the strided in-place update against rho - embed(Tr_Jc rho) + embed(sigma)
    rng = np.random.default_rng(131)
    for n, d in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]:
        dims = (d,) * n
        rho = random_mixed_state(dims, rng).matrix
        for k in range(1, n):
            for subset in itertools.combinations(range(n), k):
                sigma = random_mixed_state((d,) * k, rng).matrix
                want = (rho - embed_with_mixed(partial_trace(rho, subset, dims), subset, n, d)
                        + embed_with_mixed(sigma, subset, n, d))
                got = impose_marginal(rho, subset, sigma, d)
                assert np.abs(got - want).max() < 1e-14, (n, d, subset)


def test_impose_marginal_keeps_disjoint_reductions():
    rng = np.random.default_rng(112)
    rho = random_mixed_state((2, 2, 2), rng).matrix
    sigma = random_mixed_state(2, rng).matrix
    before = partial_trace(rho, (1, 2), (2, 2, 2))
    out = impose_marginal(rho, (0,), sigma, 2)
    # writing party 0 must not touch what lives on parties 1 and 2 alone
    after_12 = partial_trace(out, (1, 2), (2, 2, 2))
    after_0 = partial_trace(out, (0,), (2, 2, 2))
    assert np.abs(after_0 - sigma).max() < 1e-12
    assert np.abs(
        after_12 - before
        - (np.trace(sigma) - 1.0) * np.eye(4) / 4
    ).max() < 1e-12


def test_impose_marginal_commutes_on_compatible_targets():
    # overlapping substitutions commute when both targets reduce from a
    # common global state; targets that disagree on the shared party
    # leave a commutator proportional to that disagreement
    rng = np.random.default_rng(113)
    for _ in range(6):
        rho = random_mixed_state((2, 2, 2), rng).matrix
        src = random_mixed_state((2, 2, 2), rng).matrix
        s01 = partial_trace(src, (0, 1), (2, 2, 2))
        s12 = partial_trace(src, (1, 2), (2, 2, 2))
        ab = impose_marginal(impose_marginal(rho, (0, 1), s01, 2), (1, 2), s12, 2)
        ba = impose_marginal(impose_marginal(rho, (1, 2), s12, 2), (0, 1), s01, 2)
        assert np.abs(ab - ba).max() < 1e-11


def test_impose_marginal_commutes_on_disjoint_targets():
    # disjoint subsets commute regardless of compatibility
    rng = np.random.default_rng(130)
    rho = random_mixed_state((2, 2, 2), rng).matrix
    s0 = random_mixed_state(2, rng).matrix
    s2 = random_mixed_state(2, rng).matrix
    ab = impose_marginal(impose_marginal(rho, (0,), s0, 2), (2,), s2, 2)
    ba = impose_marginal(impose_marginal(rho, (2,), s2, 2), (0,), s0, 2)
    assert np.abs(ab - ba).max() < 1e-13


def test_impose_marginal_is_a_projection():
    rng = np.random.default_rng(114)
    rho = random_mixed_state((2, 2, 2), rng).matrix
    sigma = random_mixed_state((2, 2), rng).matrix
    once = impose_marginal(rho, (0, 1), sigma, 2)
    twice = impose_marginal(once, (0, 1), sigma, 2)
    assert np.abs(once - twice).max() < 1e-13


def test_impose_marginal_validates_subsets():
    rho = np.eye(8) / 8
    sigma = np.eye(2) / 2
    with pytest.raises(InvalidSubsystem):
        impose_marginal(rho, (3,), sigma, 2)
    with pytest.raises(InvalidSubsystem):
        impose_marginal(rho, (0, 0), sigma, 2)
    with pytest.raises(InvalidInput):
        impose_marginal(rho, (0, 1), sigma, 2)  # sigma dim mismatch


def test_single_substitution_can_leave_the_psd_cone():
    # start from a classically correlated diag(a, 0, 0, b) state and
    # overwrite party A with a marginal that contradicts it; the output
    # is trace-one Hermitian but picks up the eigenvalue (g - a) / 2
    alpha, beta = 0.9, 0.1
    gamma, delta = 0.1, 0.9
    rho = np.diag([alpha, 0.0, 0.0, beta]).astype(complex)
    sig_a = np.diag([gamma, delta]).astype(complex)
    out = impose_marginal(rho, (0,), sig_a, 2)
    want = 0.5 * np.diag([alpha + gamma, gamma - alpha, delta - beta, beta + delta])
    assert np.abs(out - want).max() < 1e-14
    assert abs(np.trace(out).real - 1.0) < 1e-14
    assert abs(np.linalg.eigvalsh(out).min() - (-0.4)) < 1e-14


def test_impose_all_fixed_point_on_compatible_targets():
    rng = np.random.default_rng(115)
    gen = random_mixed_state((2, 2, 2), rng)
    spec = spec_from_generator(gen, [(0, 1), (0, 2), (1, 2)])
    out = impose_all(gen.matrix, spec)
    assert np.abs(out - gen.matrix).max() < 1e-13


def test_closed_formula_all_two_body():
    rng = np.random.default_rng(116)
    for n in (3, 4):
        d = 2
        gen = random_mixed_state((d,) * n, rng)
        subsets = list(itertools.combinations(range(n), 2))
        spec = spec_from_generator(gen, subsets)
        iterated = impose_all(np.eye(d**n, dtype=complex) / d**n, spec)
        sig2 = {s: partial_trace(gen.matrix, s, (d,) * n) for s in subsets}
        sig1 = {i: partial_trace(gen.matrix, (i,), (d,) * n) for i in range(n)}
        formula = oracles.closed_formula("all2", sig2, sig1, None, n, d, embed_with_mixed)
        assert np.abs(formula - iterated).max() < 1e-12


def test_closed_formula_one_and_three_body():
    rng = np.random.default_rng(117)
    n, d = 4, 2
    gen = random_mixed_state((d,) * n, rng)
    sig1 = {i: partial_trace(gen.matrix, (i,), (d,) * n) for i in range(n)}
    spec = spec_from_generator(gen, [(i,) for i in range(n)])
    iterated = impose_all(np.eye(d**n, dtype=complex) / d**n, spec)
    formula = oracles.closed_formula("N4k1", None, sig1, None, n, d, embed_with_mixed)
    assert np.abs(formula - iterated).max() < 1e-12

    subsets3 = list(itertools.combinations(range(n), 3))
    sig3 = {s: partial_trace(gen.matrix, s, (d,) * n) for s in subsets3}
    sig2 = {s: partial_trace(gen.matrix, s, (d,) * n)
            for s in itertools.combinations(range(n), 2)}
    spec3 = spec_from_generator(gen, subsets3)
    iterated3 = impose_all(np.eye(d**n, dtype=complex) / d**n, spec3)
    formula3 = oracles.closed_formula("N4k3", sig2, sig1, sig3, n, d, embed_with_mixed)
    assert np.abs(formula3 - iterated3).max() < 1e-12


def test_marginal_spec_validation():
    sigma = np.eye(4) / 4
    MarginalSpec(3, 2, [((0, 1), sigma)])
    with pytest.raises(InvalidSubsystem):
        MarginalSpec(3, 2, [((0, 5), sigma)])
    with pytest.raises(InvalidInput):
        MarginalSpec(3, 2, [((0,), sigma)])
    # no targets is legal: the sweep is then a no-op (the m=0 edge case)
    empty = MarginalSpec(3, 2, [])
    rho = np.eye(8, dtype=complex) / 8
    assert np.abs(impose_all(rho, empty) - rho).max() == 0.0


def test_ame_spec_shape():
    spec = ame_spec(4, 3)
    assert len(spec) == 6  # all two-party subsets of four
    for subset, sigma in spec.targets:
        assert len(subset) == 2
        assert np.abs(sigma.matrix - np.eye(9) / 9).max() == 0.0


@pytest.mark.parametrize("spec", [ame_spec(4, 3), MarginalSpec(3, 2, [((0, 1), np.eye(4) / 4)])],
                         ids=["ame43", "n3d2"])
@pytest.mark.parametrize("seed", [0, 7])
def test_seed_state_is_the_random_mixed_state_draw(spec, seed):
    # the solvers' unchecked seed draw takes the same bits from the generator
    dims = (spec.local_dim,) * spec.n_parties
    got = qmp._seed_state(spec, np.random.default_rng(seed), False)
    assert np.array_equal(got, random_mixed_state(dims, np.random.default_rng(seed)).matrix)


def test_spectral_constraint_validation():
    SpectralConstraint.with_rank(2)
    lam = SpectralConstraint.with_spectrum([0.5, 0.3, 0.2, 0.0])
    assert abs(lam.spectrum.sum() - 1.0) < 1e-12
    with pytest.raises(InvalidInput):
        SpectralConstraint.with_rank(0)
    with pytest.raises(InvalidInput):
        SpectralConstraint.with_spectrum([0.7, -0.2])
    with pytest.raises(InvalidInput):
        SpectralConstraint("both", spectrum=[1.0], rank=1)
    # NaN compares false against every bound, so it needs its own check
    with pytest.raises(InvalidInput):
        SpectralConstraint.with_spectrum(None)
    with pytest.raises(InvalidInput):
        SpectralConstraint.with_spectrum([np.nan, np.nan])


def test_impose_spectrum_writes_spectrum_exactly():
    rng = np.random.default_rng(118)
    rho = random_mixed_state(6, rng).matrix
    lam = np.sort(np.random.default_rng(1).dirichlet(np.ones(6)))[::-1]
    out = impose_spectrum(rho, SpectralConstraint.with_spectrum(lam))
    got = np.sort(np.linalg.eigvalsh(out))[::-1]
    assert np.abs(got - lam).max() < 1e-12


def test_impose_spectrum_rank_mode():
    rng = np.random.default_rng(119)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (h + h.conj().T) / 2
    h = h + np.eye(6) * 0.01  # keep a few positive directions
    out = impose_spectrum(h, SpectralConstraint.with_rank(2))
    w = np.linalg.eigvalsh(out)
    assert np.sum(w > 1e-12) <= 2
    assert w.min() > -1e-12
    assert abs(np.trace(out).real - 1.0) < 1e-12


def test_impose_spectrum_rank_mode_needs_positive_direction():
    h = -np.eye(3)
    with pytest.raises(DegenerateIterate):
        impose_spectrum(h, SpectralConstraint.with_rank(1))


def test_solve_recovers_pure_state_from_two_body_marginals():
    rng = np.random.default_rng(120)
    gen = random_pure_state((2, 2, 2), rng)
    spec = spec_from_generator(gen, list(itertools.combinations(range(3), 2)))
    state, report = solve(spec, SpectralConstraint.with_rank(1), accuracy=1e-6,
                          max_iterations=20000, identity_seed=True)
    assert report.converged
    assert report.total_dist[-1] < 1e-6
    assert fidelity(state, gen) > 1 - 1e-5


def test_solve_report_is_consistent():
    rng = np.random.default_rng(121)
    gen = random_pure_state((2, 2, 2), rng)
    spec = spec_from_generator(gen, list(itertools.combinations(range(3), 2)))
    state, report = solve(spec, SpectralConstraint.with_rank(1), accuracy=1e-6,
                          max_iterations=20000, identity_seed=True)
    assert report.iterations == int(report.steps[-1])
    combo = np.sqrt(report.marginal_dist**2 + report.spectral_dist**2)
    assert np.abs(combo - report.total_dist).max() < 1e-12
    assert len(report.trajectory_rows()) == len(report.steps)
    assert report.runtime > 0.0


def test_solve_spectra_mode_hits_prescription():
    rng = np.random.default_rng(122)
    gen = random_mixed_state((2, 2), rng, rank=2)
    lam = np.sort(np.linalg.eigvalsh(gen.matrix))[::-1]
    spec = spec_from_generator(gen, [(0,), (1,)])
    state, report = solve(spec, SpectralConstraint.with_spectrum(lam),
                          accuracy=1e-9, max_iterations=20000, rng=4)
    assert report.converged
    got = np.sort(np.linalg.eigvalsh(state.matrix))[::-1]
    assert np.abs(got - lam).max() < 1e-9


def test_solve_raises_with_partial_result():
    spec = ame_spec(4, 2)  # no such state, the iteration cannot finish
    with pytest.raises(NotConverged) as err:
        solve(spec, SpectralConstraint.with_rank(1), accuracy=1e-6,
              max_iterations=100, rng=0)
    state, report = err.value.result
    assert not report.converged
    assert report.iterations == 100
    # the distances plateau well above tolerance for every step
    assert report.total_dist.min() > 1e-2


def test_solve_seed_reproducibility():
    spec = ame_spec(3, 2)
    a = None
    for _ in range(2):
        try:
            solve(spec, SpectralConstraint.with_rank(1), accuracy=1e-6,
                  max_iterations=50, rng=9)
        except NotConverged as err:
            state, report = err.value.result if hasattr(err, "value") else err.result
            if a is None:
                a = (state.matrix.copy(), report.total_dist.copy())
            else:
                assert np.abs(state.matrix - a[0]).max() == 0.0
                assert np.abs(report.total_dist - a[1]).max() == 0.0


def _solve_steps(spec, con, seed, **kwargs):
    """solve from the seeded random start; the partial result when capped."""
    try:
        return solve(spec, con, rng=np.random.default_rng(seed), **kwargs)
    except NotConverged as err:
        return err.result


def _assert_matches_reference(spec, con, seed, state, report):
    dims = (spec.local_dim,) * spec.n_parties
    x0 = random_mixed_state(dims, np.random.default_rng(seed)).matrix
    ref = oracles.reference_marginal_solve(x0, spec, con, report.iterations,
                                           impose_all, impose_spectrum)
    assert np.array_equal(report.steps, np.arange(1, report.iterations + 1))
    assert np.abs(np.array([r[0] for r in ref]) - report.marginal_dist).max() < 1e-10
    assert np.abs(np.array([r[1] for r in ref]) - report.spectral_dist).max() < 1e-10
    assert np.abs(ref[-1][2] - state.matrix).max() < 1e-10


def test_rank_mode_steps_match_full_spectrum_reference():
    # warm top-r eigensteps against a loop of full decompositions, step by step
    ame43 = ame_spec(4, 3)
    gen = random_mixed_state((3, 3, 3), np.random.default_rng(132), rank=2)
    rank2 = spec_from_generator(gen, list(itertools.combinations(range(3), 2)))
    for spec, con, seed in [(ame43, SpectralConstraint.with_rank(1), 13),
                            (rank2, SpectralConstraint.with_rank(2), 6)]:
        state, report = _solve_steps(spec, con, seed, max_iterations=5000)
        assert report.converged
        assert report.warm_eigensteps == report.iterations - 1
        assert report.eigh_fallbacks == 0
        _assert_matches_reference(spec, con, seed, state, report)


def test_rank_one_solve_resolves_distances_below_sqrt_eps():
    # ||X||^2 - sum(w^2) cancels at about 1.5e-8; the direct tail norm does not
    # and can even reach 0 by luck, so the steps are also checked one by one
    gen = random_pure_state((2, 2, 2), np.random.default_rng(11))
    spec = spec_from_generator(gen, list(itertools.combinations(range(3), 2)))
    con = SpectralConstraint.with_rank(1)
    state, report = _solve_steps(spec, con, 12, accuracy=1e-12, max_iterations=20000)
    assert report.converged
    assert report.total_dist[-1] <= 1e-12
    assert report.warm_eigensteps == report.iterations - 1
    assert fidelity(state, gen) > 1 - 1e-10
    _assert_matches_reference(spec, con, 12, state, report)


def test_rejected_warm_step_falls_back_to_the_reference_step(monkeypatch):
    # one block is the previous top vector alone, no eigenvector of the new
    # iterate, so every warm step fails its residual test
    monkeypatch.setattr(qmp, "KRYLOV_BLOCKS", 1)
    gen = random_pure_state((2, 2, 2), np.random.default_rng(133))
    spec = spec_from_generator(gen, list(itertools.combinations(range(3), 2)))
    con = SpectralConstraint.with_rank(1)
    state, report = _solve_steps(spec, con, 7, accuracy=1e-14, max_iterations=40)
    assert report.iterations == 40
    assert report.warm_eigensteps == 0
    assert report.eigh_fallbacks == 39
    _assert_matches_reference(spec, con, 7, state, report)


def test_spectra_mode_and_near_full_rank_never_warm_start():
    gen = random_mixed_state((2, 2), np.random.default_rng(134))
    spec = spec_from_generator(gen, [(0,), (1,)])
    lam = np.sort(np.linalg.eigvalsh(gen.matrix))[::-1]
    for con in (SpectralConstraint.with_spectrum(lam), SpectralConstraint.with_rank(3)):
        _, report = _solve_steps(spec, con, 8, accuracy=1e-14, max_iterations=20)
        assert report.warm_eigensteps == report.eigh_fallbacks == 0


@pytest.mark.parametrize("exact", [False, True])
def test_warm_step_from_an_invariant_start_keeps_its_basis_orthonormal(exact):
    # v is already the top eigenvector, so every block after the first
    # collapses: to roundoff for a random v, to exactly zero for e_0
    rng = np.random.default_rng(135)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v = np.eye(16, dtype=complex)[:, 0] if exact else v / np.linalg.norm(v)
    w, vecs = qmp._top_eigenpairs(np.outer(v, v.conj()), v[:, None])
    assert abs(w[0] - 1.0) < 1e-14
    assert abs(np.linalg.norm(vecs[:, 0]) - 1.0) < 1e-14
    assert abs(abs(np.vdot(v, vecs[:, 0])) - 1.0) < 1e-14


def test_same_seed_diverging_runs_are_identical():
    # the iterate reaches ~1e72 before the overflow stop; a warm eigenstep
    # that kept state between calls made these runs part ways near step 125
    dists = []
    for _ in range(3):
        with pytest.raises(DegenerateIterate) as err:
            solve_accelerated(ame_spec(4, 2), SpectralConstraint.with_rank(1), HalpernSchedule(),
                              max_iterations=2000, rng=0)
        dists.append(err.value.result[1].total_dist)
    assert np.array_equal(dists[0], dists[1]) and np.array_equal(dists[0], dists[2])


def test_diverging_iterate_keeps_its_partial_result():
    # full momentum on an infeasible prescription overflows after a few hundred sweeps
    with pytest.raises(DegenerateIterate) as err:
        solve_accelerated(ame_spec(4, 2), SpectralConstraint.with_rank(1), HalpernSchedule(),
                          max_iterations=2000, rng=0)
    state, report = err.value.result
    assert not report.converged
    assert 1 < report.iterations < 2000
    assert report.steps[-1] == report.iterations
    assert np.all(np.isfinite(state.matrix))
    assert abs(np.trace(state.matrix) - 1.0) < 1e-9


def test_halpern_schedule_validation_and_coefficients():
    sched = HalpernSchedule(alpha=1.0, mu=0.05, exponent=1.0, beta_scale=1.0)
    a0, b0 = sched.coefficients(0)
    assert a0 == 1.0 and b0 == 1.0
    a_big, b_big = sched.coefficients(10**7)
    assert a_big < 0.01 and b_big < 1e-4
    with pytest.raises(InvalidInput):
        HalpernSchedule(alpha=0.0)
    with pytest.raises(InvalidInput):
        HalpernSchedule(mu=-0.1)
    with pytest.raises(InvalidInput):
        HalpernSchedule(beta_scale=1.5)
    with pytest.raises(InvalidInput):
        HalpernSchedule(exponent=-1.0)
    for field in ("alpha", "mu", "exponent", "beta_scale"):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidInput):
                HalpernSchedule(**{field: bad})


def test_solvers_reject_non_finite_accuracy():
    spec, con = ame_spec(3, 2), SpectralConstraint.with_rank(1)
    for bad in (np.nan, np.inf, 0.0):
        with pytest.raises(InvalidInput):
            solve(spec, con, accuracy=bad, max_iterations=5, rng=0)
        with pytest.raises(InvalidInput):
            solve_accelerated(spec, con, accuracy=bad, max_iterations=5, rng=0)


def test_solvers_reject_fewer_than_one_iteration():
    spec, con = ame_spec(3, 2), SpectralConstraint.with_rank(1)
    for bad in (0, -5):
        with pytest.raises(InvalidInput):
            solve(spec, con, max_iterations=bad, rng=0)
        with pytest.raises(InvalidInput):
            solve_accelerated(spec, con, max_iterations=bad, rng=0)


@pytest.mark.parametrize("damped", [False, True])
def test_swept_iterate_is_exactly_hermitian(monkeypatch, damped):
    # targets within 1e-12 of Hermitian are stored symmetrized, so every
    # sweep hands the eigensolver an exactly Hermitian matrix
    rng = np.random.default_rng(126)
    gen = random_mixed_state((2, 2, 2), rng)
    noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    targets = [(sub, partial_trace(gen, sub).matrix + 1e-13 * (noise - noise.conj().T))
               for sub in itertools.combinations(range(3), 2)]
    spec = MarginalSpec(3, 2, targets)
    swept = []
    real_eigh = qmp.eigh

    def recording_eigh(m):
        swept.append(np.array_equal(m, m.conj().T))
        return real_eigh(m)

    monkeypatch.setattr(qmp, "eigh", recording_eigh)
    con = SpectralConstraint.with_spectrum(np.sort(np.linalg.eigvalsh(gen.matrix))[::-1])
    with pytest.raises(NotConverged):
        if damped:
            solve_accelerated(spec, con, HalpernSchedule(mu=0.1), accuracy=1e-14,
                              max_iterations=5, rng=0)
        else:
            solve(spec, con, accuracy=1e-14, max_iterations=5, rng=0)
    assert swept == [True] * 5


def test_accelerated_reduction_matches_plain_solver():
    # switching the momentum and damping off must reproduce the plain
    # iteration step for step, not merely at the fixed point
    rng = np.random.default_rng(123)
    gen = random_pure_state((2, 2, 2), rng)
    spec = spec_from_generator(gen, list(itertools.combinations(range(3), 2)))
    con = SpectralConstraint.with_rank(1)
    reduction = HalpernSchedule(alpha=1.0, mu=1.0, exponent=0.0, beta_scale=0.0)
    s1, r1 = solve(spec, con, accuracy=1e-6, max_iterations=20000, identity_seed=True)
    s2, r2 = solve_accelerated(spec, con, reduction, accuracy=1e-6,
                               max_iterations=20000, identity_seed=True)
    assert r1.iterations == r2.iterations
    assert np.abs(r1.total_dist - r2.total_dist).max() < 1e-10
    assert np.abs(s1.matrix - s2.matrix).max() < 1e-10


def _spec_of_random_state(n, d, subsets, seed):
    return spec_from_generator(random_mixed_state((d,) * n, np.random.default_rng(seed)), subsets)


# (spec, steps): overlapping, nested, disjoint and repeated subsets of 1 to 3 parties
DAMPED_CASES = {
    "ame43": (lambda: ame_spec(4, 3), 60),
    "ame44": (lambda: ame_spec(4, 4), 25),
    "n3d2_one_and_two_body": (lambda: _spec_of_random_state(3, 2, [(0,), (0, 1), (1, 2)], 140), 60),
    "repeated_subset": (lambda: _spec_of_random_state(3, 2, [(0, 1), (1, 2), (0, 1)], 141), 60),
    "n5_three_body": (lambda: _spec_of_random_state(
        5, 2, list(itertools.combinations(range(5), 3)), 142), 60),
    "n3d3": (lambda: _spec_of_random_state(3, 3, [(0, 1), (1, 2), (0, 2)], 143), 60),
}
DAMPED_SCHEDULES = {
    "mu0.1": HalpernSchedule(mu=0.1, beta_scale=1.0),
    "mu0.5_beta0.3": HalpernSchedule(mu=0.5, beta_scale=0.3),
    "neutral": HalpernSchedule(mu=1.0, exponent=0.0, beta_scale=0.0),
}


def _last_iterate(run):
    try:
        return run()
    except NotConverged as exc:
        return exc.result


@pytest.mark.parametrize("schedule", DAMPED_SCHEDULES)
@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("case", DAMPED_CASES)
def test_block_momentum_matches_dense_momentum(case, rank, schedule):
    # the per-target momentum blocks and the cross reductions within a sweep
    # must give the dense accumulator's iteration, up to summation order
    make, steps = DAMPED_CASES[case]
    spec, con, sched = make(), SpectralConstraint.with_rank(rank), DAMPED_SCHEDULES[schedule]
    state, report = _last_iterate(lambda: solve_accelerated(
        spec, con, sched, accuracy=1e-300, max_iterations=steps, rng=0))
    x0 = qmp._seed_state(spec, np.random.default_rng(0), False)
    dense = oracles.damped_sweep_dense(spec, sched, embed_with_mixed)
    ref_state, ref = _last_iterate(lambda: qmp._iterate(spec, con, 1e-300, steps, x0, dense))
    assert report.iterations == ref.iterations == steps
    for got, want in [(report.marginal_dist, ref.marginal_dist),
                      (report.spectral_dist, ref.spectral_dist),
                      (report.total_dist, ref.total_dist)]:
        assert np.abs(got - want).max() < 1e-12
    assert np.abs(state.matrix - ref_state.matrix).max() < 1e-12


def test_schedule_alpha_has_no_effect():
    # the accumulator holds the residual over alpha and the step carries alpha,
    # so alpha cancels; computing without it makes the trajectories equal bit for bit
    spec, con = ame_spec(4, 3), SpectralConstraint.with_rank(1)
    dists = []
    for alpha in (0.3, 1.0, 7.0):
        with pytest.raises(NotConverged) as err:
            solve_accelerated(spec, con, HalpernSchedule(alpha=alpha, mu=0.1),
                              max_iterations=60, rng=0)
        dists.append(err.value.result[1].total_dist)
    assert np.array_equal(dists[0], dists[1]) and np.array_equal(dists[0], dists[2])


def test_accelerated_momentum_converges():
    rng = np.random.default_rng(124)
    gen = random_pure_state((2, 2, 2), rng)
    spec = spec_from_generator(gen, list(itertools.combinations(range(3), 2)))
    sched = HalpernSchedule(mu=0.1)
    state, report = solve_accelerated(spec, SpectralConstraint.with_rank(1), sched,
                                      accuracy=1e-6, max_iterations=20000,
                                      identity_seed=True)
    assert report.converged
    assert fidelity(state, gen) > 1 - 1e-4


def test_accelerated_full_momentum_guard():
    # mu=1 with undamped momentum blows the iterate up; the solver must
    # say so instead of failing inside the eigensolver
    rng = np.random.default_rng(125)
    gen = random_pure_state((2, 2, 2, 2), rng)
    spec = spec_from_generator(gen, list(itertools.combinations(range(4), 2)))
    with pytest.raises((DegenerateIterate, NotConverged)):
        solve_accelerated(spec, SpectralConstraint.with_rank(1),
                          HalpernSchedule(),  # mu=1, full momentum
                          accuracy=1e-6, max_iterations=3000, identity_seed=True)


def test_npm_sweep_edges_and_thread_invariance():
    table = npm_sweep(4, 2, 2, [0, 3, 6], trials=30, generator="full-rank", rng=5)
    # one spawned stream per trial, in (m, trial) order, fixes these counts
    assert table == [(0, 30), (3, 30), (6, 29)]
    counts = dict(table)
    assert counts[0] == 30  # m=0 leaves the identity, always PSD
    assert counts[6] >= 25  # full-rank qubit generators almost always stay PSD


def test_npm_sweep_pure_generators_rarely_psd():
    res = npm_sweep(4, 2, 2, [6], trials=30, generator="pure", rng=5)
    assert dict(res)[6] <= 2


def test_npm_sweep_spawns_streams_per_trial_not_up_front(monkeypatch):
    # a huge trial count must reach its trials, not spawn a stream for each first
    monkeypatch.setattr(qmp, "_npm_trial", fail_on_third_call(True))
    with pytest.raises(Sentinel):
        npm_sweep(4, 2, 2, [1], trials=10**11, rng=0)


def test_npm_sweep_validation():
    with pytest.raises(InvalidInput):
        npm_sweep(4, 4, 2, [1], trials=5, rng=0)
    with pytest.raises(InvalidInput):
        npm_sweep(4, 2, 2, [7], trials=5, rng=0)  # only 6 two-party subsets
    with pytest.raises(InvalidInput):
        npm_sweep(4, 2, 2, [1], trials=5, generator="thermal", rng=0)
    with pytest.raises(InvalidInput):
        npm_sweep(4, 2, 2, [], trials=5, rng=0)


def test_problem_dict_round_trip(tmp_path):
    rng = np.random.default_rng(126)
    gen = random_mixed_state((2, 2, 2), rng)
    spec = spec_from_generator(gen, [(0, 1), (1, 2)])
    con = SpectralConstraint.with_rank(2)
    obj = {"N": 3, "d": 2, "constraint": {"rank": 2},
           "targets": [{"subset": list(sub), "state": matrix_to_dict(sigma.matrix)}
                       for sub, sigma in spec.targets]}
    spec2, con2 = problem_from_dict(obj)
    assert spec2.n_parties == 3 and spec2.local_dim == 2
    assert con2.mode == "rank" and con2.rank == 2
    for (s1, m1), (s2, m2) in zip(spec.targets, spec2.targets):
        assert s1 == s2
        assert np.abs(m1.matrix - m2.matrix).max() < 1e-15


def test_problem_from_dict_tokens_and_paths(tmp_path):
    import json

    sigma = random_mixed_state((2, 2), np.random.default_rng(127)).matrix
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(matrix_to_dict(sigma)))
    obj = {
        "N": 3,
        "d": 2,
        "targets": [
            {"subset": [0, 1], "state": "maximally-mixed"},
            {"subset": [1, 2], "state": "sigma.json"},
        ],
        "constraint": {"rank": 1},
    }
    spec, con = problem_from_dict(obj, base_dir=str(tmp_path))
    assert np.abs(spec.targets[0][1].matrix - np.eye(4) / 4).max() == 0.0
    assert np.abs(spec.targets[1][1].matrix - sigma).max() < 1e-15
    with pytest.raises(InvalidInput):
        problem_from_dict({"d": 2, "targets": [], "constraint": {"rank": 1}})
    with pytest.raises(InvalidInput):
        problem_from_dict({"N": 3, "d": 2, "targets": [], "constraint": {}})
