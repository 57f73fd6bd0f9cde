"""State estimation: imposition maps, the iteration, simulated data."""
import numpy as np
import pytest

from qoptools.errors import DegenerateEffect, InvalidInput, InvalidMeasurementKind, TooLargeScenario
from qoptools.mathcore import (
    MeasurementSet,
    fidelity,
    hs_distance,
    kron,
    mub_bases,
    pauli_product_bases,
    qubit_mub_bases,
    random_mixed_state,
    random_pure_state,
)
from qoptools.qse import (
    _fidelity_trials,
    _PauliFrame,
    EstimationProblem,
    ImpositionTarget,
    NoiseModel,
    bootstrap_fidelity,
    born_probabilities,
    estimate,
    estimation_problem_from_dict,
    impose_one,
    impose_pvm,
    measurement_protocol,
    nearest_density_matrix,
    run_benchmark,
    simulate_frequencies,
)

import oracles


def _random_effect(d, rng):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    e = h @ h.conj().T
    return e / np.linalg.eigvalsh(e).max()


def test_impose_one_fixes_the_expectation():
    rng = np.random.default_rng(60)
    for _ in range(20):
        d = int(rng.choice([2, 3, 4]))
        rho = random_mixed_state(d, rng).matrix
        e = _random_effect(d, rng)
        p = float(rng.uniform(0, 1))
        out = impose_one(rho, ImpositionTarget(e, p))
        assert abs(np.trace(out @ e).real - p) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_impose_one_is_idempotent():
    rng = np.random.default_rng(61)
    rho = random_mixed_state(3, rng).matrix
    e = _random_effect(3, rng)
    t = ImpositionTarget(e, 0.3)
    once = impose_one(rho, t)
    twice = impose_one(once, t)
    assert np.abs(once - twice).max() < 1e-13


def test_impose_one_is_non_expansive():
    rng = np.random.default_rng(62)
    for _ in range(50):
        d = int(rng.choice([2, 3]))
        a = random_mixed_state(d, rng).matrix
        b = random_mixed_state(d, rng).matrix
        e = _random_effect(d, rng)
        t = ImpositionTarget(e, float(rng.uniform(0, 1)))
        before = hs_distance(a, b)
        after = hs_distance(impose_one(a, t), impose_one(b, t))
        assert after <= before + 1e-12


def test_impose_one_matches_sequential_oracle():
    rng = np.random.default_rng(63)
    rho = random_mixed_state(3, rng).matrix
    targets = [(_random_effect(3, rng), float(rng.uniform(0, 1))) for _ in range(5)]
    lib = rho
    for e, p in targets:
        lib = impose_one(lib, ImpositionTarget(e, p))
    assert np.abs(lib - oracles.impose_effects_sequential(rho, targets)).max() < 1e-12


def test_two_effect_composition_closed_form():
    rng = np.random.default_rng(64)
    for _ in range(30):
        d = int(rng.choice([2, 3, 4]))
        rho = random_mixed_state(d, rng).matrix
        e1, e2 = _random_effect(d, rng), _random_effect(d, rng)
        p1, p2 = rng.uniform(0, 1, size=2)
        seq = impose_one(impose_one(rho, ImpositionTarget(e1, p1)), ImpositionTarget(e2, p2))
        closed = oracles.compose_two_closed_form(rho, e1, p1, e2, p2)
        assert np.abs(seq - closed).max() < 1e-11


def test_impose_pvm_equals_effectwise_updates_from_original():
    # for orthogonal projectors the cross corrections vanish, so writing
    # every gap relative to the starting state reproduces the sweep
    rng = np.random.default_rng(65)
    for basis in mub_bases(3):
        rho = random_mixed_state(3, rng).matrix
        probs = rng.dirichlet(np.ones(3))
        swept = impose_pvm(rho, basis, probs)
        additive = rho.copy()
        for e, p in zip(basis.effects, probs):
            gap = p - np.trace(rho @ e)
            additive = additive + gap * e / np.trace(e @ e)
        assert np.abs(swept - additive).max() < 1e-12
        got = [np.trace(swept @ e).real for e in basis.effects]
        assert np.abs(np.asarray(got) - probs).max() < 1e-12


def _rank_two_pvms():
    # two rank-2 projectors on C^4 in a random basis: given as effects, and as
    # that basis with the outcomes of its columns interleaved
    rng = np.random.default_rng(69)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    low = u[:, :2] @ u[:, :2].conj().T
    projectors = [low, np.eye(4) - low]
    interleaved = MeasurementSet.from_basis(u[:, [0, 2, 1, 3]], outcomes=[0, 1, 0, 1])
    return [(MeasurementSet(projectors), projectors), (interleaved, projectors)]


def _with_effects(sets):
    return [(meas, meas.effects) for meas in sets]


PVM_FAMILIES = {
    "mub2": lambda: _with_effects(mub_bases(2)),
    "mub3": lambda: _with_effects(mub_bases(3)),
    "mub5": lambda: _with_effects(mub_bases(5)),
    "qubit_mub1": lambda: _with_effects(qubit_mub_bases(1)),
    "qubit_mub2": lambda: _with_effects(qubit_mub_bases(2)),
    "qubit_mub3": lambda: _with_effects(qubit_mub_bases(3)),
    "pauli1": lambda: _with_effects(pauli_product_bases(1)),
    "pauli2": lambda: _with_effects(pauli_product_bases(2)),
    "pauli3": lambda: _with_effects(pauli_product_bases(3)),
    "rank_two": _rank_two_pvms,
}


@pytest.mark.parametrize("family", sorted(PVM_FAMILIES))
def test_pvm_basis_path_matches_projector_oracle(family):
    rng = np.random.default_rng(sorted(PVM_FAMILIES).index(family))
    for meas, projectors in PVM_FAMILIES[family]():
        rho = random_mixed_state(meas.dim, rng).matrix
        probs = rng.dirichlet(np.ones(len(meas)))
        got = impose_pvm(rho, meas, probs)
        want = oracles.impose_pvm_projectors(rho, projectors, probs)
        assert np.abs(got - want).max() < 1e-12
        want_p = oracles.born_probabilities_projectors(projectors, rho)
        assert np.abs(born_probabilities(rho, meas) - want_p).max() < 1e-12


def test_impose_one_rejects_zero_effect():
    rho = np.eye(2) / 2
    with pytest.raises(DegenerateEffect):
        impose_one(rho, ImpositionTarget(np.zeros((2, 2)), 0.5))


def test_nearest_density_matrix_matches_sort_oracle():
    rng = np.random.default_rng(66)
    for _ in range(25):
        d = int(rng.choice([2, 3, 4, 6]))
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (h + h.conj().T) / 2
        got = nearest_density_matrix(h).matrix
        want = oracles.nearest_density_sort(h)
        assert np.abs(got - want).max() < 1e-10


def test_nearest_density_matrix_hand_case():
    # diag(0.8, 0.6): shift both down by 0.2 to land on the simplex
    out = nearest_density_matrix(np.diag([0.8, 0.6])).matrix
    assert np.abs(out - np.diag([0.6, 0.4])).max() < 1e-12


def test_nearest_density_matrix_leaves_states_alone():
    rng = np.random.default_rng(67)
    rho = random_mixed_state(4, rng)
    out = nearest_density_matrix(rho.matrix)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-12


def test_born_probabilities_normalized():
    rng = np.random.default_rng(68)
    rho = random_mixed_state(2, rng)
    for meas in measurement_protocol(1, "mub"):
        p = born_probabilities(rho, meas)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= -1e-12)


def test_measurement_protocol_counts():
    assert len(measurement_protocol(1, "mub")) == 3
    assert len(measurement_protocol(2, "mub")) == 5
    assert len(measurement_protocol(1, "pauli")) == 3
    assert len(measurement_protocol(2, "pauli")) == 9
    with pytest.raises(InvalidInput):
        measurement_protocol(1, "tomography")


def test_pauli_protocol_qubit_guard(monkeypatch):
    from qoptools import qse

    monkeypatch.setattr(qse, "PAULI_QUBIT_GUARD", 2)
    assert len(measurement_protocol(2, "pauli")) == 9
    with pytest.raises(TooLargeScenario, match="3 qubits exceed the Pauli protocol guard of 2"):
        measurement_protocol(3, "pauli")


def _kron_pauli_bases(n):
    """The dense unitaries of the 3^n Pauli product bases, built by kron in ndindex order."""
    s2 = 1.0 / np.sqrt(2.0)
    single = [
        np.array([[s2, s2], [s2, -s2]], dtype=complex),
        np.array([[s2, s2], [1j * s2, -1j * s2]], dtype=complex),
        np.eye(2, dtype=complex),
    ]
    return [kron(*(single[c] for c in combo)) for combo in np.ndindex(*(3,) * n)]


def _assert_pauli_path_matches_dense(lettered, unitaries, seed):
    # the dense reference: the same bases as plain unitaries, without letters
    dense = [MeasurementSet.from_basis(v) for v in unitaries]
    n = len(lettered[0].letters)
    gen = random_mixed_state((2,) * n, seed)
    noise = NoiseModel(0.1, 100 * 2**n)
    freqs = simulate_frequencies(gen, lettered, noise, rng=seed)
    want = simulate_frequencies(gen, dense, noise, rng=seed)
    for got_f, want_f in zip(freqs, want, strict=True):
        assert np.array_equal(got_f, want_f)
    for a, b in zip(lettered, dense):
        assert np.abs(born_probabilities(gen, a) - born_probabilities(gen, b)).max() < 1e-12
    got = estimate(EstimationProblem(tuple(lettered), tuple(freqs)))
    ref = estimate(EstimationProblem(tuple(dense), tuple(want)))
    assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
    assert abs(got.residual - ref.residual) < 1e-12
    assert np.abs(got.state.matrix - ref.state.matrix).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_coordinates_match_the_dense_path(n):
    lettered = pauli_product_bases(n)
    unitaries = _kron_pauli_bases(n)
    _assert_pauli_path_matches_dense(lettered, unitaries, seed=90 + n)
    # read only now: the lazily built basis is the kron product, bit for bit
    for meas, v in zip(lettered, unitaries, strict=True):
        assert np.array_equal(meas.basis, v)
        assert meas.dim == 2**n and len(meas) == 2**n


def test_pauli_coordinates_take_any_subset_and_order():
    lettered, unitaries = pauli_product_bases(3)[::-2], _kron_pauli_bases(3)[::-2]
    _assert_pauli_path_matches_dense(lettered, unitaries, seed=96)


def test_pauli_and_other_sets_together_take_the_dense_path():
    rng = np.random.default_rng(97)
    gen = random_mixed_state(2, rng)
    mixed = pauli_product_bases(1)[:2] + mub_bases(2)[:1]
    freqs = [born_probabilities(gen, m) for m in mixed]
    result = estimate(EstimationProblem(tuple(mixed), tuple(freqs)))
    assert fidelity(result.state, gen) > 1 - 1e-8
    with pytest.raises(InvalidInput, match="different dimensions"):
        sets = pauli_product_bases(1) + pauli_product_bases(2)
        estimate(EstimationProblem(tuple(sets), tuple(np.full(len(m), 1 / len(m)) for m in sets)))


@pytest.mark.parametrize("n,protocol", [(1, "mub"), (2, "mub"), (1, "pauli"), (2, "pauli")])
def test_estimate_exact_data_two_passes(n, protocol):
    rng = np.random.default_rng(70 + n)
    gen = random_pure_state((2,) * n, rng)
    meas = measurement_protocol(n, protocol)
    freqs = [born_probabilities(gen, m) for m in meas]
    result = estimate(EstimationProblem(tuple(meas), tuple(freqs)))
    assert result.converged
    # the sweep is idempotent for these protocols, so the second pass
    # changes nothing and the loop stops right there
    assert result.iterations == 2
    assert result.residual < 1e-10
    assert fidelity(result.state, gen) > 1 - 1e-8


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def sic_povm():
    """Qubit tetrahedral SIC-POVM: (I + n.sigma)/4 for the four tetrahedron vertices n."""
    vertices = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    return MeasurementSet(
        [(np.eye(2) + sum(c * s for c, s in zip(n, _PAULIS))) / 4 for n in vertices], "povm"
    )


def test_estimate_exact_sic_povm_data():
    rng = np.random.default_rng(76)
    gen = random_mixed_state(2, rng)
    povm = sic_povm()
    freqs = born_probabilities(gen, povm)
    result = estimate(EstimationProblem((povm,), (freqs,)))
    assert result.converged
    # the four effects overlap, so each pass only shrinks the error by a
    # fixed factor: about 20 passes to move less than the default 1e-10
    assert 10 < result.iterations < 30
    assert result.residual < 1e-10
    assert fidelity(result.state, gen) > 1 - 1e-12
    assert np.abs(born_probabilities(result.state, povm) - freqs).max() < 1e-10


def test_estimate_exact_pauli_observable_basis():
    rng = np.random.default_rng(77)
    gen = random_mixed_state(2, rng)
    paulis = MeasurementSet(_PAULIS, "observable_basis")
    expectations = born_probabilities(gen, paulis)
    result = estimate(EstimationProblem((paulis,), (expectations,)))
    assert result.converged
    # the observables are HS-orthogonal, so one pass sets all three
    assert result.iterations == 2
    assert fidelity(result.state, gen) > 1 - 1e-12
    assert np.abs(born_probabilities(result.state, paulis) - expectations).max() < 1e-12


def test_estimate_noisy_data_still_two_passes():
    rng = np.random.default_rng(73)
    gen = random_mixed_state((2, 2), rng)
    meas = measurement_protocol(2, "mub")
    freqs = simulate_frequencies(gen, meas, NoiseModel(0.1, 400), rng)
    result = estimate(EstimationProblem(tuple(meas), tuple(freqs)))
    assert result.converged
    assert result.iterations == 2
    assert 0.8 < fidelity(result.state, gen) <= 1.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pauli_estimate_at_zero_accuracy_stops_after_two_passes(n):
    # a pass assigns H f to the strings of every basis, so the confirming
    # pass writes the same values and moves nothing, not even by rounding
    rng = np.random.default_rng(80 + n)
    gen = random_mixed_state((2,) * n, rng)
    meas = measurement_protocol(n, "pauli")
    freqs = simulate_frequencies(gen, meas, NoiseModel(0.1, 100 * 2**n), rng)
    result = estimate(EstimationProblem(tuple(meas), tuple(freqs), accuracy=0.0))
    assert result.converged
    assert result.iterations == 2
    assert result.residual == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_mub_estimate_at_zero_accuracy_stops_at_the_rounding_floor(n):
    # past the fixed point a dense pass still moves the iterate by rounding, about 1e-16
    rng = np.random.default_rng(84 + n)
    gen = random_mixed_state((2,) * n, rng)
    meas = measurement_protocol(n, "mub")
    freqs = simulate_frequencies(gen, meas, NoiseModel(0.1, 100 * 2**n), rng)
    result = estimate(EstimationProblem(tuple(meas), tuple(freqs), accuracy=0.0))
    assert result.converged
    assert result.iterations <= 4
    assert result.residual < 1e-14


def test_estimate_output_is_a_state():
    rng = np.random.default_rng(74)
    gen = random_mixed_state(2, rng)
    meas = measurement_protocol(1, "mub")
    freqs = simulate_frequencies(gen, meas, NoiseModel(0.2, 50), rng)
    result = estimate(EstimationProblem(tuple(meas), tuple(freqs)))
    w = np.linalg.eigvalsh(result.state.matrix)
    assert w[0] > -1e-10
    assert abs(np.trace(result.state.matrix) - 1.0) < 1e-10


def test_estimate_single_basis_imposes_it():
    # under-determined data: the result still reproduces what was imposed
    rng = np.random.default_rng(75)
    gen = random_mixed_state(2, rng)
    meas = measurement_protocol(1, "mub")[:1]
    freqs = [born_probabilities(gen, meas[0])]
    result = estimate(EstimationProblem(tuple(meas), tuple(freqs)))
    got = born_probabilities(result.state, meas[0])
    assert np.abs(got - freqs[0]).max() < 1e-9


def test_estimation_problem_validation():
    meas = measurement_protocol(1, "mub")
    freqs = [born_probabilities(random_pure_state(2, np.random.default_rng(0)), m) for m in meas]
    with pytest.raises(InvalidInput):
        EstimationProblem(tuple(meas), tuple(freqs[:2]))
    bad = [f.copy() for f in freqs]
    bad[0] = bad[0] * 1.5
    with pytest.raises(InvalidInput):
        EstimationProblem(tuple(meas), tuple(bad))
    with pytest.raises(InvalidInput):
        EstimationProblem(tuple(meas), tuple(freqs), accuracy=-1.0)
    with pytest.raises(InvalidInput):
        EstimationProblem(tuple(meas), tuple(freqs), max_iterations=0)


def test_simulate_frequencies_noiseless_limit():
    rng = np.random.default_rng(76)
    gen = random_mixed_state(2, rng)
    meas = measurement_protocol(1, "mub")
    exact = [born_probabilities(gen, m) for m in meas]
    got = simulate_frequencies(gen, meas, NoiseModel(), rng)
    for a, b in zip(got, exact):
        assert np.abs(a - b).max() < 1e-14


def test_simulate_frequencies_full_white_noise_is_uniform():
    rng = np.random.default_rng(77)
    gen = random_pure_state(2, rng)
    meas = measurement_protocol(1, "mub")
    got = simulate_frequencies(gen, meas, NoiseModel(white_noise=1.0), rng)
    for f in got:
        assert np.abs(f - 0.5).max() < 1e-14


def test_simulate_frequencies_poisson_reproducible():
    gen = random_mixed_state(2, np.random.default_rng(78))
    meas = measurement_protocol(1, "mub")
    noise = NoiseModel(0.1, 200)
    a = simulate_frequencies(gen, meas, noise, rng=123)
    b = simulate_frequencies(gen, meas, noise, rng=123)
    for fa, fb in zip(a, b):
        assert np.abs(fa - fb).max() == 0.0
        assert abs(fa.sum() - 1.0) < 1e-12


def _trine():
    kets = [np.array([np.cos(t), np.sin(t)]) for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
    return MeasurementSet([2 / 3 * np.outer(k, k) for k in kets], "povm")


_SIMULATED = {
    **{f"mub{n}": (n, lambda n=n: measurement_protocol(n, "mub")) for n in (1, 2, 3)},
    **{f"pauli{n}": (n, lambda n=n: measurement_protocol(n, "pauli")) for n in (2, 3, 4)},
    # POVM and PVM sets of 4, 3 and 2 outcomes
    "ragged": (1, lambda: [sic_povm(), _trine(), measurement_protocol(1, "mub")[0]]),
}


def _assert_matches_per_set_oracle(gen, meas, noise, seed):
    got = simulate_frequencies(gen, meas, noise, rng=seed)
    want = oracles.simulate_frequencies_per_set(gen, meas, noise, rng=seed)
    assert len(got) == len(want) == len(meas)
    for got_f, want_f in zip(got, want):
        assert got_f.dtype == want_f.dtype == np.float64
        assert np.array_equal(got_f, want_f)
    return got


@pytest.mark.parametrize("name", sorted(_SIMULATED))
@pytest.mark.parametrize("white_noise,samples", [(0.0, None), (0.1, 100), (0.3, 3)])
def test_simulate_frequencies_matches_per_set_oracle(name, white_noise, samples):
    n, protocol = _SIMULATED[name]
    meas = protocol()
    noise = NoiseModel(white_noise, None if samples is None else samples * 2**n)
    for seed in (0, 1):
        gen = random_mixed_state((2,) * n, np.random.default_rng(seed))
        _assert_matches_per_set_oracle(gen, meas, noise, 100 + seed)


def test_simulate_frequencies_keeps_expectation_targets_unclipped():
    gen = random_pure_state(2, np.random.default_rng(81))
    meas = measurement_protocol(1, "mub") + [MeasurementSet(_PAULIS, "observable_basis")]
    got = _assert_matches_per_set_oracle(gen, meas, NoiseModel(0.1), 0)
    assert np.any(got[-1] < 0)  # a pure state has some negative Pauli expectation here
    with pytest.raises(InvalidMeasurementKind, match="expectation targets"):
        simulate_frequencies(gen, meas, NoiseModel(0.1, 10), 0)


def test_simulate_frequencies_falls_back_to_uniform_without_counts():
    # one sample per basis of 16 outcomes: about 1 in e of the 81 sets draws no count
    gen = random_mixed_state((2,) * 4, np.random.default_rng(82))
    meas = measurement_protocol(4, "pauli")
    got = _assert_matches_per_set_oracle(gen, meas, NoiseModel(0.0, 1), 3)
    uniform = [f for f in got if np.all(f == 1 / 16)]
    assert 0 < len(uniform) < len(got)


def test_pauli_frame_is_built_once_per_protocol_and_read_only():
    frame = _PauliFrame.of(measurement_protocol(3, "pauli"))
    # new MeasurementSet objects with the same letters reuse it
    assert _PauliFrame.of(measurement_protocol(3, "pauli")) is frame
    # reading one basis does not displace the protocol's frame
    born_probabilities(np.eye(8) / 8, measurement_protocol(3, "pauli")[0])
    assert _PauliFrame.of(measurement_protocol(3, "pauli")) is frame
    assert _PauliFrame.of(measurement_protocol(3, "pauli")[::-1]) is not frame
    for table in (frame.strings, frame.hadamard):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0


def test_bootstrap_fidelity_reproducible_and_sane():
    gen = random_pure_state(2, np.random.default_rng(79))
    meas = measurement_protocol(1, "mub")
    noise = NoiseModel(0.05, 500)
    f1, s1 = bootstrap_fidelity(gen, meas, noise, trials=20, rng=7)
    f2, s2 = bootstrap_fidelity(gen, meas, noise, trials=20, rng=7)
    assert (f1, s1) == (f2, s2)
    assert 0.9 < f1 <= 1.0
    assert 0.0 <= s1 < 0.05


class Sentinel(Exception):
    pass


def fail_on_third_call(result):
    """A stand-in that returns result twice, then raises Sentinel."""
    calls = []

    def stand_in(*_):
        calls.append(None)
        if len(calls) == 3:
            raise Sentinel
        return result

    return stand_in


def test_fidelity_trials_allocate_per_trial_not_up_front():
    # a huge trial count must reach its trials, not fail allocating for all of them
    gen = random_mixed_state(2, np.random.default_rng(81))
    with pytest.raises(Sentinel):
        _fidelity_trials(measurement_protocol(1, "mub"), NoiseModel(0.1, 200), 10**11, 0,
                         fail_on_third_call(gen))


def test_run_benchmark_smoke():
    out = run_benchmark(1, "mub", trials=6, rng=9)
    assert out["trials"] == 6
    assert out["mean_iterations"] == 2.0
    assert 0.9 < out["mean_fidelity"] <= 1.0
    assert out["std_error"] < 0.05
    assert out["protocol_seconds"] >= 0.0 and out["trials_seconds"] >= 0.0
    # one trial has no standard error, none has no mean
    for trials in (1, 0):
        with pytest.raises(InvalidInput):
            run_benchmark(1, "mub", trials=trials, rng=9)


def test_problem_from_dict_protocol_form():
    rng = np.random.default_rng(80)
    gen = random_pure_state(2, rng)
    meas = measurement_protocol(1, "mub")
    freqs = [born_probabilities(gen, m).tolist() for m in meas]
    problem, ref = estimation_problem_from_dict(
        {"measurements": {"protocol": "mub", "qubits": 1}, "frequencies": freqs}
    )
    assert ref is None
    result = estimate(problem)
    assert fidelity(result.state, gen) > 1 - 1e-8


def test_problem_from_dict_effect_list_and_reference():
    rng = np.random.default_rng(81)
    gen = random_mixed_state(2, rng)
    meas = measurement_protocol(1, "mub")[:2]
    entry = [
        {
            "kind": "pvm",
            "effects": [
                {"dim": 2, "re": np.real(e).tolist(), "im": np.imag(e).tolist()}
                for e in m.effects
            ],
        }
        for m in meas
    ]
    freqs = [born_probabilities(gen, m).tolist() for m in meas]
    ref = {"dim": 2, "re": np.real(gen.matrix).tolist(), "im": np.imag(gen.matrix).tolist()}
    problem, reference = estimation_problem_from_dict(
        {"measurements": entry, "frequencies": freqs, "reference": ref}
    )
    assert reference is not None
    assert np.abs(reference.matrix - gen.matrix).max() < 1e-12
    assert len(problem.measurements) == 2


def test_problem_from_dict_rejects_junk():
    with pytest.raises(InvalidInput):
        estimation_problem_from_dict({"measurements": {"protocol": "nope", "qubits": 1},
                                      "frequencies": []})
