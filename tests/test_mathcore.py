"""Shared linear-algebra layer: traces, generators, measurement families."""
import numpy as np
import pytest

from qoptools.errors import InvalidInput, UnsupportedDimension
from qoptools.mathcore import (
    MeasurementKind,
    MeasurementSet,
    QuantumState,
    as_rng,
    check_hermitian,
    config_array,
    eigh,
    fidelity,
    hs_distance,
    kron,
    matrix_from_dict,
    matrix_to_dict,
    mub_bases,
    partial_trace,
    pauli_product_bases,
    qubit_mub_bases,
    random_mixed_state,
    random_pure_state,
)

import oracles


def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(40)
    for _ in range(12):
        dims = tuple(int(x) for x in rng.choice([2, 3], size=3))
        rho = random_mixed_state(dims, rng).matrix
        n_keep = int(rng.integers(1, 3))
        keep = sorted(int(x) for x in rng.choice(3, size=n_keep, replace=False))
        got = partial_trace(rho, keep, dims)
        want = oracles.partial_trace_loops(rho, keep, dims)
        assert np.abs(got - want).max() < 1e-13


def test_partial_trace_keeps_trace_and_order():
    rng = np.random.default_rng(41)
    rho = random_mixed_state((2, 3, 2), rng)
    red = partial_trace(rho, [2, 0])  # order in `keep` must not matter
    assert isinstance(red, QuantumState)
    assert red.dims == (2, 2)
    assert abs(np.trace(red.matrix) - 1.0) < 1e-12
    same = partial_trace(rho, [0, 2])
    assert np.abs(red.matrix - same.matrix).max() < 1e-14


def test_partial_trace_keep_all_is_identity():
    rng = np.random.default_rng(42)
    rho = random_mixed_state((2, 2), rng)
    assert np.abs(partial_trace(rho, [0, 1]).matrix - rho.matrix).max() < 1e-14


def test_partial_trace_of_product_state_factors():
    rng = np.random.default_rng(43)
    a = random_mixed_state(2, rng).matrix
    b = random_mixed_state(3, rng).matrix
    rho = kron(a, b)
    assert np.abs(partial_trace(rho, [0], (2, 3)) - a).max() < 1e-13
    assert np.abs(partial_trace(rho, [1], (2, 3)) - b).max() < 1e-13


def test_partial_trace_rejects_non_square_input():
    # the strided kernel trusts the shape, so a bad one must stop before it
    for bad in (np.zeros((2, 4)), np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(InvalidInput):
            partial_trace(bad, [0], (2,))


def test_eigh_descending_and_reconstructs():
    rng = np.random.default_rng(44)
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = (h + h.conj().T) / 2
    w, v = eigh(h)
    assert np.all(np.diff(w) <= 1e-14)
    assert np.abs((v * w) @ v.conj().T - h).max() < 1e-12


def test_fidelity_pure_states_is_overlap():
    rng = np.random.default_rng(45)
    for _ in range(8):
        a = random_pure_state(3, rng)
        b = random_pure_state(3, rng)
        overlap = float(np.trace(a.matrix @ b.matrix).real)
        assert abs(fidelity(a, b) - overlap) < 1e-10
    assert abs(fidelity(a, a) - 1.0) < 1e-12


def test_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(46)
    a = random_mixed_state(4, rng)
    b = random_mixed_state(4, rng)
    fab, fba = fidelity(a, b), fidelity(b, a)
    assert abs(fab - fba) < 1e-10
    assert 0.0 <= fab <= 1.0 + 1e-12


def test_hs_distance_is_frobenius():
    rng = np.random.default_rng(47)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert abs(hs_distance(a, b) - np.linalg.norm(a - b)) < 1e-12


def test_quantum_state_validation():
    with pytest.raises(InvalidInput):
        QuantumState(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(InvalidInput):
        QuantumState(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(InvalidInput):
        QuantumState(np.eye(4) / 4, dims=(2, 3))


def test_check_hermitian_rejects_skew():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(InvalidInput):
        check_hermitian(m)


def test_random_pure_state_is_pure():
    rng = np.random.default_rng(48)
    for _ in range(6):
        psi = random_pure_state((2, 2), rng)
        assert abs(psi.purity() - 1.0) < 1e-12
        assert abs(np.trace(psi.matrix) - 1.0) < 1e-12


def test_random_pure_states_are_haar_spread():
    # Haar average of the Bloch vector vanishes; 3000 qubit draws keep
    # the empirical mean well under 0.05
    rng = np.random.default_rng(49)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    acc = np.zeros(3)
    n = 3000
    for _ in range(n):
        rho = random_pure_state(2, rng).matrix
        acc += [np.trace(rho @ s).real for s in (sx, sy, sz)]
    assert np.linalg.norm(acc / n) < 0.05


def test_random_mixed_state_hs_purity_band():
    # full-rank Hilbert-Schmidt qubits average purity 2d/(d^2+1) = 0.8
    rng = np.random.default_rng(50)
    pur = [random_mixed_state(2, rng).purity() for _ in range(600)]
    assert 0.77 < float(np.mean(pur)) < 0.83


def test_random_mixed_state_rank_control():
    rng = np.random.default_rng(51)
    rho = random_mixed_state(4, rng, rank=2)
    w = np.linalg.eigvalsh(rho.matrix)
    assert np.sum(w > 1e-12) == 2
    with pytest.raises(InvalidInput):
        random_mixed_state(4, rng, rank=0)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_mub_bases_prime_dimensions(d):
    bases = mub_bases(d)
    assert len(bases) == d + 1
    for meas in bases:
        assert meas.kind is MeasurementKind.PVM
        vecs = np.stack([e[:, 0] / np.linalg.norm(e[:, 0]) for e in _basis_vectors(meas)])
        assert np.abs(vecs @ vecs.conj().T - np.eye(d)).max() < 1e-10
    for i in range(d + 1):
        vi = np.stack([v for v in _basis_vectors_flat(bases[i])])
        for j in range(i + 1, d + 1):
            vj = np.stack([v for v in _basis_vectors_flat(bases[j])])
            ov = np.abs(vi.conj() @ vj.T) ** 2
            assert np.abs(ov - 1.0 / d).max() < 1e-10


def _basis_vectors(meas):
    # rank-1 projectors to column vectors (as matrices for the norm trick)
    out = []
    for e in meas.effects:
        w, v = np.linalg.eigh(e)
        out.append(v[:, -1:] * 1.0)
    return out


def _basis_vectors_flat(meas):
    return [m[:, 0] for m in _basis_vectors(meas)]


def test_mub_bases_rejects_composite_dimension():
    with pytest.raises(UnsupportedDimension):
        mub_bases(4)
    with pytest.raises(UnsupportedDimension):
        mub_bases(6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qubit_mub_bases_unbiased(n):
    d = 2**n
    bases = qubit_mub_bases(n)
    assert len(bases) == d + 1
    mats = []
    for meas in bases:
        vecs = np.stack(_basis_vectors_flat(meas))
        assert np.abs(vecs @ vecs.conj().T - np.eye(d)).max() < 1e-10
        mats.append(vecs)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            ov = np.abs(mats[i].conj() @ mats[j].T) ** 2
            assert np.abs(ov - 1.0 / d).max() < 1e-9


def test_qubit_mub_bases_deterministic_default():
    a = qubit_mub_bases(2)
    b = qubit_mub_bases(2)
    # sets compare by identity, without asking an array for its truth value
    assert a[0] == a[0] and a[0] != b[0] and len({a[0], b[0]}) == 2
    for ma, mb in zip(a, b):
        for ea, eb in zip(ma.effects, mb.effects):
            assert np.abs(ea - eb).max() == 0.0


def test_pauli_product_bases_counts_and_orthonormality():
    for n in (1, 2):
        bases = pauli_product_bases(n)
        assert len(bases) == 3**n
        for meas in bases:
            total = sum(meas.effects)
            assert np.abs(total - np.eye(2**n)).max() < 1e-12
            for e in meas.effects:
                assert np.abs(e @ e - e).max() < 1e-12  # projector


def test_observable_basis_must_be_hs_orthogonal():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    MeasurementSet((x, z, np.eye(2)), "observable_basis")
    MeasurementSet((x, z + 1e-9 * x), "observable_basis")  # Tr = 2e-9, inside the 1e-8 bound
    with pytest.raises(InvalidInput, match="HS-orthogonal"):
        MeasurementSet((x, z, x + z), "observable_basis")


def test_measurement_set_completeness_check():
    good = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    MeasurementSet(tuple(good))
    plus = np.full((2, 2), 0.5)
    bad = [
        lambda: MeasurementSet((np.diag([1.0, 0.0]), np.diag([0.0, 0.5]))),
        lambda: MeasurementSet.from_basis([[1.0, 1.0], [0.0, 1.0]]),  # not unitary
        lambda: MeasurementSet((np.eye(2) / 2, np.eye(2) / 2)),  # sums to I, not projectors
        lambda: MeasurementSet((np.diag([1.0, 0.0]), plus)),  # overlapping projectors
        lambda: MeasurementSet((np.eye(2), np.zeros((2, 2)))),  # zero projector
        lambda: MeasurementSet.from_basis(np.eye(2), outcomes=[0, 2]),  # outcome 1 empty
    ]
    for build in bad:
        with pytest.raises(InvalidInput):
            build()


def test_matrix_dict_round_trip():
    rng = np.random.default_rng(52)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = matrix_from_dict(matrix_to_dict(m))
    assert np.abs(back - m).max() == 0.0
    with pytest.raises(InvalidInput):
        matrix_from_dict({"dim": 2, "re": [[1, 0]], "im": [[0, 0]]})
    for bad in ({"dim": 1, "re": [[np.nan]], "im": [[0]]},
                {"dim": 1, "re": [[1]], "im": [[np.inf]]},
                {"dim": np.inf, "re": [[1]], "im": [[0]]}):
        with pytest.raises(InvalidInput):
            matrix_from_dict(bad)


def test_config_array_reads_json_numbers_only():
    assert config_array([[1, 2.5], [0, -3]], "x").tolist() == [[1.0, 2.5], [0.0, -3.0]]
    assert config_array([], "x").shape == (0,)
    # np.asarray(..., dtype=float) would read each of these as a number array
    for bad in ([1, True], [[0.5, False]], ["2", 1], [[1, 2], [3]], [None, 1], 10**400):
        with pytest.raises(InvalidInput):
            config_array(bad, "x")


def test_as_rng_accepts_seed_and_generator():
    g = as_rng(7)
    assert isinstance(g, np.random.Generator)
    same = as_rng(7)
    assert g.integers(1 << 30) == same.integers(1 << 30)
    passthrough = np.random.default_rng(1)
    assert as_rng(passthrough) is passthrough
