"""Dense complex linear algebra and quantum-state primitives.

Everything downstream (state estimation, Bell optimization, marginal
solvers) consumes these helpers.  Matrices are dense row-major complex
ndarrays; subsystems are integer indices 0..N-1.
"""
from __future__ import annotations

import enum
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidInput,
    InvalidMeasurementKind,
    InvalidSubsystem,
    UnsupportedDimension,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_SLACK = -1e-10


def as_rng(seed) -> np.random.Generator:
    """Coerce a 64-bit seed or an existing Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise InvalidInput(f"seed must fit in u64, got {seed}")
    return np.random.default_rng(seed)


def check_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise InvalidInput("matrix is not Hermitian within tolerance")
    return m


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize away roundoff: (m + m†)/2."""
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class QuantumState:
    """Density matrix with its tensor-factor dimensions.

    Validates hermiticity (1e-12), unit trace (1e-10) and positivity up
    to numerical slack (smallest eigenvalue >= -1e-10) on construction.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, matrix, dims: Sequence[int] | int | None = None):
        matrix = check_hermitian(matrix)
        d = matrix.shape[0]
        if dims is None:
            dims = (d,)
        elif isinstance(dims, int):
            dims = (dims,)
        else:
            dims = tuple(int(x) for x in dims)
        if math.prod(dims) != d:
            raise InvalidInput(f"dims {dims} do not multiply to matrix dim {d}")
        if abs(np.trace(matrix).real - 1.0) > TRACE_TOL or abs(np.trace(matrix).imag) > TRACE_TOL:
            raise InvalidInput("state trace differs from 1 beyond 1e-10")
        if np.linalg.eigvalsh(matrix)[0] < PSD_SLACK:
            raise InvalidInput("state has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


class MeasurementKind(enum.Enum):
    PVM = "pvm"
    POVM = "povm"
    OBSERVABLE_BASIS = "observable_basis"

    @classmethod
    def coerce(cls, kind) -> "MeasurementKind":
        if isinstance(kind, cls):
            return kind
        try:
            return cls(str(kind).lower())
        except ValueError:
            raise InvalidMeasurementKind(f"unknown measurement kind {kind!r}") from None


UNITARY_TOL = 1e-8


def _unitarity_defect(v: np.ndarray) -> float:
    """max |(V†V - I)_ij|, zero exactly when the columns of v are orthonormal."""
    return float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))))


def _check_complete(effects: np.ndarray, eigenvalues: np.ndarray) -> None:
    if np.min(eigenvalues) < PSD_SLACK:
        raise InvalidInput("effect has an eigenvalue below -1e-10")
    if np.max(np.abs(effects.sum(axis=0) - np.eye(effects.shape[1]))) > 1e-8:
        raise InvalidInput("effects do not sum to identity within 1e-8")


def _projector_basis(projectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis unitary and column outcomes of a (K, D, D) stack of orthogonal projectors.

    Each projector is diagonalized once; its unit-eigenvalue eigenvectors
    become the basis columns of its outcome.
    """
    w, vecs = np.linalg.eigh(projectors)
    _check_complete(projectors, w)
    keep = w > 0.5
    if np.max(np.abs(w - keep)) > UNITARY_TOL:
        raise InvalidInput("PVM effects are not orthogonal projectors")
    if not np.all(keep.any(axis=1)):
        raise InvalidInput("PVM effect is the zero projector")
    basis = vecs.transpose(1, 0, 2)[:, keep]  # columns ordered by projector, then eigenvector
    if basis.shape[1] != basis.shape[0] or _unitarity_defect(basis) > UNITARY_TOL:
        raise InvalidInput("PVM effects are not orthogonal projectors")
    return basis, np.nonzero(keep)[0]


@dataclass(frozen=True, eq=False)  # arrays have no truth value: compare by identity
class MeasurementSet:
    """A family of effects with a declared kind.

    PVM: orthogonal projectors summing to identity, stored as a basis
    unitary V (`basis`) plus the outcome index of each of its columns
    (`outcomes`).  The projector of outcome k is the sum of v_j v_j† over
    the columns j with outcomes[j] == k, so a rank-r projector is r
    columns sharing one index.  `from_basis` takes V directly; the
    constructor takes the projectors and diagonalizes them once.
    A Pauli product basis from `pauli_product_bases` records its
    `letters` instead, one per qubit (0, 1, 2 for the x, y, z
    eigenbasis), and builds V on the first read of `basis` or `effects`.
    POVM: PSD effects summing to identity.
    OBSERVABLE_BASIS: Hermitian operators, pairwise orthogonal in the
    Hilbert-Schmidt inner product (targets are expectation values, so
    effects here need not be positive or complete).
    POVM and observable sets keep their dense stack of effects.
    """

    kind: MeasurementKind
    outcomes: np.ndarray | None
    letters: tuple[int, ...] | None
    _count: int = field(repr=False)
    _basis: np.ndarray | None = field(repr=False)
    _stack: np.ndarray | None = field(repr=False)

    def __init__(self, effects, kind=MeasurementKind.PVM):
        kind = MeasurementKind.coerce(kind)
        arr = np.stack([check_hermitian(e) for e in effects])
        if kind is MeasurementKind.PVM:
            basis, outcomes = _projector_basis(arr)
            self._store(kind, len(arr), basis=basis, outcomes=outcomes)
            return
        if kind is MeasurementKind.POVM:
            _check_complete(arr, np.linalg.eigvalsh(arr))
        if kind is MeasurementKind.OBSERVABLE_BASIS:
            gram = np.einsum("aij,bji->ab", arr, arr)  # Tr(E_a E_b)
            if np.any(np.abs(gram - np.diag(np.diag(gram))) > 1e-8):
                raise InvalidInput("observables are not HS-orthogonal")
        self._store(kind, len(arr), stack=arr)

    @classmethod
    def from_basis(cls, basis, outcomes=None) -> "MeasurementSet":
        """PVM in which column j of the unitary `basis` belongs to outcome outcomes[j].

        outcomes defaults to one outcome per column (rank-one projectors);
        every index from 0 up to its largest must occur.  The basis must
        be unitary within 1e-8, measured as max |(V†V - I)_ij|.
        """
        v = np.array(basis, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvalidInput(f"expected a square basis matrix, got shape {v.shape}")
        if _unitarity_defect(v) > UNITARY_TOL:
            raise InvalidInput("PVM basis is not unitary within 1e-8")
        g = np.arange(v.shape[1]) if outcomes is None else np.asarray(outcomes)
        if g.shape != (v.shape[1],) or g.dtype.kind not in "iu" or g.min() < 0:
            raise InvalidInput("outcomes must give one nonnegative integer per basis column")
        g = g.astype(np.intp)  # a copy: the caller's array stays writeable
        count = int(g.max()) + 1
        if np.any(np.bincount(g, minlength=count) == 0):
            raise InvalidInput("every outcome up to the largest index needs a basis column")
        out = cls.__new__(cls)
        out._store(MeasurementKind.PVM, count, basis=v, outcomes=g)
        return out

    def _store(self, kind, count, basis=None, outcomes=None, stack=None, letters=None):
        for arr in (basis, outcomes, stack):
            if arr is not None:
                arr.flags.writeable = False
        for name, value in (("kind", kind), ("outcomes", outcomes), ("letters", letters),
                            ("_count", count), ("_basis", basis), ("_stack", stack)):
            object.__setattr__(self, name, value)

    @property
    def basis(self) -> np.ndarray | None:
        """The read-only basis unitary of a PVM, None for other kinds."""
        if self._basis is None and self.letters is not None:
            v = kron(*(_PAULI_EIGENVECTORS[c] for c in self.letters))
            v.flags.writeable = False
            object.__setattr__(self, "_basis", v)
        return self._basis

    @property
    def effects(self) -> np.ndarray:
        """The effects as a read-only (K, D, D) stack; derived from the basis for a PVM."""
        if self._stack is not None:
            return self._stack
        v = self.basis
        onehot = np.arange(len(self))[:, None] == self.outcomes
        out = (v * onehot[:, None, :]) @ v.conj().T
        out.flags.writeable = False
        return out

    def __len__(self) -> int:
        return self._count

    @property
    def dim(self) -> int:
        if self.letters is not None:
            return 2 ** len(self.letters)
        return (self.basis if self._stack is None else self._stack).shape[-1]


def kron(*ops: np.ndarray) -> np.ndarray:
    """Tensor product of two or more operators (left to right)."""
    if not ops:
        raise InvalidInput("kron needs at least one operator")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _resolve_dims(mat: np.ndarray, dims: Sequence[int] | None) -> tuple[int, ...]:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {mat.shape}")
    if dims is None:
        return (mat.shape[0],)
    dims = tuple(int(x) for x in dims)
    if math.prod(dims) != mat.shape[0]:
        raise InvalidInput(f"dims {dims} do not multiply to matrix dim {mat.shape[0]}")
    return dims


def _complement_diagonal(mat: np.ndarray, keep: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Writeable view of the entries of `mat` that are diagonal on the complement of `keep`.

    Axes: the row digits of the sorted subsystems `keep`, their column
    digits, then one axis per complement subsystem whose stride ties its
    row digit to its column digit; the digit of subsystem i has place
    value prod(dims[i+1:]).  Summing the complement axes is the partial
    trace onto `keep`; writing to the view writes to `mat`.  Works for
    any 2-D strides.
    """
    comp = [i for i in range(len(dims)) if i not in keep]
    row, col = mat.strides
    place = [math.prod(dims[i + 1:]) for i in range(len(dims))]
    strides = ([row * place[i] for i in keep] + [col * place[i] for i in keep]
               + [(row + col) * place[i] for i in comp])
    shape = [dims[i] for i in keep] * 2 + [dims[i] for i in comp]
    return np.lib.stride_tricks.as_strided(mat, shape, strides)


def partial_trace(state, keep: Iterable[int], dims: Sequence[int] | None = None):
    """Trace out every subsystem not in `keep`.

    Accepts a QuantumState (returns a QuantumState) or a plain matrix
    plus `dims` (returns a matrix).  `keep` preserves the original
    subsystem order regardless of the order given.
    """
    is_state = isinstance(state, QuantumState)
    mat = state.matrix if is_state else np.asarray(state, dtype=complex)
    sys_dims = state.dims if is_state else _resolve_dims(mat, dims)
    n = len(sys_dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise InvalidSubsystem("keep set is empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise InvalidSubsystem(f"subsystem index out of range for {n} subsystems")

    view = _complement_diagonal(mat, keep, sys_dims)
    dk = math.prod(sys_dims[i] for i in keep)
    reduced = view.sum(axis=tuple(range(2 * len(keep), view.ndim))).reshape(dk, dk)
    if is_state:
        return QuantumState(hermitize(reduced), tuple(sys_dims[i] for i in keep))
    return reduced


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching unitary eigenvector columns."""
    m = check_hermitian(m)
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt distance sqrt(Tr[(a-b)(a-b)†]), i.e. the Frobenius norm."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise InvalidInput(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """PSD square root via spectral decomposition, clipping tiny negatives."""
    w, v = np.linalg.eigh(np.asarray(m, dtype=complex))
    if w[0] < PSD_SLACK:
        raise InvalidInput("matrix is not PSD beyond slack")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _as_matrix(x) -> np.ndarray:
    return x.matrix if isinstance(x, QuantumState) else np.asarray(x, dtype=complex)


def fidelity(a, b) -> float:
    """Uhlmann fidelity Tr[sqrt(sqrt(a) b sqrt(a))]^2, clipped into [0, 1]."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise InvalidInput(f"shape mismatch {ma.shape} vs {mb.shape}")
    sa = sqrtm_psd(ma)
    w = np.linalg.eigvalsh(sa @ mb @ sa)
    if w[0] < PSD_SLACK:
        raise InvalidInput("matrix is not PSD beyond slack")
    # rank-deficient input leaves spurious eigenvalues ~eps whose square
    # roots would each pollute the sum by ~1e-8; cut at the same relative
    # threshold numpy uses for matrix rank
    cut = w[-1] * w.size * np.finfo(float).eps
    w = np.clip(w, 0.0, None)
    w[w < cut] = 0.0
    f = float(np.sum(np.sqrt(w)) ** 2)
    return min(max(f, 0.0), 1.0)


def random_pure_state(dims, rng) -> QuantumState:
    """Haar-random pure state: normalized complex Gaussian vector."""
    dims = (dims,) if isinstance(dims, int) else tuple(int(x) for x in dims)
    d = math.prod(dims)
    rng = as_rng(rng)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return QuantumState(np.outer(v, v.conj()), dims)


def _ginibre_state(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """G G†/Tr(G G†) for a d x k Ginibre G: a density matrix by construction, so unchecked."""
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return hermitize(rho)


def random_mixed_state(dims, rng, rank: int | None = None) -> QuantumState:
    """Hilbert-Schmidt random mixed state: G G†/Tr(G G†) with Ginibre G."""
    dims = (dims,) if isinstance(dims, int) else tuple(int(x) for x in dims)
    d = math.prod(dims)
    k = d if rank is None else int(rank)
    if k < 1:
        raise InvalidInput("rank must be positive")
    return QuantumState(_ginibre_state(d, k, as_rng(rng)), dims)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(n**0.5) + 1):
        if n % p == 0:
            return False
    return True


def _unitary_eigenbasis(u: np.ndarray) -> np.ndarray:
    """Deterministic eigenbasis of a unitary with nondegenerate spectrum.

    Diagonalizes the Hermitian combination (u+u†)/2 + g (u-u†)/(2i); a
    generic fixed g separates eigenvalues that collide in either part.
    """
    g = 0.37
    h = 0.5 * (u + u.conj().T) + g * (u - u.conj().T) / 2j
    _, v = np.linalg.eigh(h)
    return v


def mub_bases(d: int) -> list[MeasurementSet]:
    """d+1 mutually unbiased bases in prime dimension d.

    Computational basis plus the eigenbases of X, XZ, ..., XZ^(d-1)
    where Z|k> = w^k |k> and X|k> = |k+1 mod d>.  For d=2 this is the
    usual triple of Pauli eigenbases (z, x, y order).
    """
    d = int(d)
    if not _is_prime(d):
        raise UnsupportedDimension(f"prime dimension required, got {d}")
    omega = np.exp(2j * np.pi / d)
    z = np.diag(omega ** np.arange(d))
    x = np.roll(np.eye(d), 1, axis=0).astype(complex)

    columns = [np.eye(d, dtype=complex)]
    for k in range(d):
        columns.append(_unitary_eigenbasis(x @ np.linalg.matrix_power(z, k)))

    _assert_unbiased(columns, d)
    return [MeasurementSet.from_basis(v) for v in columns]


def _assert_unbiased(columns: list[np.ndarray], d: int) -> None:
    for i in range(len(columns)):
        for j in range(i):
            ov = np.abs(columns[i].conj().T @ columns[j]) ** 2
            if np.max(np.abs(ov - 1.0 / d)) > 1e-9:
                raise InvalidInput("constructed bases are not mutually unbiased")


# GF(2^n) modulus polynomials as bitmasks (x^2+x+1, x^3+x+1, x^4+x+1)
_GF_POLY = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011}
_MUB_SEED = 12345  # for the random combinations that split each class into a basis


def _gf_mul(a: int, b: int, n: int) -> int:
    poly, out = _GF_POLY[n], 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= poly
    return out


def _gf_trace(a: int, n: int) -> int:
    t, x = 0, a
    for _ in range(n):
        t ^= x
        x = _gf_mul(x, x, n)
    return t & 1


def _pauli_string(a: tuple[int, ...], b: tuple[int, ...]) -> np.ndarray:
    """Hermitian n-qubit Weyl operator for X-part a and Z-part b."""
    factors = []
    for ai, bi in zip(a, b):
        f = _PAULIS[0]
        if ai:
            f = f @ _PAULIS[1]
        if bi:
            f = f @ _PAULIS[3]
        factors.append(f)
    w = kron(*factors)
    if sum(ai & bi for ai, bi in zip(a, b)) % 2:
        w = 1j * w  # odd number of XZ factors: multiply by i to restore hermiticity
    return w


def _bits(x: int, n: int) -> tuple[int, ...]:
    return tuple((x >> i) & 1 for i in range(n))


def qubit_mub_bases(n: int) -> list[MeasurementSet]:
    """2^n + 1 mutually unbiased bases on an n-qubit register.

    Partitions the nonidentity Pauli strings into 2^n + 1 commuting
    classes using multiplication in GF(2^n) (the class of slope t
    collects labels (x, G M_t x), G the Gram matrix of the field trace
    form), then takes the joint eigenbasis of each class.  Unbiasedness
    is asserted before returning.
    """
    n = int(n)
    if n not in _GF_POLY:
        raise UnsupportedDimension(f"qubit register size {n} not supported")
    d = 2**n
    rng = np.random.default_rng(_MUB_SEED)

    gram = [[_gf_trace(_gf_mul(1 << i, 1 << j, n), n) for j in range(n)] for i in range(n)]

    def slope_label(t: int, x: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        tx = _gf_mul(t, x, n)
        zpart = tuple(
            sum(gram[i][j] * ((tx >> j) & 1) for j in range(n)) % 2 for i in range(n)
        )
        return _bits(x, n), zpart

    classes = []
    for t in range(d):
        classes.append([slope_label(t, x) for x in range(1, d)])
    classes.append([(_bits(0, n), _bits(y, n)) for y in range(1, d)])

    columns = []
    for cls in classes:
        ops = [_pauli_string(a, b) for a, b in cls]
        for _ in range(20):
            coeff = rng.uniform(0.5, 1.5, size=len(ops)) * rng.choice([-1.0, 1.0], size=len(ops))
            h = sum(c * op for c, op in zip(coeff, ops))
            w, v = np.linalg.eigh(h)
            if np.min(np.diff(w)) > 1e-8:
                columns.append(v)
                break
        else:
            raise InvalidInput("failed to split a commuting class into a basis")
    _assert_unbiased(columns, d)
    return [MeasurementSet.from_basis(v) for v in columns]


# the Pauli matrices I, X, Y, Z, in that order along the first axis
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULIS.flags.writeable = False
_S2 = 1.0 / np.sqrt(2.0)
# columns: the +1 then the -1 eigenvector of X, Y and Z, indexed by Pauli letter
_PAULI_EIGENVECTORS = (
    np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    np.array([[_S2, _S2], [1j * _S2, -1j * _S2]], dtype=complex),
    np.eye(2, dtype=complex),
)


def pauli_product_bases(n: int) -> list[MeasurementSet]:
    """All 3^n product bases of single-qubit Pauli eigenvectors (x, y, z).

    Basis c in `np.ndindex(3, ..., 3)` order records its letters c and has
    the unitary kron(u[c_0], ..., u[c_n-1]), u[c] the eigenvectors of
    Pauli letter c; it is built, exactly and unchecked, on first read.
    """
    n = int(n)
    if n < 1:
        raise InvalidInput("need at least one qubit")
    d = 2**n
    outcomes = np.arange(d)
    out = []
    for letters in np.ndindex(*(3,) * n):
        meas = MeasurementSet.__new__(MeasurementSet)
        meas._store(MeasurementKind.PVM, d, outcomes=outcomes, letters=letters)
        out.append(meas)
    return out


def matrix_to_dict(m: np.ndarray) -> dict:
    """JSON-friendly encoding {"dim", "re", "im"} of a square complex matrix.

    The reference encoding: cli._write_json writes a matrix held as an
    ndarray as exactly the text json.dumps gives for this dict.
    """
    m = np.asarray(m, dtype=complex)
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_dict(obj: dict) -> np.ndarray:
    try:
        dim = config_number(obj["dim"], int, "'dim'")
        re = config_array(obj["re"], "'re'")
        im = config_array(obj["im"], "'im'")
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed matrix object: {exc}") from None
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InvalidInput("matrix entries do not match declared dim")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise InvalidInput("matrix entries must be finite")
    return re + 1j * im


def config_number(raw, kind, what: str):
    """A config value as kind (int or float): a finite JSON number, integral for int.

    Booleans and strings are refused, and so is 2.5 for an int, which
    int() would truncate, and an int beyond 64 bits, which numpy cannot
    hold as a size or count; the InvalidInput message names `what`.
    """
    try:
        if isinstance(raw, numbers.Real) and not isinstance(raw, bool):
            value = kind(raw)
            if math.isfinite(value) and (kind is float or (value == raw and abs(value) < 2**63)):
                return value
    except (ValueError, OverflowError):
        pass
    need = "an integer below 2**63 in magnitude" if kind is int else "a finite number"
    raise InvalidInput(f"{what} must be {need}, got {json.dumps(raw, default=repr)}")


def config_array(raw, what: str) -> np.ndarray:
    """Nested lists of JSON numbers as a float array; shape and finiteness are the caller's.

    Booleans, strings and ragged rows are refused entry by entry, where
    np.asarray(raw, dtype=float) would read true as 1.0 and "2" as 2.0.
    """
    pending = [raw]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, bool) or not isinstance(item, numbers.Real):
            raise InvalidInput(f"{what} entries must be numbers, got {json.dumps(item, default=repr)}")
    try:
        return np.asarray(raw, dtype=float)
    except (ValueError, OverflowError):
        raise InvalidInput(f"{what} is not a rectangular array of numbers") from None


def load_ref(raw, base_dir, parse):
    """Parse a config entry given inline or as a path to a JSON file holding it.

    A relative path is taken from base_dir, the directory of the config
    that names it; base_dir None leaves the path as given.
    """
    if isinstance(raw, str):
        path = raw if base_dir is None else os.path.join(base_dir, raw)
        with open(path) as fh:
            raw = json.load(fh)
    return parse(raw)
