"""Dense complex linear algebra for states, channels, and gate fidelity.

Everything is desk scale: dense complex128 matrices, dimension capped at
MAX_DIM by default. All wrapper objects are immutable after construction
and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError, NumericalError, ParameterError

# Absolute entrywise tolerance for matrix equality checks.
ATOL = 1e-10
# Slack allowed on eigenvalue positivity, absorbs roundoff from channel composition.
EIG_SLACK = 1e-8
# Trace-preservation tolerance for Kraus sets.
TRACE_TOL = 1e-9
# Default cap on Hilbert-space dimension for dense storage.
MAX_DIM = 64


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array (read-only)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {a.ndim}")
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def matrices_close(a, b, tol: float = ATOL) -> bool:
    """Entrywise max-norm equality within an absolute tolerance."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= tol)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def basis_state(d: int, j: int = 0) -> np.ndarray:
    """The j-th standard basis vector of C^d. |0> is the first one."""
    if not 0 <= j < d:
        raise DimensionError(f"basis index {j} out of range for dimension {d}")
    v = np.zeros(d, dtype=np.complex128)
    v[j] = 1.0
    return v


@dataclass(frozen=True)
class UnitaryOperator:
    """A d x d unitary, checked at construction (U U^dag = I within ATOL)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionError(f"unitary must be square, got shape {m.shape}")
        if not matrices_close(m @ dagger(m), np.eye(m.shape[0]), ATOL):
            raise NumericalError("matrix is not unitary within tolerance")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix: Hermitian, unit trace, eigenvalues >= -EIG_SLACK."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionError(f"density matrix must be square, got shape {m.shape}")
        if m.shape[0] > MAX_DIM:
            raise CapacityError(f"dimension {m.shape[0]} exceeds the dense cap {MAX_DIM}")
        if not matrices_close(m, dagger(m), ATOL):
            raise NumericalError("density matrix is not Hermitian within tolerance")
        tr = np.trace(m)
        if abs(tr - 1.0) > ATOL:
            raise NumericalError(f"density matrix trace {tr} deviates from 1")
        w = np.linalg.eigvalsh(m)
        if w.min() < -EIG_SLACK:
            raise NumericalError(f"density matrix has eigenvalue {w.min()} < -{EIG_SLACK}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pure_state(vector) -> DensityMatrix:
    """|psi><psi| for a unit vector psi."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-9:
        v = v / nrm
    return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by d x d Kraus operators A_k with sum A_k^dag A_k = I."""

    kraus_ops: tuple = field()

    def __post_init__(self):
        ops = tuple(as_complex_matrix(a) for a in self.kraus_ops)
        if not ops:
            raise ParameterError("a channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for a in ops:
            if a.shape != (d, d):
                raise DimensionError("all Kraus operators must be d x d of equal d")
        if d > MAX_DIM:
            raise CapacityError(f"dimension {d} exceeds the dense cap {MAX_DIM}")
        if len(ops) > d * d:
            raise ParameterError(
                f"{len(ops)} Kraus operators exceed d^2 = {d * d}; reduce first"
            )
        total = sum(dagger(a) @ a for a in ops)
        if not matrices_close(total, np.eye(d), TRACE_TOL):
            raise NumericalError("Kraus operators do not satisfy trace preservation")
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel((np.eye(d, dtype=np.complex128),))


def unitary_channel(u) -> KrausChannel:
    m = u.matrix if isinstance(u, UnitaryOperator) else as_complex_matrix(u)
    return KrausChannel((m,))


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel: sum_k A_k rho A_k^dag."""
    if ch.dim != rho.dim:
        raise DimensionError(f"channel dim {ch.dim} != state dim {rho.dim}")
    out = np.zeros((ch.dim, ch.dim), dtype=np.complex128)
    r = rho.matrix
    for a in ch.kraus_ops:
        out += a @ r @ dagger(a)
    return DensityMatrix(out)


def gate_fidelity_vector(ch: KrausChannel, psi: np.ndarray) -> float:
    """<psi| Lambda(|psi><psi|) |psi> = sum_k |<psi|A_k|psi>|^2 for unit psi."""
    if ch.dim != len(psi):
        raise DimensionError(f"channel dim {ch.dim} != state dim {len(psi)}")
    p = 0.0
    for a in ch.kraus_ops:
        amp = np.vdot(psi, a @ psi)
        p += (amp * amp.conjugate()).real
    if not -TRACE_TOL <= p <= 1.0 + TRACE_TOL:
        raise NumericalError(f"gate fidelity {p} outside [0,1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def gate_fidelity(ch: KrausChannel, v: UnitaryOperator) -> float:
    """Success probability of the prepare/evolve/unprepare/measure experiment.

    Equals <0| V^dag Lambda(V|0><0|V^dag) V |0>, computed against the first
    column of V without forming the full conjugation.
    """
    if ch.dim != v.dim:
        raise DimensionError(f"channel dim {ch.dim} != unitary dim {v.dim}")
    return gate_fidelity_vector(ch, v.matrix[:, 0])


def exact_average_fidelity(ch: KrausChannel) -> float:
    """Closed-form Haar average of the gate fidelity: (sum_k |Tr A_k|^2 + d) / (d^2 + d)."""
    d = ch.dim
    s = sum(abs(np.trace(a)) ** 2 for a in ch.kraus_ops)
    return float((s + d) / (d * d + d))


def haar_random_unitary(d: int, rng: np.random.Generator) -> UnitaryOperator:
    """Haar-distributed unitary via a complex Ginibre matrix and phase-fixed QR."""
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    return UnitaryOperator(phase_fixed_qr(z))


def haar_unitaries_batch(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of `count` Haar unitaries, shape (count, d, d). Vectorized QR."""
    z = (rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))) / np.sqrt(2)
    return phase_fixed_qr(z)


def phase_fixed_qr(z: np.ndarray) -> np.ndarray:
    """Q factor of a (stack of) complex Ginibre matrices, shape (..., d, d).

    Forcing the triangular factor's diagonal to be positive real makes the QR
    factorization unique and the resulting distribution exactly Haar.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = diag / np.abs(diag)
    return q * phases.conj()[..., None, :]


def schatten_norm(m, p) -> float:
    """Schatten p-norm for p in {1, 2, inf}: l_p norm of the singular values."""
    a = np.asarray(m, dtype=np.complex128)
    sv = np.linalg.svd(a, compute_uv=False)
    if p == 1:
        return float(sv.sum())
    if p == 2:
        return float(np.sqrt((sv * sv).sum()))
    if p in (np.inf, float("inf"), "inf"):
        return float(sv.max()) if sv.size else 0.0
    raise ParameterError(f"p must be 1, 2 or inf, got {p!r}")


def _clamped_eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian PSD matrix with roundoff-scale values zeroed.

    Values below 1e-13 of the largest eigenvalue are indistinguishable from
    rank-deficiency noise; zeroing them keeps the subsequent square root from
    amplifying 1e-16 noise into 1e-8 errors.
    """
    w = np.linalg.eigvalsh(m)
    top = max(float(w.max()), 0.0)
    w[w < top * 1e-13] = 0.0
    return w


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix, eigenvalues clamped at 0."""
    w, u = np.linalg.eigh(m)
    top = max(float(w.max()), 0.0)
    w[w < top * 1e-13] = 0.0
    return (u * np.sqrt(w)) @ dagger(u)


def state_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clamped to [0,1]."""
    if rho.dim != sigma.dim:
        raise DimensionError(f"state dims differ: {rho.dim} vs {sigma.dim}")
    sr = _psd_sqrt(rho.matrix)
    inner = sr @ sigma.matrix @ sr
    w = _clamped_eigvals(inner)
    f = float(np.sqrt(w).sum() ** 2)
    return min(max(f, 0.0), 1.0)


def random_density_matrix(d: int, rng: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt random mixed state G G^dag / Tr(G G^dag)."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ dagger(g)
    return DensityMatrix(m / np.trace(m))
