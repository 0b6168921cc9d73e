"""Dense complex linear algebra for unitaries, channels, and gate fidelity.

Everything is desk scale: dense complex128 matrices, dimension capped at
MAX_DIM by default. KrausChannel, the one channel type, is immutable after
construction and safe to share between workers.

Every gate fidelity in the package comes from one kernel, gate_fidelities,
over the real weight matrix each KrausChannel caches at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError, NumericalError, ParameterError

# Absolute entrywise tolerance for matrix equality checks.
ATOL = 1e-10
# Trace-preservation tolerance for Kraus sets; also the slack on fidelities above 1.
TRACE_TOL = 1e-9
# Default cap on Hilbert-space dimension for dense storage.
MAX_DIM = 64
# Bytes of float64 temporaries the fidelity kernel holds per block of rows, about.
_BLOCK_BYTES = 1 << 22


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


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by d x d Kraus operators A_k with sum A_k^dag A_k = I.

    `spec` names the channel (presets and compositions carry the string
    parse_channel_spec reads back); `exact_fidelity` is its Haar-average
    gate fidelity from exact_average_fidelity, computed once here.
    """

    kraus_ops: tuple = field()
    spec: str = "kraus"
    # (2K, d^2) real weight matrix of the fidelity kernel; see _weight_matrix.
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    exact_fidelity: float = field(init=False, compare=False)

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
        object.__setattr__(self, "weights", _weight_matrix(ops))
        object.__setattr__(self, "exact_fidelity", exact_average_fidelity(self))

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def _weight_matrix(ops: tuple) -> np.ndarray:
    """Real W of shape (2K, d^2) with <c|A_k|c> = (W r)_k + i (W r)_(K+k).

    r = r(c) holds the d^2 real coordinates of |c><c| that _coordinates
    builds: |c_i|^2, then Re z_ij and Im z_ij for z_ij = conj(c_i) c_j, i < j.
    Since <c|A|c> = sum_i A_ii |c_i|^2 + sum_(i<j) (A_ij + A_ji) Re z_ij
    + i (A_ij - A_ji) Im z_ij, row k holds the real parts of those
    coefficients for A_k and row K + k their imaginary parts.
    """
    i, j = np.triu_indices(ops[0].shape[0], 1)
    w = np.empty((2 * len(ops), ops[0].size))
    for k, a in enumerate(ops):
        f = np.concatenate([np.diagonal(a), a[i, j] + a[j, i], 1j * (a[i, j] - a[j, i])])
        w[k], w[len(ops) + k] = f.real, f.imag
    w.flags.writeable = False
    return w


def _coordinates(c: np.ndarray) -> np.ndarray:
    """r(c) of shape (n, d^2) for rows c of shape (n, d); see _weight_matrix."""
    i, j = np.triu_indices(c.shape[1], 1)
    z = c[:, i].conj() * c[:, j]
    return np.concatenate([c.real**2 + c.imag**2, z.real, z.imag], axis=1)


def _block_rows(w: np.ndarray) -> int:
    """Rows per kernel block: the 2K outputs and about 4 d^2 coordinate and
    pair-product temporaries per row, in _BLOCK_BYTES of float64."""
    return max(1, _BLOCK_BYTES // (8 * (w.shape[0] + 4 * w.shape[1])))


def gate_fidelities(ch: KrausChannel, columns) -> np.ndarray:
    """Success probabilities p(c) = <c|Lambda(|c><c|)|c> for unit rows c.

    columns has shape (n, d); the result has shape (n,). p(c) is
    sum_k |<c|A_k|c>|^2 = |W r(c)|^2, one real matrix product with the
    channel's cached weights per block of rows, so the temporaries stay near
    _BLOCK_BYTES whatever n is.
    """
    cols = np.asarray(columns, dtype=np.complex128)
    if cols.ndim != 2 or cols.shape[1] != ch.dim:
        raise DimensionError(f"expected columns of shape (n, {ch.dim}), got {cols.shape}")
    rows = _block_rows(ch.weights)
    p = np.empty(len(cols))
    for s in range(0, len(cols), rows):
        y = _coordinates(cols[s : s + rows]) @ ch.weights.T
        p[s : s + rows] = np.einsum("nk,nk->n", y, y)
    if p.size and (p.min() < -TRACE_TOL or p.max() > 1.0 + TRACE_TOL):
        raise NumericalError("gate fidelity outside [0,1] beyond tolerance")
    return np.clip(p, 0.0, 1.0)


def gate_fidelity_vector(ch: KrausChannel, psi) -> float:
    """<psi| Lambda(|psi><psi|) |psi> for one unit vector psi."""
    return float(gate_fidelities(ch, np.reshape(psi, (1, -1)))[0])


def exact_average_fidelity(ch: KrausChannel) -> float:
    """Closed-form Haar average of the gate fidelity: (sum_k |Tr A_k|^2 + d) / (d^2 + d)."""
    d = ch.dim
    s = sum(abs(np.trace(a)) ** 2 for a in ch.kraus_ops)
    return float((s + d) / (d * d + d))


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
