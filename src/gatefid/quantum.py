"""Dense complex linear algebra for unitaries, channels, and gate fidelity.

Everything is desk scale: dense complex128 matrices, dimension capped at
MAX_DIM by default. KrausChannel, the one channel type, is immutable after
construction and safe to share between workers.

Every gate fidelity in the package comes from one kernel, gate_fidelities,
over the real weight matrix each KrausChannel caches at construction. Its
Haar mean and second moment are closed forms: exact_average_fidelity and
haar_second_moment.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError, NumericalError, ParameterError

# Absolute entrywise tolerance for matrix equality checks.
ATOL = 1e-10
# Trace-preservation tolerance for Kraus sets; also the slack on fidelities above 1.
TRACE_TOL = 1e-9
# Default cap on Hilbert-space dimension for dense storage.
MAX_DIM = 64
# Bytes of temporaries per block of Kraus operators in _weight_matrix and
# choi_matrix, about; also the budget that sets the fidelity kernel's tile height.
_BLOCK_BYTES = 1 << 22
# Bytes of float64 temporaries the fidelity kernel holds per block of rows,
# about: an L2-sized working set, small enough that glibc keeps it between
# calls instead of returning it and faulting it in again on the next.
_KERNEL_BYTES = 1 << 20
# Bytes one run may hold: an estimator's trials and draws, a gen-bits tape, a
# channel composition's Kraus products, or a product ensemble's first columns.
# Each module that checks it imports it by name and reads its own binding.
RUN_MEMORY_CAP = 1 << 30


def check_dense_dim(d: int) -> None:
    """CapacityError when dimension d exceeds the dense cap MAX_DIM."""
    if d > MAX_DIM:
        raise CapacityError(f"dimension {d} exceeds the dense cap {MAX_DIM}")


def _frozen(a: np.ndarray) -> bool:
    """True when no writable array shares a's memory: a and every array it views,
    down to the one that owns the data, have their write flags clear."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        if a.base is None:
            return True
        a = a.base
    return False  # memory owned by some other buffer, which may be writable


def _kraus_stack(kraus_ops) -> np.ndarray:
    """Kraus operators as one read-only (K, d, d) complex128 array.

    A contiguous complex128 (K, d, d) array is taken without a copy when it
    and every array it views are read-only, as the presets and compositions
    build theirs. Any other array is copied, so its owner can neither lose
    write access nor change the channel, through the array or through a
    writable array it views, behind its cached weights and fidelity. A
    sequence of matrices is stacked into one once its shapes are checked.
    """
    if isinstance(kraus_ops, np.ndarray):
        shape = kraus_ops.shape
    else:
        kraus_ops = [np.asarray(a) for a in kraus_ops]
        shapes = {a.shape for a in kraus_ops}
        if len(shapes) > 1:
            raise DimensionError("all Kraus operators must be d x d of equal d")
        shape = (len(kraus_ops), *shapes.pop()) if kraus_ops else (0,)
    if shape[:1] == (0,):
        raise ParameterError("a channel needs at least one Kraus operator")
    if len(shape) != 3 or shape[1] != shape[2]:
        raise DimensionError("all Kraus operators must be d x d of equal d")
    check_dense_dim(shape[1])
    if isinstance(kraus_ops, np.ndarray) and not _frozen(kraus_ops):
        kraus_ops = kraus_ops.astype(np.complex128, order="C")
    stack = np.ascontiguousarray(kraus_ops, dtype=np.complex128)
    stack.flags.writeable = False
    return stack


def matrices_close(a, b, tol: float = ATOL) -> bool:
    """Entrywise max-norm equality within an absolute tolerance."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= tol)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPTP map given by d x d Kraus operators A_k with sum A_k^dag A_k = I.

    `kraus_ops` may be a sequence of matrices or one (K, d, d) array; it is
    kept as one read-only (K, d, d) complex128 stack. `spec` names the
    channel (presets and compositions carry the string parse_channel_spec
    reads back); `exact_fidelity` is its Haar-average
    gate fidelity from exact_average_fidelity, computed once here. Channels
    compare and hash by identity, as field-wise equality over arrays has no
    single truth value.
    """

    kraus_ops: np.ndarray = field()
    spec: str = "kraus"
    # (2K, d^2) real weight matrix of the fidelity kernel; see _weight_matrix.
    weights: np.ndarray = field(init=False, repr=False)
    exact_fidelity: float = field(init=False)

    def __post_init__(self):
        ops = _kraus_stack(self.kraus_ops)
        k, d = ops.shape[:2]
        if k > d * d:
            raise ParameterError(f"{k} Kraus operators exceed d^2 = {d * d}; reduce first")
        # sum_k A_k^dag A_k from one real Gram matrix of the stacked rows, with
        # no conjugated copy: for A = R + iS, A^dag A = R^T R + S^T S + i (R^T S - S^T R)
        rows = ops.reshape(-1, d).view(np.float64)
        g = rows.T @ rows
        total = g[0::2, 0::2] + g[1::2, 1::2] + 1j * (g[0::2, 1::2] - g[1::2, 0::2])
        if not matrices_close(total, np.eye(d), TRACE_TOL):
            raise NumericalError("Kraus operators do not satisfy trace preservation")
        object.__setattr__(self, "kraus_ops", ops)
        object.__setattr__(self, "weights", _weight_matrix(ops))
        object.__setattr__(self, "exact_fidelity", exact_average_fidelity(self))

    @property
    def dim(self) -> int:
        return self.kraus_ops.shape[1]


def _weight_matrix(ops: np.ndarray) -> np.ndarray:
    """Real W of shape (2K, d^2) with <c|A_k|c> = (W r)_k + i (W r)_(K+k).

    r = r(c) holds the d^2 real coordinates of |c><c| that _coordinates
    builds: |c_i|^2, then Re z_ij and Im z_ij for z_ij = conj(c_i) c_j, i < j.
    Since <c|A|c> = sum_i A_ii |c_i|^2 + sum_(i<j) (A_ij + A_ji) Re z_ij
    + i (A_ij - A_ji) Im z_ij, row k holds the real parts of those
    coefficients for A_k and row K + k their imaginary parts. ops is the
    (K, d, d) stack; it is read a block of operators at a time, so the complex
    temporaries stay near _BLOCK_BYTES.
    """
    k, d = ops.shape[:2]
    i, j = _upper_pairs(d)
    m = len(i)
    flat = ops.reshape(k, d * d)
    w = np.empty((2 * k, d * d))
    step = max(1, _BLOCK_BYTES // (48 * d * d))
    for lo in range(0, k, step):
        a = flat[lo : lo + step]
        hi = lo + len(a)
        upper, lower = a.take(i * d + j, axis=1), a.take(j * d + i, axis=1)
        for cols, f in ((slice(0, d), a.take(np.arange(d) * (d + 1), axis=1)),
                        (slice(d, d + m), upper + lower),
                        (slice(d + m, None), 1j * (upper - lower))):
            w[lo:hi, cols], w[k + lo : k + hi, cols] = f.real, f.imag
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=MAX_DIM)
def _upper_pairs(d: int) -> tuple:
    """np.triu_indices(d, 1): the pairs i < j, as read-only arrays kept per d."""
    i, j = np.triu_indices(d, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _coordinates(c: np.ndarray) -> np.ndarray:
    """r(c) of shape (n, d^2) for rows c of shape (n, d); see _weight_matrix."""
    i, j = _upper_pairs(c.shape[1])
    z = c[:, i].conj() * c[:, j]
    return np.concatenate([c.real**2 + c.imag**2, z.real, z.imag], axis=1)


def _rows_within(budget: int, w: np.ndarray) -> int:
    """Rows whose temporaries fit `budget` bytes of float64: the 2K outputs and
    about 4 d^2 coordinate and pair-product temporaries per row."""
    return max(1, budget // (8 * (w.shape[0] + 4 * w.shape[1])))


def _block_rows(w: np.ndarray) -> int:
    """Rows per kernel block: the most whole tiles that fit _KERNEL_BYTES, and
    one tile when not even one fits."""
    tile = _tile_rows(w)
    return tile * max(1, _rows_within(_KERNEL_BYTES, w) // tile)


def _tile_rows(w: np.ndarray) -> int:
    """Rows per tile of the kernel's matrix product: the largest power of two
    that is at most 512 and whose rows fit _BLOCK_BYTES, so it depends on W's
    shape alone (512 rows at d = 2 and 8, 256 at d = 16, 16 at d = 64)."""
    return 1 << (min(512, _rows_within(_BLOCK_BYTES, w)).bit_length() - 1)


def gate_fidelities(ch: KrausChannel, columns) -> np.ndarray:
    """Success probabilities p(c) = <c|Lambda(|c><c|)|c> for unit rows c.

    columns has shape (n, d); the result has shape (n,). p(c) is
    sum_k |<c|A_k|c>|^2 = |W r(c)|^2 with the channel's cached weights W, taken
    _block_rows rows at a time, so the temporaries stay near _KERNEL_BYTES
    whatever n is: a block small enough to sit in L2, and one the allocator
    keeps between calls. A BLAS product may round a row differently in a
    product of another height, so every product runs on tiles of _tile_rows
    rows, a height set apart from the block budget: a block's full tiles go
    through one batched matmul, and its last rows through one tile padded with
    zero rows. A row's p then depends only on the row and the channel: a
    member's probability is one float whatever batch or block it is read in.
    """
    cols = np.asarray(columns, dtype=np.complex128)
    if cols.ndim != 2 or cols.shape[1] != ch.dim:
        raise DimensionError(f"expected columns of shape (n, {ch.dim}), got {cols.shape}")
    w = ch.weights
    tile, step = _tile_rows(w), _block_rows(w)
    p = np.empty(len(cols))
    for s in range(0, len(cols), step):
        r = _coordinates(cols[s : s + step])
        full = len(r) // tile * tile
        p[s : s + full] = _tile_norms(r[:full], w, tile)
        if full < len(r):
            last = np.zeros((tile, r.shape[1]))
            last[: len(r) - full] = r[full:]
            p[s + full : s + len(r)] = _tile_norms(last, w, tile)[: len(r) - full]
    if p.size and (p.min() < -TRACE_TOL or p.max() > 1.0 + TRACE_TOL):
        raise NumericalError("gate fidelity outside [0,1] beyond tolerance")
    return np.clip(p, 0.0, 1.0)


def _tile_norms(r: np.ndarray, w: np.ndarray, tile: int) -> np.ndarray:
    """|W r|^2 for each row of r, whose height is a multiple of `tile`: one
    matmul over its tiles stacked (one BLAS product per tile), then row-wise dot
    products."""
    y = np.matmul(r.reshape(-1, tile, r.shape[1]), w.T).reshape(len(r), w.shape[0])
    return np.einsum("nk,nk->n", y, y)


def gate_fidelity_vector(ch: KrausChannel, psi) -> float:
    """<psi| Lambda(|psi><psi|) |psi> for one unit vector psi."""
    return float(gate_fidelities(ch, np.reshape(psi, (1, -1)))[0])


def exact_average_fidelity(ch: KrausChannel) -> float:
    """Closed-form Haar average of the gate fidelity: (sum_k |Tr A_k|^2 + d) / (d^2 + d),
    the traces read off the stack's diagonals and their squares summed left to right."""
    d = ch.dim
    s = sum(abs(tr) ** 2 for tr in np.trace(ch.kraus_ops, axis1=1, axis2=2))
    return float((s + d) / (d * d + d))


def haar_second_moment(ch: KrausChannel) -> float:
    """Closed-form Haar average of the squared gate fidelity, E[p(psi)^2].

    p(psi) = Tr[X psi^(x)2] with X = sum_k A_k (x) A_k^dag, and the Haar
    average of psi^(x)4 is the symmetric projector (1/24) sum_pi P_pi over
    C(d+3, 4), so E[p^2] = sum_pi Tr[(X (x) X) P_pi] / (24 C(d+3, 4)). Each
    permutation's term is one einsum over X viewed as a 4-index tensor,
    without `optimize`, so X is the only d^4 array held.
    """
    d = ch.dim
    # m[a, b, c, e] = sum_k A_k[a, b] conj(A_k[c, e]) = X[(a, e), (b, c)]
    m = choi_matrix(ch.kraus_ops).reshape(d, d, d, d)
    total = 0.0
    for cols in itertools.permutations("abcd"):
        # rows (a, b, c, d) of X (x) X against columns permuted by pi
        spec = f"a{cols[0]}{cols[1]}b,c{cols[2]}{cols[3]}d->"
        total += np.einsum(spec, m, m).real
    return float(total / (24 * math.comb(d + 3, 4)))


def choi_matrix(ops) -> np.ndarray:
    """sum_k vec(A_k) vec(A_k)^dag, shape (d^2, d^2), for a sequence or a
    (K, d, d) stack of operators: V^T conj(V) for the rows vec(A_k) of V,
    accumulated a block of Kraus operators and a block of rows at a time, so
    each temporary stays near _BLOCK_BYTES."""
    n = ops[0].size
    step = max(1, _BLOCK_BYTES // (16 * n))
    out = np.zeros((n, n), dtype=np.complex128)
    for lo in range(0, len(ops), step):
        flat = np.reshape(ops[lo : lo + step], (-1, n))
        conj = flat.conj()
        for r in range(0, n, step):
            out[r : r + step] += flat[:, r : r + step].T @ conj
    return out


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
