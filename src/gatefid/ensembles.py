"""Finite unitary ensembles, t-copy moment superoperators, and design quality.

The Haar twirl is realized as the Hilbert-Schmidt orthogonal projector onto
the span of permutation operators, with the Gram matrix d^{#cycles} inverted
by pseudo-inverse so that d < t rank deficiency is handled gracefully. Each
permutation operator is stored as the row of its single 1 in every column, so
the twirl is a gather, a t! x t! product and a scatter-add.

The moment superoperator is applied matrix-free, one tensor factor at a time;
a small factor's dense superoperator sum_i U_i^{(x)t} (x) conj(U_i^{(x)t}) / s
is one GEMM per block of unitaries, with each block's Kronecker powers built
together and kept under a fixed byte budget.

An ensemble built as a group modulo phase (the builtins and their tensor
products) has lambda_t 0 or 1, read off its frame potential; every other
ensemble takes Lanczos on the matrix-free operator.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    ConvergenceError,
    FormatError,
    ParameterError,
    ValidationError,
)
from .quantum import check_dense_dim, dagger

# A factor's dense superoperator is built only up to this many rows (f.dim^{2t} <= cap).
DENSE_CAP = 4096
# The twirl projector enumerates t! permutations; keep t small.
TWIRL_T_CAP = 4
# Bytes of one d^t x d^t complex operand, the size of each matrix Lanczos holds.
TWIRL_OPERAND_CAP = 1 << 26
# Bytes of the (s_a s_b, d, d) stack tensor_product materialises: the four-fold
# clifford1q product (d = 16) takes 1.27 GiB, the five-fold one 122 GiB.
PRODUCT_STACK_CAP = 1 << 31
# Bytes one block of stacked Kronecker powers (or unitarity products) may take.
_BLOCK_BYTES = 1 << 24
# Unitarity tolerance when loading ensembles from files.
LOAD_UNITARITY_TOL = 1e-8

_LANCZOS_SEED = 0x7E57ED
# Lanczos stops once its top Ritz pair's residual is <= max(tol * lambda, floor) * lambda,
# lambda^2 being the Ritz value (the floor is far above rounding), or fails after max steps.
_LANCZOS_TOL = 1e-8
_LANCZOS_FLOOR = 1e-12
_LANCZOS_MAX = 500
# A group's frame-potential gap is taken as an integer only within this distance of one.
_GROUP_GAP_TOL = 1e-6


@dataclass(frozen=True)
class UnitaryEnsemble:
    """A uniform-weight finite set of d x d unitaries.

    `group` records how the set was built, never a run-time check: True only
    for a group modulo phase holding each element once, which the builtins are
    and tensor products of groups stay.
    """

    dim: int
    unitaries: np.ndarray  # shape (s, d, d), complex128, read-only
    label: str
    tensor_factors: tuple = ()  # the plain factors (f1, ..., fk) of a product, flattened
    group: bool = False

    def __post_init__(self):
        stack = np.ascontiguousarray(np.asarray(self.unitaries, dtype=np.complex128))
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValidationError(f"expected shape (s, d, d), got {stack.shape}")
        if stack.shape[0] < 1:
            raise ValidationError("an ensemble needs at least one unitary")
        if stack.shape[1] != self.dim:
            raise ValidationError(f"declared dim {self.dim} != matrix dim {stack.shape[1]}")
        eye = np.eye(self.dim)
        for lo, block in _blocks(stack, self.dim**2 * 16):
            gap = block @ block.conj().transpose(0, 2, 1)
            gap -= eye
            bad = np.flatnonzero(~(np.abs(gap).max(axis=(1, 2)) <= LOAD_UNITARITY_TOL))
            if bad.size:
                raise ValidationError(f"unitaries[{lo + bad[0]}] is not unitary within tolerance")
        stack.flags.writeable = False
        object.__setattr__(self, "unitaries", stack)

    @property
    def size(self) -> int:
        return self.unitaries.shape[0]


_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _phase_canonical(u: np.ndarray) -> bytes:
    """Canonical byte key of a unitary modulo global phase."""
    flat = u.reshape(-1)
    for x in flat:
        if abs(x) > 1e-9:
            u = u / (x / abs(x))
            break
    return (np.round(u, 9) + (0.0 + 0.0j)).tobytes()  # the +0 erases -0.0 signs


def _clifford1q_stack() -> np.ndarray:
    """Closure of {H, S} under multiplication, modulo global phase (24 elements)."""
    seen = {}
    frontier = [np.eye(2, dtype=np.complex128)]
    seen[_phase_canonical(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (_H, _S):
                v = g @ u
                key = _phase_canonical(v)
                if key not in seen:
                    seen[key] = v
                    nxt.append(v)
        frontier = nxt
    stack = np.array(sorted(seen.values(), key=_phase_canonical))
    if stack.shape[0] != 24:
        raise ValidationError(f"Clifford closure produced {stack.shape[0]} elements, expected 24")
    return stack


@functools.cache
def builtin_ensemble(name: str, d: int | None = None) -> UnitaryEnsemble:
    """Named built-in ensembles: clifford1q, pauli1q, identity_only.

    Each (name, d) is built once per process and shared, which is safe
    because an ensemble is frozen and its stack read-only; a product such
    as clifford1q(x)clifford1q then closes the group once.
    """
    if name == "clifford1q":
        return UnitaryEnsemble(2, _clifford1q_stack(), "clifford1q", group=True)
    if name == "pauli1q":
        stack = np.array([_PAULI[k] for k in "IXYZ"])
        return UnitaryEnsemble(2, stack, "pauli1q", group=True)
    if name == "identity_only":
        dd = 2 if d is None else int(d)
        if dd < 1:
            raise ParameterError(f"dimension must be >= 1, got d={dd}")
        check_dense_dim(dd)
        eye = np.eye(dd, dtype=np.complex128)[None, :, :]
        return UnitaryEnsemble(dd, eye, "identity_only", group=True)
    raise ConfigError(f"unknown builtin ensemble {name!r}")


def tensor_product(a: UnitaryEnsemble, b: UnitaryEnsemble) -> UnitaryEnsemble:
    """All s_a * s_b pairwise Kronecker products; uniform weights stay uniform.

    `tensor_factors` lists the plain factors of both sides, so a nested product
    records all of them. The product of two groups is a group, so `group`
    carries over when both are. A stack over PRODUCT_STACK_CAP bytes is
    refused with CapacityError before it is built.
    """
    sa, d1, _ = a.unitaries.shape
    sb, d2, _ = b.unitaries.shape
    check_dense_dim(d1 * d2)
    label = f"{a.label}(x){b.label}"
    need = sa * sb * (d1 * d2) ** 2 * 16
    if need > PRODUCT_STACK_CAP:
        raise CapacityError(
            f"{label} holds {sa * sb} unitaries of d = {d1 * d2}, {need / 2**30:.1f} GiB,"
            f" over the {PRODUCT_STACK_CAP >> 30} GiB cap"
        )
    stack = np.einsum("iab,jcd->ijacbd", a.unitaries, b.unitaries).reshape(sa * sb, d1 * d2, d1 * d2)
    factors = (a.tensor_factors or (a,)) + (b.tensor_factors or (b,))
    return UnitaryEnsemble(d1 * d2, stack, label, tensor_factors=factors, group=a.group and b.group)


def load_ensemble(path) -> UnitaryEnsemble:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot parse ensemble file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("ensemble file must contain a JSON object")
    if "weights" in doc:
        raise ValidationError("weighted ensembles are not supported; weights must be uniform")
    extra = set(doc) - {"d", "label", "unitaries"}
    if extra:
        raise FormatError(f"unknown keys in ensemble file: {sorted(extra)}")
    try:
        d = doc["d"]
        if type(d) is not int:  # a JSON integer: no float, string or boolean
            raise TypeError(f"d must be an integer, got {d!r}")
        label = str(doc["label"])
        raw = doc["unitaries"]
        mats = []
        for i, u in enumerate(raw):
            m = np.asarray(u, dtype=float)
            if m.ndim != 3 or m.shape[2] != 2:
                raise ValidationError(f"unitaries[{i}] is not a d x d grid of [re, im] pairs")
            if m.shape[0] != d or m.shape[1] != d:
                raise ValidationError(f"unitaries[{i}] has dimension {m.shape[0]}, expected {d}")
            mats.append(m[:, :, 0] + 1j * m[:, :, 1])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed ensemble file: {exc}") from exc
    return UnitaryEnsemble(d, np.array(mats), label)


def _blocks(stack: np.ndarray, item_bytes: int):
    """(start, view) over consecutive slices of `stack` of at most _BLOCK_BYTES each."""
    step = max(1, _BLOCK_BYTES // item_bytes)
    for lo in range(0, len(stack), step):
        yield lo, stack[lo : lo + step]


def _kron_powers(stack: np.ndarray, t: int):
    """U^{(x)t} for every U in `stack`, a block at a time, entry for entry as np.kron."""
    d = stack.shape[1]
    for _, u in _blocks(stack, d ** (2 * t) * 16):
        out = u
        for _ in range(t - 1):
            b, n, _ = out.shape
            out = (out[:, :, None, :, None] * u[:, None, :, None, :]).reshape(b, n * d, n * d)
        yield out


@dataclass(frozen=True)
class HaarTwirlProjector:
    """HS-orthogonal projector onto span{P_pi}; equals the Haar t-copy twirl.

    Column c of P_pi holds its single 1 in row permutation_rows[pi, c].
    """

    dim: int
    tensor_power: int
    permutation_rows: np.ndarray  # (t!, d^t) int64
    gram_inverse: np.ndarray  # (t!, t!)

    def apply(self, m: np.ndarray) -> np.ndarray:
        cols = np.arange(m.shape[1])
        overlaps = m[self.permutation_rows, cols].sum(axis=1)  # <P_pi, m>
        coeffs = self.gram_inverse @ overlaps
        out = np.zeros(m.shape, dtype=np.complex128)
        for rows, c in zip(self.permutation_rows, coeffs):
            out[rows, cols] += c
        return out


def _check_twirl_size(d: int, t: int) -> None:
    """Refuse a t-copy twirl past TWIRL_T_CAP or TWIRL_OPERAND_CAP; builds nothing."""
    if t < 1:
        raise ParameterError(f"tensor power t must be >= 1, got {t}")
    if t > TWIRL_T_CAP:
        raise CapacityError(f"t = {t} exceeds the twirl cap t <= {TWIRL_T_CAP}")
    big = d**t
    need = big * big * 16
    if need > TWIRL_OPERAND_CAP:
        raise CapacityError(
            f"the t = {t} twirl at d = {d} works on {big} x {big} operands of"
            f" {need / 2**20:.0f} MiB each, over the {TWIRL_OPERAND_CAP >> 20} MiB cap"
        )


def haar_twirl_projector(d: int, t: int) -> HaarTwirlProjector:
    _check_twirl_size(d, t)
    big = d**t
    perms = list(itertools.permutations(range(t)))
    # P_pi maps the basis state with digits (i_1..i_t) to digits (i_inv[1]..i_inv[t]),
    # inv = argsort(pi) the inverse permutation
    digits = np.array(np.unravel_index(np.arange(big), (d,) * t))  # (t, d^t)
    rows = np.empty((len(perms), big), dtype=np.int64)
    for i, p in enumerate(perms):
        rows[i] = np.ravel_multi_index(tuple(digits[np.argsort(p)]), (d,) * t)
    # Tr(P_pi^T P_sigma) counts the columns where the two agree: d^{#cycles(pi^-1 sigma)}
    gram = (rows[:, None, :] == rows[None, :, :]).sum(axis=2)
    gram_inv = np.linalg.pinv(gram, rcond=1e-10)
    return HaarTwirlProjector(d, t, rows, gram_inv)


class MomentOperator:
    """The t-copy averaging superoperator M -> (1/s) sum_i U_i^{t} M (U_i^dag)^{t}.

    Matrix-free, one plain factor at a time: the average over a tensor product
    is the composition of its factors' averages, each acting along that
    factor's digit of every ket and bra copy. A factor applies its dense
    superoperator when f.dim^{2t} <= DENSE_CAP and loops over its own unitaries
    otherwise; a plain ensemble is the one-factor case.
    """

    def __init__(self, ensemble: UnitaryEnsemble, t: int):
        self.ensemble = ensemble
        self.tensor_power = t
        self.dim = ensemble.dim
        self._factors = ensemble.tensor_factors or (ensemble,)
        self._superops = tuple(
            _dense_superop(f, t) if f.dim ** (2 * t) <= DENSE_CAP else None for f in self._factors
        )

    def apply(self, m: np.ndarray) -> np.ndarray:
        return self._apply(m, adjoint=False)

    def apply_adjoint(self, m: np.ndarray) -> np.ndarray:
        return self._apply(m, adjoint=True)

    def _apply(self, m: np.ndarray, adjoint: bool) -> np.ndarray:
        t, k = self.tensor_power, len(self._factors)
        # one digit per factor in each of the t ket copies, then each bra copy
        x = m.reshape([f.dim for f in self._factors] * (2 * t))
        last = list(range(-2 * t, 0))
        for i, (f, superop) in enumerate(zip(self._factors, self._superops)):
            axes = list(range(i, 2 * t * k, k))
            x = np.moveaxis(x, axes, last)
            shape, big = x.shape, f.dim**t
            if superop is not None:
                # rows are the row-major vec of this factor's (ket, bra) block
                y = x.reshape(-1, big * big) @ (superop.conj() if adjoint else superop.T)
            else:
                mats = x.reshape(-1, big, big)
                y = np.zeros(mats.shape, dtype=np.complex128)
                for block in _kron_powers(f.unitaries, t):
                    for w in block:
                        y += dagger(w) @ mats @ w if adjoint else w @ mats @ dagger(w)
                y /= f.size
            x = np.moveaxis(y.reshape(shape), last, axes)
        return x.reshape(m.shape)


def _dense_superop(e: UnitaryEnsemble, t: int) -> np.ndarray:
    """The d^{2t} x d^{2t} matrix of G acting on row-major vec(M)."""
    big = e.dim**t
    acc = np.zeros((big * big, big * big), dtype=np.complex128)
    for w in _kron_powers(e.unitaries, t):
        flat = w.reshape(len(w), big * big)
        # rows (a, b) and columns (c, d) of sum_i W_i[a, b] conj(W_i[c, d])
        acc += flat.T @ flat.conj()
    acc /= e.size
    return acc.reshape(big, big, big, big).transpose(0, 2, 1, 3).reshape(big * big, big * big)


@dataclass(frozen=True)
class DesignCheck:
    """One spectral report row: second singular value at tensor power t."""

    tensor_power: int
    lambda_value: float
    method: str
    epsilon2_bound: float
    vacuous: bool
    iterations: int | None = None
    residual: float | None = None


def checked_lambda(value) -> float:
    """A lambda as a float; ParameterError unless it is a finite number >= 0."""
    if not 0.0 <= value < math.inf:  # also refuses NaN
        raise ParameterError(f"claimed lambda must be a finite number >= 0, got {value}")
    return float(value)


def lambda_t(e: UnitaryEnsemble, t: int, claimed=None) -> float:
    """The claimed lambda_t, checked, or else the one tpe_lambda computes."""
    return tpe_lambda(e, t).lambda_value if claimed is None else checked_lambda(claimed)


def design_epsilon_from_lambda(lambda2: float, d: int) -> float:
    """Certified approximate-2-design epsilon from a 2-copy lambda: lambda * d^4."""
    return checked_lambda(lambda2) * d**4


def _haar_frame_potential(d: int, t: int) -> int:
    """dim span{P_pi}: the permutations of t with no increasing subsequence
    longer than d (Rains 1998); t! once d >= t."""
    count = 0
    for p in itertools.permutations(range(t)):
        longest = []  # longest[i]: longest increasing subsequence ending at p[i]
        for i, v in enumerate(p):
            longest.append(1 + max((longest[j] for j in range(i) if p[j] < v), default=0))
        count += max(longest) <= d
    return count


def _group_lambda(e: UnitaryEnsemble, t: int) -> float | None:
    """lambda_t of a group: 1.0 if FP_t exceeds the Haar frame potential, else 0.0.

    FP_t = s^-1 sum_g |Tr g|^{2t} = Tr G. Under the twirl caps d^t <= 2048, so
    every term is at most 4.2e6 and the float gap is off by ~1e-8; an integer
    is taken only within _GROUP_GAP_TOL = 1e-6, far inside 1/2, and None
    (use the numeric path) is returned otherwise.
    """
    traces = np.trace(e.unitaries, axis1=1, axis2=2)
    gap = float(np.mean((traces.real**2 + traces.imag**2) ** t)) - _haar_frame_potential(e.dim, t)
    whole = round(gap)
    if whole < 0 or abs(gap - whole) > _GROUP_GAP_TOL:
        return None
    return float(whole > 0)


def tpe_lambda(e: UnitaryEnsemble, t: int) -> DesignCheck:
    """Largest singular value of (G - HaarTwirl) at tensor power t.

    A group's G is the orthogonal projector onto the commutant of its t-copy
    action, which holds the twirl's range, so G - HaarTwirl is a projector and
    lambda is 0 or 1, read off the frame potentials (method "group", exact).
    Any other ensemble takes Lanczos on a MomentOperator (method "lanczos"),
    whose Ritz value bounds lambda from below up to rounding. Both paths
    refuse the same sizes first.
    """
    _check_twirl_size(e.dim, t)
    eps = lambda lam: design_epsilon_from_lambda(lam, e.dim)
    if e.group:
        lam = _group_lambda(e, t)
        if lam is not None:
            return DesignCheck(t, lam, "group", eps(lam), eps(lam) > 2)
    lam, steps, resid = _lanczos_lambda(MomentOperator(e, t), haar_twirl_projector(e.dim, t))
    return DesignCheck(t, lam, "lanczos", eps(lam), eps(lam) > 2, steps, resid)


def _lanczos_lambda(g: MomentOperator, proj: HaarTwirlProjector):
    """(sigma_max of A = G - Twirl, steps, residual): Lanczos on A^dag A by the
    plain three-term recurrence over three d^t x d^t operands, whose top Ritz
    value converges without reorthogonalisation (Paige 1976). It stops once
    that pair's residual beta_k |s_k| fixes lambda to tol/2 relative or floor/2
    absolute; an exact design (A at rounding level) stops in a step or two."""
    big = g.dim**g.tensor_power
    rng = np.random.Generator(np.random.Philox(_LANCZOS_SEED))
    q = rng.standard_normal((big, big)) + 1j * rng.standard_normal((big, big))
    q /= np.linalg.norm(q)
    q_prev = np.zeros_like(q)
    max_steps = _LANCZOS_MAX
    tri = np.zeros((max_steps + 1, max_steps + 1))  # T_k is its leading k x k block
    beta = 0.0
    for k in range(1, max_steps + 1):
        w = g.apply(q) - proj.apply(q)
        w = g.apply_adjoint(w) - proj.apply(w)
        alpha = float(np.vdot(q, w).real)
        w -= alpha * q
        w -= beta * q_prev
        beta = float(np.linalg.norm(w))
        tri[k - 1, k - 1] = alpha
        ritz, vecs = np.linalg.eigh(tri[:k, :k])
        resid = beta * float(abs(vecs[-1, -1]))
        lam = math.sqrt(max(ritz[-1], 0.0))
        if resid <= max(_LANCZOS_TOL * lam, _LANCZOS_FLOOR) * lam:
            return lam, k, resid
        tri[k, k - 1] = tri[k - 1, k] = beta
        q_prev, q = q, w / beta
    raise ConvergenceError(
        f"Lanczos did not reach tolerance {_LANCZOS_TOL} in {max_steps} steps", residual=resid
    )
