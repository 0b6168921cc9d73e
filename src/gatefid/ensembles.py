"""Finite unitary ensembles, t-copy moment superoperators, and design quality.

The Haar twirl is realized as the Hilbert-Schmidt orthogonal projector onto
the span of permutation operators, with the Gram matrix d^{#cycles} inverted
by pseudo-inverse so that d < t rank deficiency is handled gracefully. Each
permutation operator is stored as the row of its single 1 in every column, so
the twirl is a gather, a t! x t! product and a scatter-add.

A tensor product holds its plain factors, never the stack of its members.
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
from .quantum import RUN_MEMORY_CAP, check_dense_dim, dagger

# A factor's dense superoperator is built only up to this many rows (f.dim^{2t} <= cap).
DENSE_CAP = 4096
# The twirl projector enumerates t! permutations; keep t small.
TWIRL_T_CAP = 4
# Bytes of one d^t x d^t complex operand, the size of each matrix Lanczos holds.
TWIRL_OPERAND_CAP = 1 << 26
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
# A group factor's frame potential is taken as an integer only within this distance of one.
_GROUP_GAP_TOL = 1e-6
# The names builtin_ensemble builds; the CLI reads any other ensemble name as a file.
_BUILTIN_ENSEMBLES = ("clifford1q", "pauli1q", "identity_only")


@dataclass(frozen=True, eq=False)
class UnitaryEnsemble:
    """A uniform-weight finite set of d x d unitaries.

    A tensor product's `unitaries` is None: its members are the Kronecker
    products f1[i1] (x) ... (x) fk[ik] of its factors, i1 the leading digit.

    `group` records how the set was built, never a run-time check: True only
    for a group modulo phase holding each element once, which the builtins are
    and tensor products of groups stay. Ensembles compare and hash by
    identity, as field-wise equality over arrays has no single truth value.
    """

    dim: int
    unitaries: np.ndarray | None  # shape (s, d, d), complex128, read-only; None for a product
    label: str
    tensor_factors: tuple = ()  # the plain factors (f1, ..., fk) of a product, flattened
    group: bool = False

    def __post_init__(self):
        if self.tensor_factors:  # built by tensor_product from checked plain factors
            return
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
    def factors(self) -> tuple:
        """The plain factors of a product, or the ensemble itself as its one factor."""
        return self.tensor_factors or (self,)

    @property
    def size(self) -> int:
        return math.prod(len(f.unitaries) for f in self.factors)

    def first_columns(self, ids=None) -> np.ndarray:
        """Column 0 of the members `ids` in their order, the states U|0>, shape (len(ids), d);
        of every member in member order when ids is None. A product's are folded left from
        its factors' columns, entry for entry by the same complex products, with the factor
        indices that are each id's mixed-radix digits, the first factor's leading.
        CapacityError once the columns would pass RUN_MEMORY_CAP bytes."""
        count = self.size if ids is None else len(ids)
        need = count * self.dim * 16
        if need > RUN_MEMORY_CAP:
            raise CapacityError(
                f"the first columns of {self.label}, {count} members of d = {self.dim},"
                f" take {need / 2**20:.0f} MiB, over the {RUN_MEMORY_CAP >> 20} MiB cap"
            )
        ids = np.arange(self.size) if ids is None else np.asarray(ids, dtype=np.int64).reshape(-1)
        if ids.size and not 0 <= ids.min() <= ids.max() < self.size:
            raise ParameterError(f"member ids must lie in [0, {self.size})")
        first, *rest = self.factors
        digits = []
        for f in reversed(rest):
            ids, digit = np.divmod(ids, f.size)
            digits.append(digit)
        cols = first.unitaries[ids, :, 0]
        for f, digit in zip(rest, reversed(digits)):
            width = cols.shape[1] * f.dim
            cols = np.einsum("ia,ic->iac", cols, f.unitaries[digit, :, 0]).reshape(len(cols), width)
        return cols

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
    """The built-in ensembles named in _BUILTIN_ENSEMBLES: clifford1q, pauli1q, identity_only.

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
    """All s_a * s_b pairwise Kronecker products, held as the plain factors of both
    sides, flattened. The product of two groups is a group, so `group` carries
    over when both are. A dimension past the dense cap is refused."""
    check_dense_dim(a.dim * b.dim)
    return UnitaryEnsemble(a.dim * b.dim, None, f"{a.label}(x){b.label}",
                           tensor_factors=a.factors + b.factors, group=a.group and b.group)


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


def _check_tensor_power(t: int) -> None:
    """Refuse a tensor power outside [1, TWIRL_T_CAP], the range every lambda path takes."""
    if t < 1:
        raise ParameterError(f"tensor power t must be >= 1, got {t}")
    if t > TWIRL_T_CAP:
        raise CapacityError(f"t = {t} exceeds the twirl cap t <= {TWIRL_T_CAP}")


def _check_twirl_size(d: int, t: int) -> None:
    """Refuse a t-copy twirl past TWIRL_T_CAP or TWIRL_OPERAND_CAP; builds nothing."""
    _check_tensor_power(t)
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
        self._factors = ensemble.factors
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


def _frame_potentials(e: UnitaryEnsemble, t: int) -> list:
    """FP_t = s^-1 sum_g |Tr g|^{2t} = Tr G of each plain factor of e; a product's
    FP_t is the product of its factors', as the trace of a Kronecker product is
    the product of the traces."""
    traces = (np.trace(f.unitaries, axis1=1, axis2=2) for f in e.factors)
    return [float(np.mean((tr.real**2 + tr.imag**2) ** t)) for tr in traces]


def _group_gap(e: UnitaryEnsemble, t: int) -> int | None:
    """FP_t minus the Haar frame potential of a group, an exact integer.

    A group factor's FP_t is an integer, the dimension of its commutant, so
    each factor's float FP_t is rounded to its integer and the integers are
    multiplied exactly. None (use the numeric path) is returned when a
    factor's FP_t misses its integer by more than _GROUP_GAP_TOL = 1e-6 or
    the gap is negative. The builtins miss by at most 8.9e-16 (clifford1q's
    FP_3, computed as 4.999999999999999) at t <= 4 and d <= 64, so no product
    of them comes near the tolerance, however large its FP_t: five
    identity_only factors with one clifford1q give FP_3 = 5 * 2^30 exactly.
    """
    fps = _frame_potentials(e, t)
    whole = [round(fp) for fp in fps]
    if any(abs(fp - w) > _GROUP_GAP_TOL for fp, w in zip(fps, whole)):
        return None
    gap = math.prod(whole) - _haar_frame_potential(e.dim, t)
    return gap if gap >= 0 else None


def tpe_lambda(e: UnitaryEnsemble, t: int) -> DesignCheck:
    """Largest singular value of (G - HaarTwirl) at tensor power t.

    A group's G is the orthogonal projector onto the commutant of its t-copy
    action, which holds the twirl's range, so G - HaarTwirl is a projector and
    lambda is 0 or 1, read off the frame potentials (method "group", exact),
    with no twirl operand to build. Any other ensemble takes Lanczos on a
    MomentOperator (method "lanczos"), whose Ritz value bounds lambda from
    below up to rounding; it refuses operands past TWIRL_OPERAND_CAP before
    it builds anything. Both paths refuse t outside [1, TWIRL_T_CAP].
    """
    _check_tensor_power(t)
    eps = lambda lam: design_epsilon_from_lambda(lam, e.dim)
    if e.group and (gap := _group_gap(e, t)) is not None:
        lam = float(gap > 0)
        return DesignCheck(t, lam, "group", eps(lam), eps(lam) > 2)
    _check_twirl_size(e.dim, t)
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
