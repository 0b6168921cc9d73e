"""Finite unitary ensembles, t-copy moment superoperators, and design quality.

The Haar twirl is realized as the Hilbert-Schmidt orthogonal projector onto
the span of permutation operators, with the Gram matrix d^{#cycles} inverted
by pseudo-inverse so that d < t rank deficiency is handled gracefully.
"""

from __future__ import annotations

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
from .quantum import MAX_DIM, dagger, matrices_close, schatten_norm

# Dense superoperators are built only up to this many rows (d^{2t} <= cap).
DENSE_CAP = 4096
# The twirl projector enumerates t! permutations; keep t small.
TWIRL_T_CAP = 4
# Bytes the t! dense d^t x d^t complex permutation operators may take.
TWIRL_BASIS_CAP = 1 << 26
# Unitarity tolerance when loading ensembles from files.
LOAD_UNITARITY_TOL = 1e-8

_POWER_ITER_SEED = 0x7E57ED
# Power iteration stops once ||A^dag A v - sigma^2 v|| <= tol, or fails after max steps.
_POWER_ITER_TOL = 1e-8
_POWER_ITER_MAX = 10_000


@dataclass(frozen=True)
class UnitaryEnsemble:
    """A uniform-weight finite set of d x d unitaries."""

    dim: int
    unitaries: np.ndarray  # shape (s, d, d), complex128, read-only
    label: str
    tensor_factors: tuple | None = None  # (UnitaryEnsemble, UnitaryEnsemble) when built as a product

    def __post_init__(self):
        stack = np.ascontiguousarray(np.asarray(self.unitaries, dtype=np.complex128))
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValidationError(f"expected shape (s, d, d), got {stack.shape}")
        if stack.shape[0] < 1:
            raise ValidationError("an ensemble needs at least one unitary")
        if stack.shape[1] != self.dim:
            raise ValidationError(f"declared dim {self.dim} != matrix dim {stack.shape[1]}")
        eye = np.eye(self.dim)
        for i, u in enumerate(stack):
            if not matrices_close(u @ dagger(u), eye, LOAD_UNITARITY_TOL):
                raise ValidationError(f"unitaries[{i}] is not unitary within tolerance")
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


def builtin_ensemble(name: str, d: int | None = None) -> UnitaryEnsemble:
    """Named built-in ensembles: clifford1q, pauli1q, identity_only."""
    if name == "clifford1q":
        return UnitaryEnsemble(2, _clifford1q_stack(), "clifford1q")
    if name == "pauli1q":
        stack = np.array([_PAULI[k] for k in "IXYZ"])
        return UnitaryEnsemble(2, stack, "pauli1q")
    if name == "identity_only":
        dd = 2 if d is None else int(d)
        if dd < 1:
            raise ParameterError(f"dimension must be >= 1, got d={dd}")
        if dd > MAX_DIM:
            raise CapacityError(f"dimension {dd} exceeds the dense cap {MAX_DIM}")
        return UnitaryEnsemble(dd, np.eye(dd, dtype=np.complex128)[None, :, :], "identity_only")
    raise ConfigError(f"unknown builtin ensemble {name!r}")


def tensor_product(a: UnitaryEnsemble, b: UnitaryEnsemble) -> UnitaryEnsemble:
    """All s_a * s_b pairwise Kronecker products; uniform weights stay uniform."""
    sa, d1, _ = a.unitaries.shape
    sb, d2, _ = b.unitaries.shape
    stack = np.einsum("iab,jcd->ijacbd", a.unitaries, b.unitaries).reshape(sa * sb, d1 * d2, d1 * d2)
    return UnitaryEnsemble(d1 * d2, stack, f"{a.label}(x){b.label}", tensor_factors=(a, b))


def save_ensemble(e: UnitaryEnsemble, path) -> None:
    """JSON format: {"d": int, "label": str, "unitaries": [[[ [re,im] x d ] x d ] x s]}."""
    unitaries = [
        [[[float(x.real), float(x.imag)] for x in row] for row in u]
        for u in e.unitaries
    ]
    doc = {"d": e.dim, "label": e.label, "unitaries": unitaries}
    Path(path).write_text(json.dumps(doc))


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
        d = int(doc["d"])
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
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed ensemble file: {exc}") from exc
    return UnitaryEnsemble(d, np.array(mats), label)


def _kron_pow(u: np.ndarray, t: int) -> np.ndarray:
    out = u
    for _ in range(t - 1):
        out = np.kron(out, u)
    return out


def _cycle_count(perm: tuple) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def _permutation_operator(d: int, t: int, perm: tuple) -> np.ndarray:
    """Operator permuting the t tensor factors of (C^d)^{tensor t}."""
    dim = d**t
    idx = np.arange(dim)
    digits = np.array(np.unravel_index(idx, (d,) * t))  # (t, dim)
    inv = [0] * t
    for i, p in enumerate(perm):
        inv[p] = i
    permuted = np.ravel_multi_index(tuple(digits[inv[j]] for j in range(t)), (d,) * t)
    op = np.zeros((dim, dim), dtype=np.complex128)
    op[permuted, idx] = 1.0
    return op


@dataclass(frozen=True)
class HaarTwirlProjector:
    """HS-orthogonal projector onto span{P_pi}; equals the Haar t-copy twirl."""

    dim: int
    tensor_power: int
    permutation_basis: np.ndarray  # (t!, d^t, d^t)
    gram_inverse: np.ndarray  # (t!, t!)

    def apply(self, m: np.ndarray) -> np.ndarray:
        overlaps = np.array([np.vdot(p, m) for p in self.permutation_basis])
        coeffs = self.gram_inverse @ overlaps
        return np.tensordot(coeffs, self.permutation_basis, axes=1)

    def dense(self) -> np.ndarray:
        dim2 = self.permutation_basis.shape[1] ** 2
        pmat = self.permutation_basis.reshape(-1, dim2).T  # columns vec(P_pi)
        return pmat @ self.gram_inverse @ pmat.conj().T


def haar_twirl_projector(d: int, t: int) -> HaarTwirlProjector:
    if t < 1:
        raise ParameterError(f"tensor power t must be >= 1, got {t}")
    if t > TWIRL_T_CAP:
        raise CapacityError(f"t = {t} exceeds the twirl cap t <= {TWIRL_T_CAP}")
    need = math.factorial(t) * d ** (2 * t) * 16
    if need > TWIRL_BASIS_CAP:
        raise CapacityError(
            f"the t = {t} twirl basis at d = {d} needs {need / 2**20:.0f} MiB of permutation"
            f" operators, over the {TWIRL_BASIS_CAP >> 20} MiB cap"
        )
    perms = list(itertools.permutations(range(t)))
    basis = np.empty((len(perms), d**t, d**t), dtype=np.complex128)
    for i, p in enumerate(perms):
        basis[i] = _permutation_operator(d, t, p)
    inv = []
    for p in perms:
        q = [0] * t
        for i, v in enumerate(p):
            q[v] = i
        inv.append(tuple(q))
    gram = np.empty((len(perms), len(perms)))
    for i, pi_inv in enumerate(inv):
        for j, sg in enumerate(perms):
            comp = tuple(pi_inv[sg[x]] for x in range(t))
            gram[i, j] = float(d) ** _cycle_count(comp)
    gram_inv = np.linalg.pinv(gram, rcond=1e-10)
    return HaarTwirlProjector(d, t, basis, gram_inv)


class MomentOperator:
    """The t-copy averaging superoperator M -> (1/s) sum_i U_i^{t} M (U_i^dag)^{t}.

    Matrix-free: a tensor product of two plain ensembles applies its factors'
    dense superoperators, and every other ensemble loops over its unitaries.
    """

    def __init__(self, ensemble: UnitaryEnsemble, t: int):
        self.ensemble = ensemble
        self.tensor_power = t
        self.dim = ensemble.dim
        self._factor_superops = self._build_factor_superops()

    def _build_factor_superops(self):
        factors = self.ensemble.tensor_factors
        if factors is None:
            return None
        t = self.tensor_power
        supers = []
        for f in factors:
            if f.dim ** (2 * t) > DENSE_CAP or f.tensor_factors is not None:
                return None
            supers.append(_dense_superop(f, t))
        return tuple(supers)

    def apply(self, m: np.ndarray) -> np.ndarray:
        return self._apply(m, adjoint=False)

    def apply_adjoint(self, m: np.ndarray) -> np.ndarray:
        return self._apply(m, adjoint=True)

    def _apply(self, m: np.ndarray, adjoint: bool) -> np.ndarray:
        if self._factor_superops is not None:
            return self._apply_factored(m, adjoint)
        out = np.zeros_like(m, dtype=np.complex128)
        for u in self.ensemble.unitaries:
            w = _kron_pow(u, self.tensor_power)
            if adjoint:
                out += dagger(w) @ m @ w
            else:
                out += w @ m @ dagger(w)
        return out / self.ensemble.size

    def _apply_factored(self, m: np.ndarray, adjoint: bool) -> np.ndarray:
        t = self.tensor_power
        f1, f2 = self.ensemble.tensor_factors
        d1, d2 = f1.dim, f2.dim
        s1, s2 = self._factor_superops
        if adjoint:
            s1 = dagger(s1)
            s2 = dagger(s2)
        da, db = d1**t, d2**t
        # regroup copy-major digits (a1,b1,...,at,bt) into factor-major (a..., b...)
        x = m.reshape([d1, d2] * t + [d1, d2] * t)
        order = (
            list(range(0, 2 * t, 2))
            + list(range(1, 2 * t, 2))
            + list(range(2 * t, 4 * t, 2))
            + list(range(2 * t + 1, 4 * t, 2))
        )
        x = x.transpose(order).reshape(da, db, da, db)
        # rows become vec of the first factor's (ket, bra), columns the second's
        x = x.transpose(0, 2, 1, 3).reshape(da * da, db * db)
        y = s1 @ x @ s2.T
        y = y.reshape(da, da, db, db).transpose(0, 2, 1, 3)
        y = y.reshape([d1] * t + [d2] * t + [d1] * t + [d2] * t)
        inv_order = np.argsort(order)
        return y.transpose(inv_order).reshape(m.shape)


def _dense_superop(e: UnitaryEnsemble, t: int) -> np.ndarray:
    stack = np.array([_kron_pow(u, t) for u in e.unitaries])
    big = stack.shape[1]
    return np.einsum("sab,scd->acbd", stack, stack.conj()).reshape(big * big, big * big) / e.size


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


def design_epsilon_from_lambda(lambda2: float, d: int) -> float:
    """Certified approximate-2-design epsilon from a 2-copy lambda: lambda * d^4."""
    if not 0 <= lambda2 < math.inf:  # also refuses NaN
        raise ParameterError(f"lambda must be a finite number >= 0, got {lambda2}")
    return float(lambda2) * d**4


def tpe_lambda(e: UnitaryEnsemble, t: int) -> DesignCheck:
    """Largest singular value of (G - HaarTwirl) at tensor power t.

    Dense SVD up to DENSE_CAP rows, power iteration on a MomentOperator above.
    """
    proj = haar_twirl_projector(e.dim, t)
    eps = lambda lam: design_epsilon_from_lambda(lam, e.dim)
    if e.dim ** (2 * t) <= DENSE_CAP:
        lam = schatten_norm(_dense_superop(e, t) - proj.dense(), np.inf)
        return DesignCheck(t, lam, "dense-svd", eps(lam), eps(lam) > 2)
    lam, iters, resid = _power_iteration_lambda(MomentOperator(e, t), proj)
    return DesignCheck(t, lam, "power-iteration", eps(lam), eps(lam) > 2, iters, resid)


def _power_iteration_lambda(g: MomentOperator, proj: HaarTwirlProjector):
    """sigma_max of A = G - Twirl via power iteration on A^dag A over matrices."""
    big = g.dim**g.tensor_power
    rng = np.random.Generator(np.random.Philox(_POWER_ITER_SEED))
    v = rng.standard_normal((big, big)) + 1j * rng.standard_normal((big, big))
    v /= np.linalg.norm(v)
    apply_a = lambda m: g.apply(m) - proj.apply(m)
    apply_at = lambda m: g.apply_adjoint(m) - proj.apply(m)
    tol, max_iter = _POWER_ITER_TOL, _POWER_ITER_MAX
    sigma_sq = 0.0
    for it in range(1, max_iter + 1):
        w = apply_a(v)
        z = apply_at(w)
        sigma_sq = float(np.linalg.norm(w)) ** 2
        resid = float(np.linalg.norm(z - sigma_sq * v))
        nz = np.linalg.norm(z)
        if nz < 1e-30:
            return 0.0, it, resid
        v = z / nz
        if resid <= tol:
            return math.sqrt(sigma_sq), it, resid
    raise ConvergenceError(
        f"power iteration did not reach tolerance {tol} in {max_iter} iterations",
        residual=resid,
    )
