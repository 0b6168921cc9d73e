"""Preset noise channels with oracle-exact average fidelities.

Every preset and composition is a KrausChannel carrying its spec string and
the exact Haar-average fidelity computed from its Kraus operators; where an
independent closed form is known, noise_preset checks it against that value,
never assumes it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    FormatError,
    NumericalError,
    ParameterError,
)
from .quantum import RUN_MEMORY_CAP, KrausChannel, check_dense_dim, choi_matrix

_CLOSED_FORM_TOL = 1e-9
# Parameters each preset kind takes.
_ARITY = {"identity": 0, "depolarizing": 1, "dephasing": 1, "over_rotation": 2, "amplitude_damping": 1}


def _closed_form(kind, params, d):
    if kind == "identity":
        return 1.0
    if kind == "depolarizing":
        (p,) = params
        return 1.0 - p + p / d
    if kind == "amplitude_damping":
        (g,) = params
        return ((1.0 + math.sqrt(1.0 - g)) ** 2 + 2.0) / 6.0
    return None


def _weyl_operators(d: int) -> np.ndarray:
    """Shift/clock unitaries X^a Z^b stacked at index a d + b, shape (d^2, d, d).

    Z^b comes from b clock products, as rounded by the matrix product. X^a
    shifts its rows down by a, so X^a Z^b holds Z^b's diagonal entry j at
    row (j + a) mod d, column j; each is placed there by index. All are
    traceless except (a, b) = (0, 0).
    """
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(d))
    diagonals = np.empty((d, d), dtype=np.complex128)
    zb = np.eye(d, dtype=np.complex128)
    for b in range(d):
        diagonals[b] = np.diagonal(zb)
        zb = zb @ clock
    ops = np.zeros((d, d, d, d), dtype=np.complex128)
    a, j = np.indices((d, d))
    # ops[a, :, (j + a) % d, j] = diagonals[:, j]; advanced indices first, b last
    ops[a, :, (j + a) % d, j] = diagonals.T[j]
    return ops.reshape(d * d, d, d)


def _read_only(ops: np.ndarray) -> np.ndarray:
    """ops with its write flag cleared, and that of every array it views: a stack built
    here, which KrausChannel keeps without a copy."""
    a = ops
    while isinstance(a, np.ndarray):
        a.flags.writeable = False
        a = a.base
    return ops


def _depolarizing_kraus(p: float, d: int) -> np.ndarray:
    # scaled in place: at d = 64 the d^2 operators take 268 MB
    ops = _weyl_operators(d)
    ops[0] *= math.sqrt(1.0 - p + p / d**2)
    if p == 0:
        return _read_only(ops[:1].copy())
    ops[1:] *= math.sqrt(p) / d
    return _read_only(ops)


def _dephasing_kraus(p: float, d: int) -> np.ndarray:
    if d == 1:
        # the only projector is the identity, so the channel is the identity
        return _read_only(np.eye(1, dtype=np.complex128)[None])
    kraus = np.zeros((d + 1 if p > 0 else 1, d, d), dtype=np.complex128)
    kraus[0] = math.sqrt(1.0 - p) * np.eye(d, dtype=np.complex128)
    if p > 0:
        j = np.arange(d)
        kraus[1 + j, j, j] = math.sqrt(p)
    return _read_only(kraus)


_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
}


def _over_rotation_unitary(axis: str, angle: float, d: int) -> np.ndarray:
    if axis == "z":
        return np.diag(np.exp(1j * angle * np.arange(d)))
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * _SIGMA[axis]


def _check_prob(p, name):
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"{name} must be in [0, 1], got {p}")


def noise_preset(kind: str, params=(), d: int = 2) -> KrausChannel:
    """Build a preset channel; F-bar is recorded from the Kraus oracle.

    Parameters are checked first, their count for every kind (ParameterError),
    and the dimension cap next, so that no operator is allocated for a refused d.
    """
    params = tuple(params)
    if d < 1:
        raise DimensionError(f"dimension must be >= 1, got d={d}")
    if kind not in _ARITY:
        raise ConfigError(f"unknown channel kind {kind!r}")
    if len(params) != _ARITY[kind]:
        raise ParameterError(f"{kind} takes {_ARITY[kind]} parameter(s), got {len(params)}")
    if kind == "identity":
        spec, build = "identity", lambda: (np.eye(d, dtype=np.complex128),)
    elif kind in ("depolarizing", "dephasing"):
        (p,) = params
        _check_prob(p, f"{kind} p")
        kraus = _depolarizing_kraus if kind == "depolarizing" else _dephasing_kraus
        spec, build = f"{kind}:{float(p):g}", lambda: kraus(float(p), d)
    elif kind == "over_rotation":
        axis, angle = params
        axis, angle = str(axis), float(angle)
        if not math.isfinite(angle):
            raise ParameterError(f"over-rotation angle must be finite, got {angle}")
        if axis not in ("z", *_SIGMA):
            raise ParameterError(f"unknown rotation axis {axis!r}")
        if axis != "z" and d != 2:
            raise ParameterError(f"axis {axis!r} over-rotation is qubit-only, got d={d}")
        spec = f"over_rotation:{axis},{angle:g}"
        build = lambda: (_over_rotation_unitary(axis, angle, d),)
    else:  # amplitude_damping
        (g,) = params
        _check_prob(g, "damping gamma")
        if d != 2:
            raise ParameterError(f"amplitude damping is qubit-only, got d={d}")
        a0 = np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=np.complex128)
        a1 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=np.complex128)
        spec, build = f"amplitude_damping:{float(g):g}", lambda: (a0, a1) if g > 0 else (a0,)
    check_dense_dim(d)
    ch = KrausChannel(build(), spec)
    closed = _closed_form(kind, params, d)
    if closed is not None and abs(closed - ch.exact_fidelity) > _CLOSED_FORM_TOL:
        raise NumericalError(
            f"{spec}: closed form {closed} disagrees with oracle {ch.exact_fidelity}"
        )
    return ch


def _reduce_kraus(ops: np.ndarray, d: int) -> np.ndarray:
    """Canonical Kraus set (at most d^2 operators) via the Choi eigendecomposition."""
    w, vecs = np.linalg.eigh(choi_matrix(ops))
    keep = w > 1e-12
    return (vecs.T[keep] * np.sqrt(w[keep])[:, None]).reshape(-1, d, d)


def compose_channels(models: list) -> KrausChannel:
    """Composite channel applying the listed channels first-to-last.

    Every Kraus product is built, into one (K, d, d) stack, before the set is
    reduced, so a step whose products would pass RUN_MEMORY_CAP bytes is
    refused with CapacityError before it is built.
    """
    if not models:
        raise ParameterError("composition needs at least one channel")
    if len({m.dim for m in models}) != 1:
        raise ParameterError("composed channels must share one dimension")
    d = models[0].dim
    ops = np.eye(d, dtype=np.complex128)[None]
    for m in models:
        need = len(ops) * len(m.kraus_ops) * d * d * 16
        if need > RUN_MEMORY_CAP:
            raise CapacityError(
                f"composing {len(ops)} by {len(m.kraus_ops)} Kraus operators at d = {d} needs"
                f" {need / 2**20:.0f} MiB of products, over the {RUN_MEMORY_CAP >> 20} MiB cap"
            )
        # product (k, l) is A_k B_l, at index k len(ops) + l
        ops = np.matmul(m.kraus_ops[:, None], ops[None]).reshape(-1, d, d)
    if len(ops) > d * d:
        ops = _reduce_kraus(ops, d)
    return KrausChannel(_read_only(ops), "+".join(m.spec for m in models))


def parse_channel_spec(text: str, d: int) -> KrausChannel:
    """Mini-grammar: kind[:param[,param]], composed with '+'; identity takes no parameter.

    Examples: "depolarizing:0.2", "depolarizing:0.1+over_rotation:z,0.2".
    """
    parts = [p.strip() for p in text.split("+") if p.strip()]
    if not parts:
        raise FormatError(f"empty channel spec {text!r}")
    models = []
    for part in parts:
        kind, sep, arg = part.partition(":")
        kind = kind.strip()
        try:
            if kind == "identity":
                if sep:
                    raise ValueError("identity takes no parameter")
                models.append(noise_preset("identity", (), d))
            elif kind in ("depolarizing", "dephasing", "amplitude_damping"):
                models.append(noise_preset(kind, (float(arg),), d))
            elif kind == "over_rotation":
                axis, _, angle = arg.partition(",")
                models.append(noise_preset(kind, (axis.strip(), float(angle)), d))
            else:
                raise ConfigError(f"unknown channel kind {kind!r}")
        except ValueError as exc:
            raise FormatError(f"bad parameters in channel spec {part!r}: {exc}") from exc
    return models[0] if len(models) == 1 else compose_channels(models)
