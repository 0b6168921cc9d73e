"""Preset noise channels with oracle-exact average fidelities.

Each preset stores the exact Haar-average fidelity computed from its Kraus
operators at construction; where an independent closed form is known it is
checked against that value, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, NumericalError, ParameterError
from .quantum import KrausChannel, exact_average_fidelity

_CLOSED_FORM_TOL = 1e-9


@dataclass(frozen=True)
class NoiseModel:
    kind: str
    params: tuple
    dim: int
    channel: KrausChannel
    exact_fidelity: float
    spec: str  # canonical one-string form, parse_channel_spec round-trips it

    def __post_init__(self):
        closed = _closed_form(self.kind, self.params, self.dim)
        if closed is not None and abs(closed - self.exact_fidelity) > _CLOSED_FORM_TOL:
            raise NumericalError(
                f"{self.spec}: closed form {closed} disagrees with oracle {self.exact_fidelity}"
            )


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


def _weyl_operators(d: int) -> list:
    """Shift/clock unitaries X^a Z^b; traceless except (a, b) = (0, 0)."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    ops = []
    xa = np.eye(d, dtype=np.complex128)
    for _ in range(d):
        zb = np.eye(d, dtype=np.complex128)
        for _ in range(d):
            ops.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return ops


def _depolarizing_kraus(p: float, d: int) -> tuple:
    # scaled in place: at d = 64 the d^2 operators take 268 MB
    ops = _weyl_operators(d)
    ops[0] *= math.sqrt(1.0 - p + p / d**2)
    if p == 0:
        return (ops[0],)
    for w in ops[1:]:
        w *= math.sqrt(p) / d
    return tuple(ops)


def _dephasing_kraus(p: float, d: int) -> tuple:
    kraus = [math.sqrt(1.0 - p) * np.eye(d, dtype=np.complex128)]
    if p > 0:
        for j in range(d):
            proj = np.zeros((d, d), dtype=np.complex128)
            proj[j, j] = math.sqrt(p)
            kraus.append(proj)
    return tuple(kraus)


_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
}


def _over_rotation_unitary(axis: str, angle: float, d: int) -> np.ndarray:
    if axis == "z":
        return np.diag(np.exp(1j * angle * np.arange(d)))
    if axis in _SIGMA:
        if d != 2:
            raise ParameterError(f"axis {axis!r} over-rotation is qubit-only, got d={d}")
        return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * _SIGMA[axis]
    raise ParameterError(f"unknown rotation axis {axis!r}")


def _check_prob(p, name):
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"{name} must be in [0, 1], got {p}")


def noise_preset(kind: str, params=(), d: int = 2) -> NoiseModel:
    """Build a preset channel; F-bar is recorded from the Kraus oracle."""
    params = tuple(params)
    if d < 1:
        raise DimensionError(f"dimension must be >= 1, got d={d}")
    if kind == "identity":
        ch = KrausChannel((np.eye(d, dtype=np.complex128),))
        spec = "identity"
    elif kind == "depolarizing":
        (p,) = params
        _check_prob(p, "depolarizing p")
        ch = KrausChannel(_depolarizing_kraus(float(p), d))
        spec = f"depolarizing:{float(p):g}"
    elif kind == "dephasing":
        (p,) = params
        _check_prob(p, "dephasing p")
        ch = KrausChannel(_dephasing_kraus(float(p), d))
        spec = f"dephasing:{float(p):g}"
    elif kind == "over_rotation":
        axis, angle = params
        ch = KrausChannel((_over_rotation_unitary(str(axis), float(angle), d),))
        spec = f"over_rotation:{axis},{float(angle):g}"
    elif kind == "amplitude_damping":
        (g,) = params
        _check_prob(g, "damping gamma")
        if d != 2:
            raise ParameterError(f"amplitude damping is qubit-only, got d={d}")
        a0 = np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=np.complex128)
        a1 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=np.complex128)
        ch = KrausChannel((a0, a1) if g > 0 else (a0,))
        spec = f"amplitude_damping:{float(g):g}"
    else:
        raise ConfigError(f"unknown channel kind {kind!r}")
    return NoiseModel(kind, params, d, ch, exact_average_fidelity(ch), spec)


def _reduce_kraus(ops, d: int) -> tuple:
    """Canonical Kraus set (at most d^2 operators) via the Choi eigendecomposition."""
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    for a in ops:
        v = a.reshape(-1)
        choi += np.outer(v, v.conj())
    w, vecs = np.linalg.eigh(choi)
    kraus = []
    for lam, vec in zip(w, vecs.T):
        if lam > 1e-12:
            kraus.append(math.sqrt(lam) * vec.reshape(d, d))
    return tuple(kraus)


def compose_channels(models: list) -> NoiseModel:
    """Composite channel applying the listed channels first-to-last."""
    if not models:
        raise ParameterError("composition needs at least one channel")
    if len({m.dim for m in models}) != 1:
        raise ParameterError("composed channels must share one dimension")
    d = models[0].dim
    ops = [np.eye(d, dtype=np.complex128)]
    for m in models:
        ops = [a @ b for a in m.channel.kraus_ops for b in ops]
    if len(ops) > d * d:
        ops = _reduce_kraus(ops, d)
    ch = KrausChannel(tuple(ops))
    spec = "+".join(m.spec for m in models)
    return NoiseModel("composed", tuple(models), d, ch, exact_average_fidelity(ch), spec)


def parse_channel_spec(text: str, d: int) -> NoiseModel:
    """Mini-grammar: kind[:param[,param]], composed with '+'.

    Examples: "depolarizing:0.2", "depolarizing:0.1+over_rotation:z,0.2".
    """
    parts = [p.strip() for p in text.split("+") if p.strip()]
    if not parts:
        raise FormatError(f"empty channel spec {text!r}")
    models = []
    for part in parts:
        kind, _, arg = part.partition(":")
        kind = kind.strip()
        try:
            if kind == "identity":
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
