"""Counter-based random streams with exact bit accounting.

Estimators draw all sampling randomness through a BitSource, whose total is
what the randomness ledger must match. Measurement outcomes come from a
separate stream and are never counted: they model physical quantum
randomness, not classical coin flips.
"""

from __future__ import annotations

import math
import secrets

import numpy as np

from .errors import ParameterError

STREAM_IDS = {"classical": 1, "measurement": 2, "harness": 3}


def _generator(master_seed: int, stream: str, unit: int = 0) -> np.random.Generator:
    if master_seed < 0:
        raise ParameterError("seeds must be nonnegative integers")
    if stream not in STREAM_IDS:
        raise ParameterError(f"unknown stream {stream!r}")
    seq = np.random.SeedSequence(master_seed, spawn_key=(STREAM_IDS[stream], unit))
    return np.random.Generator(np.random.Philox(seq))


def measurement_rng(master_seed: int) -> np.random.Generator:
    """The uncounted stream used only for simulated measurement outcomes."""
    return _generator(master_seed, "measurement")


def split_seed(master_seed: int, index: int) -> int:
    """Deterministic child seed for parallel units; independent of schedule."""
    state = np.random.SeedSequence(master_seed, spawn_key=(index,)).generate_state(4, np.uint64)
    return int(sum(int(w) << (64 * i) for i, w in enumerate(state)))


def fresh_seed() -> int:
    """OS-entropy convenience seed; callers must log it for reproducibility."""
    return secrets.randbits(128)


class BitSource:
    """Buffered bit stream over a Philox generator, counting bits handed out."""

    def __init__(self, master_seed: int):
        self._gen = _generator(master_seed, "classical")
        self._buffer = np.zeros(0, dtype=np.uint8)
        self.total_bits = 0

    def take_bits(self, count: int) -> np.ndarray:
        if count < 0:
            raise ParameterError("cannot take a negative number of bits")
        while len(self._buffer) < count:
            words = self._gen.integers(0, 2**64, size=max(64, count // 64 + 1), dtype=np.uint64)
            new = np.unpackbits(words.astype(">u8").view(np.uint8))
            self._buffer = np.concatenate([self._buffer, new])
        out, self._buffer = self._buffer[:count], self._buffer[count:]
        self.total_bits += count
        return out

    def take_gaussians(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller; exactly 64 bits per uniform, count even."""
        if count % 2:
            raise ParameterError("gaussian draws come in pairs; count must be even")
        bits = self.take_bits(64 * count)
        packed = np.packbits(bits).view(">u8").astype(np.uint64)
        u = (packed.astype(np.float64) + 0.5) * 2.0**-64
        u1, u2 = u[0::2], u[1::2]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * math.pi * u2
        return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
