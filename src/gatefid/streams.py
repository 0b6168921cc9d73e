"""Counter-based random streams with exact bit accounting.

Estimators draw all sampling randomness through a BitSource, whose total is
what the randomness ledger must match. It keeps its bits as the generator's
64-bit words and hands a span out as those words' bytes, so a bit costs a
byte only where a caller asks for it unpacked. Measurement outcomes come
from a separate stream and are never counted: they model physical quantum
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
    """Buffered bit stream over a Philox generator, counting bits handed out.

    The buffer holds the generator's 64-bit words as drawn and a bit offset
    into the first of them. Stream bit j is bit 63 - j % 64 of word j // 64,
    so a packed draw is its span's words written big-endian, a bit draw
    unpacks those bytes most significant bit first, and a gaussian draw
    reads the 64-bit uniforms of the pairs it transforms as strided views
    of the words (at an unaligned offset, two adjacent words joined by
    shifts); a pair it skips is drawn and counted but never transformed.
    Every draw takes its span from _span, which draws exactly the words it
    is short of, keeps at most the one partly read word and counts the span
    in total_bits. Philox is counter-based: how many words
    are drawn at a time does not change the stream.
    """

    def __init__(self, master_seed: int):
        self._gen = _generator(master_seed, "classical")
        self._words = np.zeros(0, dtype=np.uint64)
        self._offset = 0  # bits of _words[0] already handed out
        self.total_bits = 0

    def _span(self, count: int) -> tuple:
        """The words that hold the next `count` bits, and the first bit's offset in them."""
        if count < 0:
            raise ParameterError("cannot take a negative number of bits")
        offset, end = self._offset, self._offset + count
        short = -(-end // 64) - len(self._words)  # >= 0: at most one word is held
        fresh = self._gen.integers(0, 2**64, size=short, dtype=np.uint64)
        span = np.concatenate([self._words, fresh]) if len(self._words) else fresh
        self._words = span[end // 64 :].copy()  # the partly read word, if any
        self._offset = end % 64
        self.total_bits += count
        return span, offset

    def take_packed(self, count: int) -> tuple:
        """The next `count` bits, MSB first, as uint8 bytes and the offset of the first bit in them.

        The bytes are the span's words big-endian, written in one copy and followed by 8 zero
        bytes, so an 8-byte window read at any byte of the span stays inside them.
        """
        words, offset = self._span(count)
        packed = np.zeros(8 * len(words) + 8, np.uint8)
        packed[:-8].view(">u8")[:] = words
        return packed, offset

    def take_bits(self, count: int) -> np.ndarray:
        """The next `count` bits as a 0/1 uint8 array."""
        packed, offset = self.take_packed(count)
        return np.unpackbits(packed, count=offset + count)[offset:]

    def take_gaussians(self, count: int, step: int = 1) -> np.ndarray:
        """take_gaussians(count)[::step], standard normals via Box-Muller from
        exactly 64 bits per uniform; count is even and step divides count // 2.

        A draw returns the cosine halves of its pairs, then the sine halves,
        so every step-th normal is the cosine or the sine of every step-th
        pair: only those pairs' uniforms are read and transformed. All
        64 * count bits are drawn and counted whatever the step.
        """
        if count % 2:
            raise ParameterError("gaussian draws come in pairs; count must be even")
        if step < 1 or (count // 2) % step:
            raise ParameterError(f"step must be >= 1 and divide the {count // 2} pairs, got {step}")
        words, offset = self._span(64 * count)

        def pairs(w):  # the (radius, angle) words of every step-th pair, a strided view
            return w[:count].reshape(count // 2, 2)[::step]

        read = pairs(words)
        if offset:
            read = (read << np.uint64(offset)) | (pairs(words[1:]) >> np.uint64(64 - offset))
        u = read.astype(np.float64)
        u += 0.5
        u *= 2.0**-64
        radius = np.log(u[:, 0])
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle = u[:, 1] * (2.0 * math.pi)
        out = np.empty(2 * len(angle))
        cos, sin = out[: len(angle)], out[len(angle) :]
        np.cos(angle, out=cos)
        cos *= radius
        np.sin(angle, out=sin)
        sin *= radius
        return out
