import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatefid.errors import ParameterError
from gatefid.streams import BitSource, _generator, fresh_seed, measurement_rng, split_seed


class ReferenceBitSource:
    """The per-bit reference: one uint8 per bit, grown by concatenation, with
    each gaussian's 64-bit uniform packed back from its bits."""

    def __init__(self, master_seed: int):
        self._gen = _generator(master_seed, "classical")
        self._buffer = np.zeros(0, dtype=np.uint8)
        self.total_bits = 0

    def take_bits(self, count: int) -> np.ndarray:
        while len(self._buffer) < count:
            words = self._gen.integers(0, 2**64, size=max(64, count // 64 + 1), dtype=np.uint64)
            new = np.unpackbits(words.astype(">u8").view(np.uint8))
            self._buffer = np.concatenate([self._buffer, new])
        out, self._buffer = self._buffer[:count], self._buffer[count:]
        self.total_bits += count
        return out

    def take_gaussians(self, count: int) -> np.ndarray:
        return box_muller(self.take_bits(64 * count))


def box_muller(bits):
    """Gaussian pairs from MSB-first 64-bit uniforms, as BitSource forms them."""
    packed = np.packbits(bits).view(">u8").astype(np.uint64)
    u = (packed.astype(np.float64) + 0.5) * 2.0**-64
    u1, u2 = u[0::2], u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])


def assert_same_draws(seed, draws):
    """Word-level and reference sources agree exactly on a sequence of draws."""
    fast, slow = BitSource(seed), ReferenceBitSource(seed)
    for kind, c in draws:
        if kind == "bits":
            got, want = fast.take_bits(c), slow.take_bits(c)
        else:
            got, want = fast.take_gaussians(2 * c), slow.take_gaussians(2 * c)
        assert got.dtype == want.dtype and np.array_equal(got, want), (kind, c)
        assert fast.total_bits == slow.total_bits


DRAWS = st.lists(
    st.tuples(
        st.sampled_from(["bits", "gaussians"]),
        # mostly small, sometimes past a whole 4096-bit refill (or several)
        st.one_of(st.integers(0, 70), st.integers(0, 40_000)),
    ),
    max_size=12,
)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**64), draws=DRAWS)
    def test_interleaved_draws(self, seed, draws):
        assert_same_draws(seed, draws)

    @pytest.mark.parametrize("offset", [0, 1, 7, 8, 9, 63, 64, 65, 4095, 4096, 4097])
    @pytest.mark.parametrize("pairs", [0, 1, 32, 33, 3000])
    def test_gaussians_at_every_kind_of_offset(self, offset, pairs):
        # aligned and unaligned offsets, at and across a refill's end
        assert_same_draws(offset, [("bits", offset), ("gaussians", pairs), ("bits", 130), ("gaussians", 1)])

    def test_draws_that_cross_refills(self):
        # the reference refills max(64, count // 64 + 1) words at a time and
        # the source draws only the words it is short of; these leave partial
        # words behind and cross the reference's refills mid-draw
        assert_same_draws(3, [("bits", 4095), ("bits", 2), ("gaussians", 40), ("bits", 9000),
                              ("gaussians", 0), ("bits", 0), ("gaussians", 2000), ("bits", 1)])


class TestExactLengthDraws:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**64), draws=DRAWS)
    def test_one_word_held_and_one_stream_read(self, seed, draws):
        src = BitSource(seed)
        outs = []
        for kind, c in draws:
            outs.append((kind, src.take_bits(c) if kind == "bits" else src.take_gaussians(2 * c)))
            assert len(src._words) <= 1  # at most the partly read word
        # the generator gave exactly the words the draws spanned
        words = -(-src.total_bits // 64)
        whole = _generator(seed, "classical").integers(0, 2**64, size=words + 1, dtype=np.uint64)
        assert src._gen.integers(0, 2**64, size=1, dtype=np.uint64)[0] == whole[words]
        stream = np.unpackbits(whole[:words].astype(">u8").view(np.uint8))
        pos = 0
        for kind, out in outs:
            span = len(out) if kind == "bits" else 64 * len(out)
            want = stream[pos : pos + span]
            assert np.array_equal(out, want if kind == "bits" else box_muller(want))
            pos += span


class TestStridedGaussians:
    """take_gaussians(count, step) is take_gaussians(count)[::step] byte for byte,
    and it draws and counts the same words."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        before=st.sampled_from([0, 5, 64, 70, 128]),
        step=st.integers(1, 9),
        blocks=st.integers(0, 60),
        after=st.integers(0, 200),
    )
    def test_equals_every_step_th_of_the_full_draw(self, seed, before, step, blocks, after):
        count = 2 * step * blocks
        full, strided = BitSource(seed), BitSource(seed)
        assert np.array_equal(full.take_bits(before), strided.take_bits(before))
        want = full.take_gaussians(count)[::step]
        got = strided.take_gaussians(count, step)
        assert got.tobytes() == want.tobytes()
        assert strided.total_bits == full.total_bits == before + 64 * count
        assert np.array_equal(strided.take_bits(after), full.take_bits(after))
        assert strided.take_gaussians(4).tobytes() == full.take_gaussians(4).tobytes()

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_naive_haar_column_zero(self, d):
        # the Ginibre layout naive-haar reads: every d-th normal is column 0
        n, count = 37, 37 * 2 * d * d
        whole = BitSource(3).take_gaussians(count).reshape(n, 2, d, d)[..., 0]
        assert np.array_equal(BitSource(3).take_gaussians(count, d).reshape(n, 2, d), whole)

    @pytest.mark.parametrize("count,step", [(8, 0), (8, -1), (8, 3), (12, 4), (2, 2)])
    def test_step_must_divide_the_pairs(self, count, step):
        src = BitSource(5)
        with pytest.raises(ParameterError, match="step"):
            src.take_gaussians(count, step)
        assert src.total_bits == 0


class TestBitSource:
    def test_deterministic(self):
        a = BitSource(42).take_bits(1000)
        b = BitSource(42).take_bits(1000)
        assert np.array_equal(a, b)

    def test_sequence_of_takes_matches_one_take(self):
        src = BitSource(42)
        parts = np.concatenate([src.take_bits(7), src.take_bits(993)])
        whole = BitSource(42).take_bits(1000)
        assert np.array_equal(parts, whole)

    def test_counts_bits_exactly(self):
        src = BitSource(1)
        src.take_bits(5)
        src.take_bits(0)
        src.take_bits(123)
        assert src.total_bits == 128

    def test_streams_are_distinct(self):
        # the same seed's measurement words, unpacked as BitSource unpacks its own
        a = BitSource(7).take_bits(256)
        words = measurement_rng(7).integers(0, 2**64, size=4, dtype=np.uint64)
        b = np.unpackbits(words.astype(">u8").view(np.uint8))
        assert not np.array_equal(a, b)

    def test_bits_look_unbiased(self):
        bits = BitSource(99).take_bits(200_000)
        assert abs(float(bits.mean()) - 0.5) < 0.005

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterError):
            BitSource(1).take_bits(-1)

    def test_gaussians_counted_and_shaped(self):
        src = BitSource(5)
        g = src.take_gaussians(10_000)
        assert src.total_bits == 64 * 10_000
        assert abs(float(g.mean())) < 0.05
        assert abs(float(g.std()) - 1.0) < 0.05

    def test_gaussians_require_even_count(self):
        with pytest.raises(ParameterError):
            BitSource(5).take_gaussians(3)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError):
            BitSource(-1)


class TestSeedPlumbing:
    def test_split_seed_deterministic_and_distinct(self):
        a = split_seed(123, 0)
        b = split_seed(123, 1)
        assert a == split_seed(123, 0)
        assert a != b
        assert a >= 0

    def test_measurement_rng_deterministic(self):
        x = measurement_rng(5).random(10)
        y = measurement_rng(5).random(10)
        assert np.array_equal(x, y)

    def test_fresh_seed_varies(self):
        assert fresh_seed() != fresh_seed()
