import numpy as np
import pytest

from gatefid.errors import ParameterError
from gatefid.streams import BitSource, fresh_seed, measurement_rng, split_seed


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
