import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gatefid import (
    GF2mField,
    RandomnessLedger,
    generate_tape,
    kwise_seed_length,
    sample_indices,
    sampling_seed_length,
    tape_seed_length,
)
from gatefid.errors import CapacityError, ParameterError, ValidationError
from gatefid import prg
from gatefid.estimators import plan_kwise_design, plan_two_phase
from gatefid.prg import (
    IRREDUCIBLE_TABLE,
    _tape_bits,
    _exhaustive_irreducible,
    _rabin_irreducible,
    indices_from_bits,
    irreducible_modulus,
    tape_field_degree,
)
from gatefid.streams import BitSource, split_seed


class TestField:
    def test_characteristic_two(self):
        gf = GF2mField(3)
        for a in range(8):
            assert gf.add(a, a) == 0

    def test_gf8_product_by_hand(self):
        # x * x^2 = x^3 = x + 1 under x^3 + x + 1
        gf = GF2mField(3, 0b1011)
        assert gf.mul(0b010, 0b100) == 0b011

    def test_multiplicative_group_order(self):
        gf = GF2mField(3)
        assert gf.pow(0b010, 7) == 1
        for a in range(1, 8):
            assert gf.pow(a, 7) == 1

    def test_field_axioms_random(self, rng):
        gf = GF2mField(11)
        vals = rng.integers(0, 1 << 11, size=(30, 3))
        for a, b, c in vals:
            a, b, c = int(a), int(b), int(c)
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.mul(a, gf.mul(b, c)) == gf.mul(gf.mul(a, b), c)
            assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
            if a:
                assert gf.mul(a, gf.pow(a, (1 << 11) - 2)) == 1

    def test_table_entries_are_irreducible(self):
        for m in (1, 2, 3, 8, 16, 20):
            assert _exhaustive_irreducible(IRREDUCIBLE_TABLE[m])
        for m in (33, 48, 64):
            assert _rabin_irreducible(IRREDUCIBLE_TABLE[m])

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValidationError):
            GF2mField(4, 0b10001)  # x^4 + 1 = (x + 1)^4 over GF(2)

    def test_search_beyond_table(self):
        f = irreducible_modulus(80)
        assert f.bit_length() - 1 == 80
        assert _rabin_irreducible(f)

    def test_mul_t_consistent_with_mul(self):
        gf = GF2mField(9)
        for a in (0, 1, 5, 0b101101011):
            assert gf.mul_t(a) == gf.mul(a, 0b10)


class TestSeedLengths:
    def test_kwise_pinned_values(self):
        assert kwise_seed_length(16, 2**16, 2.0**-20) == 68
        assert kwise_seed_length(4, 16, 2.0**-10) == 30
        assert kwise_seed_length(2, 4, 0.5) == 6

    def test_kwise_requires_k_at_least_2(self):
        with pytest.raises(ParameterError):
            kwise_seed_length(1, 4, 0.5)

    def test_sampling_pinned_values(self):
        # eps^2 n = 1, two-element set, theta = 1/4
        assert sampling_seed_length(0.1, 100, 2, 0.25) == 8
        assert sampling_seed_length(0.05, 6400, 24, 2.0**-16) == 326

    def test_sampling_singleton_set(self):
        assert sampling_seed_length(0.1, 100, 1, 0.25) == 4  # only 2 log2(1/theta)

    def test_implemented_vs_textbook_ratio(self):
        # the design allows implemented r <= 4 * textbook r + 64
        for k, n, theta_log2 in [
            (4 * 13, 400 * 13, -30.0),
            (507, 276393, -252.84),
            (12, 5200, -40.0),
        ]:
            r_impl = tape_seed_length(k, n, theta_log2=theta_log2)
            r_text = kwise_seed_length(k, n, theta_log2=theta_log2)
            assert r_impl <= 4 * r_text + 64


class TestGenerateTape:
    def test_zero_x_gives_zero_tape(self):
        m = tape_field_degree(4, 16, 0.25)
        seed = [0] * m + [1] * m
        tape = generate_tape(4, 16, 0.25, seed)
        assert not tape.bits.any()

    def test_zero_y_gives_zero_tape(self):
        m = tape_field_degree(4, 16, 0.25)
        seed = [1] * m + [0] * m
        tape = generate_tape(4, 16, 0.25, seed)
        assert not tape.bits.any()

    def test_wrong_seed_length(self):
        with pytest.raises(ParameterError):
            generate_tape(4, 16, 0.25, [0, 1, 0])

    def test_local_decodability_small(self):
        m = tape_field_degree(4, 16, 0.25)
        tape = generate_tape(4, 16, 0.25, BitSource(5).take_bits(2 * m))
        for i in range(16):
            assert tape.bit(i) == tape.bits[i]

    def test_local_decodability_long(self):
        m = tape_field_degree(10, 40_000, 0.01)
        tape = generate_tape(10, 40_000, 0.01, BitSource(9).take_bits(2 * m))
        rng = np.random.default_rng(0)
        for i in rng.integers(0, 40_000, size=60):
            assert tape.bit(int(i)) == tape.bits[int(i)]

    def test_deterministic(self):
        m = tape_field_degree(6, 200, 0.1)
        seed = BitSource(3).take_bits(2 * m)
        a = generate_tape(6, 200, 0.1, seed)
        b = generate_tape(6, 200, 0.1, list(seed))
        assert np.array_equal(a.bits, b.bits)
        assert a.seed_bits == b.seed_bits and a.r == 2 * m

    def test_seed_bits_recorded_exactly(self):
        m = tape_field_degree(4, 32, 0.25)
        seed = BitSource(11).take_bits(2 * m)
        tape = generate_tape(4, 32, 0.25, seed)
        assert len(tape.seed_bits) == tape.r == 2 * m


def tape_of_degree(m, n, seed_bits, k=2):
    """A generated tape over GF(2^m): theta chosen so the planned degree is m."""
    theta_log2 = -(m - 1 - k / 2 - math.log2(n)) + 0.5
    assert tape_field_degree(k, n, theta_log2=theta_log2) == m
    return generate_tape(k, n, None, seed_bits, theta_log2=theta_log2)


def x_one_seed(m, y=0b1011):
    return [1] + [0] * (m - 1) + [(y >> j) & 1 for j in range(m)]


def assert_matches_local_decoder(tape, positions=None, bits=None):
    bits = tape.bits if bits is None else bits
    positions = sorted(set(range(len(bits)) if positions is None else positions))
    assert bits[positions].tolist() == [tape.bit(i) for i in positions]


def boundary_positions(n):
    """0-indexed positions next to the B boundary and the 64-row strides."""
    block = math.isqrt(n) + 1
    exps = {1, 2, n - 1, n}
    for e in (63, 64, 65, block - 1, block, block + 1):
        exps.add(e)
    for i in (1, 63, 64, 65):
        for r in (-1, 0, 1, 63, 64, 65, block - 1):
            exps.add(i * block + r)
    return [e - 1 for e in exps if 1 <= e <= n]


class TestTapeAgainstLocalDecoder:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 4099])
    def test_every_position(self, n):
        # a tape needs n >= k >= 2; bit e does not depend on n, so n = 1 is a
        # one-bit expansion of the n = 2 tape's seed
        tape = tape_of_degree(20, max(n, 2), BitSource(n).take_bits(40))
        assert_matches_local_decoder(tape, bits=_tape_bits(tape.gf, tape.x, tape.y, n))

    @pytest.mark.parametrize("m", [65, 128, 129])
    def test_multiword_field_every_position(self, m):
        assert_matches_local_decoder(tape_of_degree(m, 300, BitSource(m).take_bits(2 * m)))

    @pytest.mark.parametrize("n", [2, 65, 4099])
    def test_x_one(self, n):
        # every power of x = 1 is 1, so every bit is the low bit of y
        tape = tape_of_degree(24, n, x_one_seed(24))
        assert tape.bits.all()
        assert_matches_local_decoder(tape, boundary_positions(n))

    @pytest.mark.parametrize("n", [4224, 4225, 4290, 8000])
    def test_shapes_straddling_strides(self, n):
        # B = isqrt(n) + 1 and Q = n // B + 1 land on both sides of 64 and 65
        tape = tape_of_degree(24, n, BitSource(n + 1).take_bits(48))
        assert_matches_local_decoder(tape)

    def test_column_blocks(self, monkeypatch):
        # shrink the block so B = 90 columns split into 64 + 26
        monkeypatch.setattr(prg, "_BLOCK_BYTES", 4 * 24 * 64)
        tape = tape_of_degree(24, 8000, BitSource(8001).take_bits(48))
        assert_matches_local_decoder(tape)

    @pytest.mark.parametrize("m", [65, 129])
    def test_multiword_field_straddling_strides(self, m):
        tape = tape_of_degree(m, 4225, BitSource(m + 1).take_bits(2 * m))
        assert_matches_local_decoder(tape, boundary_positions(4225))

    def test_kwise_contract_plan_sampled(self):
        plan = plan_kwise_design(0.05, 0.1, 24)
        assert (plan.field_degree, plan.n_bits) == (526, 276393)
        tape = generate_tape(plan.k_bits, plan.n_bits, None, BitSource(7).take_bits(plan.r),
                             theta_log2=plan.theta_log2)
        rng = np.random.default_rng(3)
        sampled = rng.integers(0, plan.n_bits, size=24).tolist()
        assert_matches_local_decoder(tape, sampled + boundary_positions(plan.n_bits)[::4])


def tape_digest(tape):
    return hashlib.sha256(tape.bits.tobytes()).hexdigest()


class TestPinnedTapes:
    """SHA-256 of the tape bits: any change to a seed's stream must show here."""

    def test_kwise_acceptance_first_op(self):
        plan = plan_kwise_design(0.05, 0.1, 24)
        seed_bits = BitSource(split_seed(0xACC6, 0)).take_bits(plan.r)
        tape = generate_tape(plan.k_bits, plan.n_bits, None, seed_bits, theta_log2=plan.theta_log2)
        assert tape_digest(tape) == (
            "3e009ebd312160967030ac1092ca6dc8d927a876e6600ba49111d2f5012284e7"
        )

    def test_two_phase_tape(self):
        plan = plan_two_phase(0.2, 0.3, 2, 24)
        source = BitSource(0x2A)
        source.take_bits(plan.r_phase1)
        w2 = plan.width_phase2
        tape = generate_tape(plan.k * w2, plan.n * w2, None, source.take_bits(plan.r_phase2),
                             theta_log2=plan.theta_log2)
        assert (tape.gf.m, tape.n) == (212, 38870)
        assert tape_digest(tape) == (
            "8ece48c31394481b396b0fcdafe12423c1e486a8bd2a4d17481db016e6ca2134"
        )


class TestTapeCapacity:
    def test_float32_exactness_bound(self):
        # product entries are counts <= m, exact in float32 only below 2^24
        with pytest.raises(CapacityError):
            _tape_bits(SimpleNamespace(m=1 << 24), 3, 5, 4)

    def test_high_confidence_plan(self):
        # delta = 1e-10 plans a field ten times wider than the contract point;
        # the products are blocked, so memory stays far below one m x m
        # float32 matrix (119 MB here) and no working-set limit applies
        plan = plan_kwise_design(0.05, 1e-10, 24)
        assert (plan.field_degree, plan.n_bits) == (5460, 2763852)
        GF2mField(plan.field_degree)  # the modulus search is not measured
        tracemalloc.start()
        try:
            tape = generate_tape(plan.k_bits, plan.n_bits, None, BitSource(9).take_bits(plan.r),
                                 theta_log2=plan.theta_log2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tape.bits.shape == (plan.n_bits,)
        assert peak < 40 * 2**20
        rng = np.random.default_rng(5)
        sampled = rng.integers(0, plan.n_bits, size=4).tolist()
        assert_matches_local_decoder(tape, sampled + boundary_positions(plan.n_bits)[::8])


class TestSampleIndices:
    def test_singleton_set_consumes_nothing(self):
        m = tape_field_degree(4, 16, 0.25)
        tape = generate_tape(4, 16, 0.25, BitSource(5).take_bits(2 * m))
        draw = sample_indices(tape, 1, 10)
        assert draw.bits_consumed == 0 and not draw.indices.any()

    def test_power_of_two_direct_binary(self):
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
        draw = indices_from_bits(bits, 4, 4)
        assert draw.indices.tolist() == [0, 1, 2, 3]
        assert draw.width == 2 and draw.nonuniformity == 0.0

    def test_non_power_of_two_padded_width(self):
        draw = indices_from_bits(np.zeros(130, dtype=np.uint8), 24, 10)
        assert draw.width == 13
        assert draw.nonuniformity == 24 / 2**13 <= 2**-8

    def test_exhaustion_raises(self):
        with pytest.raises(CapacityError):
            indices_from_bits(np.zeros(10, dtype=np.uint8), 4, 6)

    def test_chi_square_uniformity_over_24(self):
        n = 1_000_000
        bits = BitSource(77).take_bits(n * 13)
        draw = indices_from_bits(bits, 24, n)
        counts = np.bincount(draw.indices, minlength=24)
        sigma = math.sqrt(n * (1 / 24) * (1 - 1 / 24))
        assert np.max(np.abs(counts - n / 24)) <= 5 * sigma + n * draw.nonuniformity


class TestChernoffSanity:
    def test_fully_independent_tail(self):
        # true-random bits: deviation probability within the 2 exp(-eps^2 n/3) bound
        n, eps, reps = 500, 0.08, 2000
        bits = BitSource(123).take_bits(n * reps).reshape(reps, n)
        means = bits.mean(axis=1)
        emp = float(np.mean(np.abs(means - 0.5) > eps))
        bound = 2 * math.exp(-(eps**2) * n / 3)
        slack = 3 * math.sqrt(emp * (1 - emp) / reps) + 3 / reps
        assert emp <= min(bound, 1.0) + slack

    def test_kwise_tape_tail(self):
        # generated tape at k = ceil(e^(-1/3) eps^2 n): limited-independence bound
        n, eps, theta = 512, 0.25, 0.125
        k = math.ceil(math.exp(-1 / 3) * eps**2 * n)
        m = tape_field_degree(max(k, 2), n, theta)
        reps = 400
        src = BitSource(2024)
        devs = []
        for _ in range(reps):
            tape = generate_tape(max(k, 2), n, theta, src.take_bits(2 * m))
            devs.append(abs(float(tape.bits.mean()) - 0.5) > eps)
        emp = float(np.mean(devs))
        bound = math.exp(-k / 2) + theta * (n / eps) ** k
        slack = 3 * math.sqrt(emp * (1 - emp) / reps) + 3 / reps
        assert emp <= min(bound, 1.0) + slack


class TestLedger:
    def test_empty_total(self):
        assert RandomnessLedger().total == 0

    def test_sum(self):
        led = RandomnessLedger()
        led.record("a", 10)
        led.record("b", 32)
        assert led.total == 42
        assert led.as_dicts() == [{"label": "a", "bits": 10}, {"label": "b", "bits": 32}]

    def test_merge(self):
        a = RandomnessLedger()
        a.record("x", 1)
        b = RandomnessLedger()
        b.record("y", 2)
        a.merge(b)
        assert a.total == 3

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            RandomnessLedger().record("bad", -1)
