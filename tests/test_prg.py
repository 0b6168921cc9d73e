import ast
import concurrent.futures
import functools
import hashlib
import inspect
import itertools
import math
import sys
import textwrap
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatefid import (
    GF2mField,
    KwisePlan,
    RandomnessLedger,
    generate_tape,
)
from gatefid.errors import CapacityError, ParameterError, ValidationError
from gatefid import prg
from gatefid.estimators import plan_kwise_design, plan_two_phase
from gatefid.prg import (
    IRREDUCIBLE_TABLE,
    MAX_INDEX_WIDTH,
    _has_small_factor,
    _rabin_irreducible,
    _search_modulus,
    _swan_reducible,
    _tape_bits,
    index_width,
    indices_from_bits,
    indices_from_packed,
    irreducible_modulus,
    theta_log2_of,
)
from gatefid.streams import BitSource, split_seed


def _exhaustive_irreducible(f: int) -> bool:
    """Slow reference: f of degree m >= 1 has no divisor of degree 1 to m/2."""
    m = f.bit_length() - 1
    return m >= 1 and all(prg._polymod(f, g) for g in range(2, 1 << (m // 2 + 1)))


def _unfiltered_search(m: int) -> int:
    """Reference search: the same candidate order, Rabin's test on every one."""
    trinomials = ((1 << m) | (1 << a) | 1 for a in range(1, m))
    pentanomials = (
        (1 << m) | (1 << c) | (1 << b) | (1 << a) | 1
        for c in range(3, m) for b in range(2, c) for a in range(1, b)
    )
    return next(f for f in itertools.chain(trinomials, pentanomials) if _rabin_irreducible(f))


class TestField:
    def test_characteristic_two(self):
        # addition is XOR, so squaring is additive: (a + b)^2 = a^2 + b^2
        gf = GF2mField(3)
        for a, b in itertools.product(range(8), repeat=2):
            assert gf.mul(a ^ b, a ^ b) == gf.mul(a, a) ^ gf.mul(b, b)

    def test_gf8_product_by_hand(self):
        # x * x^2 = x^3 = x + 1 under x^3 + x + 1
        gf = GF2mField(3)
        assert gf.modulus == 0b1011
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
            assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)
            if a:
                assert gf.mul(a, gf.pow(a, (1 << 11) - 2)) == 1

    def test_table_entries_are_irreducible(self):
        assert all(_rabin_irreducible(f) for f in IRREDUCIBLE_TABLE.values())
        assert all(_exhaustive_irreducible(IRREDUCIBLE_TABLE[m]) for m in range(1, 25))

    def test_reducible_modulus_rejected(self, monkeypatch):
        assert not _rabin_irreducible(0b10001)  # x^4 + 1 = (x + 1)^4 over GF(2)
        # a table entry is checked on first use, so a bad one refuses the field
        monkeypatch.setitem(IRREDUCIBLE_TABLE, 4, 0b10001)
        irreducible_modulus.cache_clear()
        try:
            with pytest.raises(ValidationError):
                GF2mField(4)
        finally:
            irreducible_modulus.cache_clear()

    def test_search_beyond_table(self):
        f = irreducible_modulus(80)
        assert f.bit_length() - 1 == 80 and 80 not in IRREDUCIBLE_TABLE
        assert _rabin_irreducible(f)

    def test_mul_t_consistent_with_mul(self):
        gf = GF2mField(9)
        for a in (0, 1, 5, 0b101101011):
            assert gf.mul_t(a) == gf.mul(a, 0b10)


class TestModuli:
    def test_rabin_matches_divisor_scan(self):
        # every polynomial of degree <= 10; at degree 1 Rabin's test must
        # compare with x mod f, which is 1 for x + 1
        polys = range(2, 1 << 11)
        assert [_rabin_irreducible(f) for f in polys] == [_exhaustive_irreducible(f) for f in polys]
        assert _rabin_irreducible(0b11) and GF2mField(1).modulus == 0b11

    def test_search_rederives_table(self):
        for m in IRREDUCIBLE_TABLE:
            if 2 <= m <= 700:
                assert _search_modulus(m) == IRREDUCIBLE_TABLE[m], m

    def test_search_matches_unfiltered_reference(self):
        # every degree class mod 8 up to 200; the reference alone takes ~7 s
        for m in range(65, 201):
            assert _search_modulus(m) == _unfiltered_search(m), m

    def test_swan_skips_only_reducible_trinomials(self):
        # the search would reject every skipped trinomial anyway: each has a
        # small factor (sound by the next test) or fails Rabin's test
        skipped = ((1 << m) | (1 << a) | 1 for m in range(2, 301) for a in range(1, m) if _swan_reducible(m, a))
        assert not any(not _has_small_factor(f) and _rabin_irreducible(f) for f in skipped)
        # every degree 0 mod 8 has no trinomial left to test
        assert all(_swan_reducible(m, a) for m in (8, 64, 2000) for a in range(1, m))

    def test_small_factor_precheck_only_rejects_reducible(self):
        rejected = [f for f in range(2, 1 << 11) if _has_small_factor(f)]
        assert rejected and not any(_exhaustive_irreducible(f) for f in rejected)
        # a factor of degree 3 is found; one of degree 13 is beyond the check
        assert _has_small_factor(prg._clmul(0b1011, IRREDUCIBLE_TABLE[64]))
        assert not _has_small_factor(prg._clmul(IRREDUCIBLE_TABLE[13], IRREDUCIBLE_TABLE[64]))


# Each plan that takes theta_log2, built at a valid (n, k, width) point: a raw bit
# tape and an index draw.
THETA_LOG2_TAKERS = {
    "KwisePlan(width=1)": lambda t: KwisePlan(4, 2, 1, t),
    "KwisePlan(width=3)": lambda t: KwisePlan(4, 2, 3, t),
}


class TestThetaLog2:
    @pytest.mark.parametrize("theta_log2", [math.nan, math.inf, -math.inf, 0.0, 0.5])
    @pytest.mark.parametrize("name", sorted(THETA_LOG2_TAKERS))
    def test_refused(self, name, theta_log2):
        with pytest.raises(ParameterError, match="theta_log2 must be finite and negative"):
            THETA_LOG2_TAKERS[name](theta_log2)

    def test_float_theta_converts_at_the_boundary(self):
        assert theta_log2_of(0.25) == -2.0
        assert theta_log2_of(0.01) == math.log2(0.01)

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_float_theta_outside_unit_interval(self, theta):
        with pytest.raises(ParameterError, match=r"theta must be in \(0, 1\), got"):
            theta_log2_of(theta)

    def test_plan_below_float_range(self):
        # the theta this plan asks for underflows to 0.0; its log2 sizes the field
        plan = plan_kwise_design(0.05, 1e-12, 24)
        assert 2.0**plan.theta_log2 == 0.0
        w = plan.width
        bit_level = KwisePlan(plan.n * w, plan.k * w, 1, plan.theta_log2)
        assert bit_level.field_degree == plan.field_degree == 6594


class TestFieldDegreeDomain:
    def test_k_at_least_2_and_at_most_n(self):
        with pytest.raises(ParameterError, match="k must be >= 2"):
            KwisePlan(4, 1, 1, -1.0)
        with pytest.raises(ParameterError, match="need k <= n"):
            KwisePlan(4, 5, 1, -1.0)

    def test_width_at_least_1(self):
        with pytest.raises(ParameterError, match="width must be >= 1"):
            KwisePlan(4, 2, 0, -1.0)


# Raw bit tapes of 16 and 32 bits at k = 4, theta = 1/4.
PLAN_16 = KwisePlan(16, 4, 1, -2.0)
PLAN_32 = KwisePlan(32, 4, 1, -2.0)


class TestGenerateTape:
    def test_zero_x_gives_zero_tape(self):
        m = PLAN_16.field_degree
        seed = [0] * m + [1] * m
        tape = generate_tape(PLAN_16, seed)
        assert not tape.bits.any()

    def test_zero_y_gives_zero_tape(self):
        m = PLAN_16.field_degree
        seed = [1] * m + [0] * m
        tape = generate_tape(PLAN_16, seed)
        assert not tape.bits.any()

    @pytest.mark.parametrize("m", [1, 2, 9, 64, 65, 130])
    def test_zero_x_y_or_length_through_the_general_path(self, m):
        gf, full = GF2mField(m), (0x5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A % (1 << m)) | 1
        for x, y, n in [(0, full, 300), (full, 0, 300), (full, full, 0)]:
            packed = _tape_bits(gf, x, y, n)
            assert packed.dtype == np.uint8 and packed.shape == (-(-n // 8) + 8,)
            assert not packed.any() and not packed.flags.writeable

    def test_wrong_seed_length(self):
        with pytest.raises(ParameterError):
            generate_tape(PLAN_16, [0, 1, 0])

    @pytest.mark.parametrize("n,size", [(9, 2), (40, 5), (700, 24), (333, 2**57)])
    def test_packed_is_the_bits_msb_first(self, n, size):
        # the bytes the tape is computed as are its bits packed MSB first, zero past n w,
        # then 8 zero bytes; they decode to the indices the bit array does
        plan = KwisePlan(n, 2, index_width(size), -3.0)
        tape = generate_tape(plan, BitSource(n).take_bits(plan.r))
        nbytes = -(-tape.n // 8)
        assert tape.packed.shape == (nbytes + 8,) and not tape.packed.flags.writeable
        assert np.array_equal(tape.packed[:nbytes], np.packbits(tape.bits))
        assert not tape.packed[nbytes:].any()
        got = indices_from_packed(tape.packed, 0, size, n)
        assert np.array_equal(got, indices_from_bits(tape.bits, size, n).indices)

    def test_local_decodability_small(self):
        tape = generate_tape(PLAN_16, BitSource(5).take_bits(PLAN_16.r))
        for i in range(16):
            assert tape.bit(i) == tape.bits[i]

    def test_local_decodability_long(self):
        plan = KwisePlan(40_000, 10, 1, math.log2(0.01))
        tape = generate_tape(plan, BitSource(9).take_bits(plan.r))
        rng = np.random.default_rng(0)
        for i in rng.integers(0, 40_000, size=60):
            assert tape.bit(int(i)) == tape.bits[int(i)]

    def test_deterministic(self):
        plan = KwisePlan(200, 6, 1, math.log2(0.1))
        seed = BitSource(3).take_bits(plan.r)
        a = generate_tape(plan, seed)
        b = generate_tape(plan, list(seed))
        assert np.array_equal(a.bits, b.bits)
        assert a.seed_bits == b.seed_bits and a.r == 2 * plan.field_degree

    def test_seed_bits_recorded_exactly(self):
        seed = BitSource(11).take_bits(PLAN_32.r)
        tape = generate_tape(PLAN_32, seed)
        assert len(tape.seed_bits) == tape.r == 2 * PLAN_32.field_degree

    def test_tape_holds_its_plan(self):
        plan = KwisePlan(40, 4, 3, -10.0)
        tape = generate_tape(plan, BitSource(5).take_bits(plan.r))
        assert tape.plan is plan and tape.n == len(tape.bits) == 120
        assert tape.gf.m == plan.field_degree

    @pytest.mark.parametrize(
        "form",
        [list, tuple, iter, np.array, lambda b: np.array(b, np.uint8), lambda b: np.array(b, bool),
         lambda b: [float(v) for v in b], lambda b: [str(v) for v in b]],
        ids=["list", "tuple", "iterator", "int64", "uint8", "bool", "float", "str"],
    )
    def test_seed_forms_read_alike(self, form):
        # every form reads entry b as int(b) & 1, with bit j of x seed bit j
        # and bit j of y seed bit m + j, as the per-bit sums did
        m = PLAN_32.field_degree
        seed = BitSource(11).take_bits(2 * m).tolist()
        want = tuple(seed)
        x = sum(b << j for j, b in enumerate(want[:m]))
        y = sum(b << j for j, b in enumerate(want[m:]))
        tape = generate_tape(PLAN_32, form(seed))
        assert (tape.x, tape.y, tape.seed_bits) == (x, y, want)
        assert all(type(b) is int for b in tape.seed_bits)

    @pytest.mark.parametrize(
        "form",
        [list, lambda b: np.array(b, np.int64), lambda b: np.array(b, np.uint8), lambda b: [v << 70 | v for v in b]],
        ids=["list", "int64", "uint8", "past-64-bits"],
    )
    def test_seed_entries_above_1_read_their_low_bit(self, form):
        seed = BitSource(12).take_bits(PLAN_32.r).tolist()
        high = [2 * j + b for j, b in enumerate(seed)]  # low bit b, every entry but the first above 1
        tape = generate_tape(PLAN_32, form(high))
        assert tape.seed_bits == tuple(seed)
        assert np.array_equal(tape.bits, generate_tape(PLAN_32, seed).bits)


@pytest.fixture
def fresh_tape_cache():
    """Empty the per-degree cache before and after: the test's first tape builds the
    squaring tables, and no tables built under a patched block size outlive it."""
    prg._degree.cache_clear()
    yield
    prg._degree.cache_clear()


def tape_of_degree(m, n, seed_bits, k=2):
    """A generated tape over GF(2^m): theta chosen so the planned degree is m."""
    theta_log2 = -(m - 1 - k / 2 - math.log2(n)) + 0.5
    plan = KwisePlan(n, k, 1, theta_log2)
    assert plan.field_degree == m
    return generate_tape(plan, seed_bits)


def x_one_seed(m, y=0b1011):
    return [1] + [0] * (m - 1) + [(y >> j) & 1 for j in range(m)]


def assert_matches_local_decoder(tape, positions=None, bits=None):
    bits = tape.bits if bits is None else bits
    positions = sorted(set(range(len(bits)) if positions is None else positions))
    assert bits[positions].tolist() == [tape.bit(i) for i in positions]


def tape_layout(n):
    """(B, Q) of an n-bit tape: Q rows of B = 2^b bits, b as _tape_bits picks it."""
    b = prg._row_log2(n)
    return 1 << b, -(-n >> b)


def boundary_positions(n):
    """0-indexed positions next to the B boundary and the 64-row strides."""
    block, _ = tape_layout(n)
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
        packed = _tape_bits(tape.gf, tape.x, tape.y, n)
        assert_matches_local_decoder(tape, bits=np.unpackbits(packed, count=n))

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 200), n=st.integers(1, 5000), data=st.data())
    def test_sampled_positions_of_any_shape(self, m, n, data):
        # any field element pair at any degree and length, including degrees
        # no plan reaches; the plan sets only the reference tape's length
        x, y = (data.draw(st.integers(0, (1 << m) - 1), label=name) for name in "xy")
        gf = GF2mField(m)
        packed = _tape_bits(gf, x, y, n)
        assert len(packed) == -(-n // 8) + 8 and not np.unpackbits(packed)[n:].any()
        positions = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=16), label="positions")
        tape = prg.BiasedTape(KwisePlan(max(n, 2), 2, 1, -1.0), (), gf, x, y)
        assert_matches_local_decoder(tape, positions + [n - 1], np.unpackbits(packed, count=n))

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
        # B = 64, one word, and Q = 66, 67, 68 and 125 rows: past one 64-row gather
        tape = tape_of_degree(24, n, BitSource(n + 1).take_bits(48))
        assert_matches_local_decoder(tape)

    @pytest.mark.parametrize(
        "n,shape",
        [(2**12 - 1, (64, 64)), (64 * 65, (64, 65)), (64 * 65 + 1, (64, 66)),
         (2**13, (64, 128)), (64 * 129, (64, 129)), (64 * 129 + 1, (128, 65))],
    )
    def test_shapes_around_powers_of_two(self, n, shape):
        # B = 2^b and the chain has max(B + 1, Q) rows: B + 1 > Q at 2^12 - 1,
        # square at 64 * 65, then Q > B + 1; up to 64 * 129 both B = 64 and
        # B = 128 give a 129-row chain and the smaller B is taken; then B + 1 > Q
        assert tape_layout(n) == shape
        tape = tape_of_degree(24, n, BitSource(n + 2).take_bits(48))
        assert_matches_local_decoder(tape)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9, 63, 64, 65, 4000, 276_393, 10**6])
    def test_layout_minimises_the_chain(self, n):
        # the one chain runs to x^max(B, Q - 1): no other power of two B >= 8
        # gives a shorter one, and no smaller one as short a one
        block, rows = tape_layout(n)
        assert block >= 8 and block * rows >= n and rows == -(-n // block)
        chain = max(block + 1, rows)
        for b in range(3, 40):
            other = max((1 << b) + 1, -(-n >> b))
            assert other > chain if 1 << b < block else other >= chain
        assert chain <= max(9, 2 * math.isqrt(n) + 2)

    @pytest.mark.parametrize("n,m", [(4000, 24), (4099, 24), (276_393, 65)])
    def test_last_left_rows_are_powers(self, monkeypatch, n, m):
        # V_Q is the left factor of the tape's last product: row i must be x^i,
        # here with B > Q (n = 4000) and Q > B (the other two)
        left = []
        product = prg._gf2_product

        def recorded(a, tables):
            left.append(a.copy())
            return product(a, tables)

        monkeypatch.setattr(prg, "_gf2_product", recorded)
        gf = GF2mField(m)
        x = int.from_bytes(np.random.default_rng(n).bytes(-(-m // 8)), "little") % (1 << m) | 1 << (m - 1)
        _tape_bits(gf, x, 0b1011, n)
        block, rows = tape_layout(n)
        reference = byte_comb_powers(gf, x, rows - 1)
        got = [int.from_bytes(row.tobytes(), "little") for row in left[-1]]
        assert got == reference and len(got) == rows

    def test_column_blocks(self, monkeypatch, fresh_tape_cache):
        # a 256-byte block splits every table into one-chunk blocks: B = 256
        # columns are four words and each m-row table several blocks; Q = 274
        # rows take five 64-row gathers, and G is packed a few rows at a time.
        # Every bit is checked against the tape's definition, <x^e, y> for
        # e = 1..n, along a byte-comb chain. A fresh cache, so the squaring
        # tables split too
        monkeypatch.setattr(prg, "_BLOCK_BYTES", 256)
        n = 70_000
        block, rows = tape_layout(n)
        assert (block, rows) == (256, 274)
        near_gather_steps = [i * block + r - 1 for i in (255, 256, 257) for r in (-1, 0, 1, block - 1)]
        for m in (24, 65):
            tables = prg._XorTables(np.zeros((m, block // 64), prg._WORD))
            assert tables.chunks == 1 and len(tables.starts) == -(-m // 8) > 1
            tape = tape_of_degree(m, n, BitSource(n + m).take_bits(2 * m))
            want = [(xe & tape.y).bit_count() & 1 for xe in byte_comb_powers(tape.gf, tape.x, n)[1:]]
            assert tape.bits.tolist() == want, m
            sampled = np.random.default_rng(m).integers(0, n, size=200).tolist()
            assert_matches_local_decoder(tape, boundary_positions(n) + near_gather_steps + sampled)
        # the smaller split tape, every position through the local decoder
        assert_matches_local_decoder(tape_of_degree(24, 8000, BitSource(8001).take_bits(48)))

    @pytest.mark.parametrize("m", [65, 129])
    def test_multiword_field_straddling_strides(self, m):
        tape = tape_of_degree(m, 4225, BitSource(m + 1).take_bits(2 * m))
        assert_matches_local_decoder(tape, boundary_positions(4225))

    def test_kwise_contract_plan_sampled(self):
        plan = plan_kwise_design(0.05, 0.1, 24)
        n_bits = plan.n * plan.width
        assert (plan.field_degree, n_bits) == (526, 276393)
        tape = generate_tape(plan, BitSource(7).take_bits(plan.r))
        rng = np.random.default_rng(3)
        sampled = rng.integers(0, n_bits, size=24).tolist()
        assert_matches_local_decoder(tape, sampled + boundary_positions(n_bits)[::4])


def packed_bits(bits):
    """Packed word rows of a 0/1 matrix."""
    out = np.zeros((len(bits), 8 * -(-bits.shape[1] // 64)), np.uint8)
    out[:, : -(-bits.shape[1] // 8)] = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return out.view(prg._WORD)


def unpacked_bits(words, cols):
    return np.unpackbits(words.view(np.uint8), axis=1, count=cols, bitorder="little")


def reference_transposed(rows, nbits):
    """Slow reference for prg._transposed: every bit unpacked to a byte and packed again."""
    out = np.zeros((nbits, 8 * -(-len(rows) // 64)), np.uint8)
    bits = np.unpackbits(rows.view(np.uint8), axis=1, count=nbits, bitorder="little")
    packed = np.packbits(bits, axis=0, bitorder="little")
    out[:, : len(packed)] = packed.T
    return out.view(prg._WORD)


class TestTransposeAgainstReference:
    @pytest.mark.parametrize("block_bytes", [None, 256])
    @pytest.mark.parametrize("nbits", [1, 63, 64, 65, 526, 1052])
    @pytest.mark.parametrize("rows", [1, 7, 8, 9, 63, 64, 65, 527])
    def test_matches_unpack_and_repack(self, monkeypatch, rng, rows, nbits, block_bytes):
        # at 256 bytes the rows go in blocks of 8 (one 8 x 8 block per byte
        # column); the bits past nbits in each row are random and must be ignored
        if block_bytes is not None:
            monkeypatch.setattr(prg, "_BLOCK_BYTES", block_bytes)
        words = rng.integers(0, 2**64, size=(rows, -(-nbits // 64)), dtype=np.uint64).astype(prg._WORD)
        got = prg._transposed(words, nbits)
        assert got.dtype == prg._WORD and np.array_equal(got, reference_transposed(words, nbits))


@functools.cache
def reference_stride_hankel(m, block, ys):
    """Row j of G is sum_l <t^(j block + l), y> 2^l, from Python ints, for each y in ys:
    t^(j block) is the last row's start times t^block, and t^(j block + l) its l-th mul_t.
    Cached, as both block sizes of a test compare with it."""
    gf, words = GF2mField(m), -(-m // 64)
    step, start = gf.pow(2, block), 1
    rows = {y: [] for y in ys}
    for _ in range(m):
        for y in ys:
            rows[y].append(sum(((z & y).bit_count() & 1) << l for l, z in enumerate(prg._times_t(gf, start, m))))
        start = gf.mul(start, step)
    return {y: prg._packed(r, words) for y, r in rows.items()}


class TestStrideHankelAgainstReference:
    @pytest.mark.parametrize("block_bytes", [None, 256])
    @pytest.mark.parametrize("block", [8, 64, 512, 2048])
    @pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 526])
    def test_matches_python_int_rows(self, monkeypatch, rng, m, block, block_bytes):
        # B < m makes G's rows overlap in the parity sequence, and B > m skips
        # parities between them; at 256 bytes the windows are packed a few
        # rows (one at m = 526) at a time
        if block_bytes is not None:
            monkeypatch.setattr(prg, "_BLOCK_BYTES", block_bytes)
        gf = GF2mField(m)
        full = (1 << m) - 1
        ys = tuple(sorted({0, 1, full, 1 << (m - 1), int.from_bytes(rng.bytes(-(-m // 8)), "little") & full}))
        want = reference_stride_hankel(m, block, ys)
        for y in ys:
            got = prg._stride_hankel(gf, y, block)
            assert got.dtype == prg._WORD and np.array_equal(got, want[y]), (m, block, y)


class TestParities:
    @pytest.mark.parametrize("m", [526, 931, 80])
    def test_recurrence_matches_masked_powers(self, rng, m):
        # a trinomial, a pentanomial from the table and a searched pentanomial:
        # lengths from y's bits alone to many Frobenius steps, every one a
        # prefix of the same sequence
        gf = GF2mField(m)
        if m == 80:
            assert m not in IRREDUCIBLE_TABLE and gf.modulus == _search_modulus(80)
        assert len(prg._low_taps(gf.modulus)) == (2 if m == 526 else 4)
        full = (1 << m) - 1
        powers = prg._times_t(gf, 1, 40 * m)
        for y in (0, 1, full, int.from_bytes(rng.bytes(-(-m // 8)), "little") & full):
            want = [(z & y).bit_count() & 1 for z in powers]
            for length in (m, m + 1, 2 * m - 1, 3 * m + 5, 40 * m):
                got = prg._parities(gf, y, length)
                assert got.dtype == np.uint8 and got.tolist() == want[:length], (m, y, length)


PRODUCT_SIZES = [1, 7, 8, 9, 63, 64, 65, 130]


class TestPackedProduct:
    @pytest.mark.parametrize("block_bytes", [None, 256])
    @pytest.mark.parametrize("inner", PRODUCT_SIZES)
    def test_matches_integer_product(self, monkeypatch, rng, inner, block_bytes):
        # at 256 bytes every table block is one chunk, so the chunks of a
        # table split; gathers split every 64 rows
        if block_bytes is not None:
            monkeypatch.setattr(prg, "_BLOCK_BYTES", block_bytes)
        for rows, cols in itertools.product(PRODUCT_SIZES, repeat=2):
            a = rng.integers(0, 2, size=(rows, inner))
            b = rng.integers(0, 2, size=(inner, cols))
            tables = prg._XorTables(packed_bits(b))
            want = (a.astype(int) @ b) % 2
            # twice through the same tables: the kept first block and the rebuilt rest
            for _ in range(2):
                got = prg._gf2_product(packed_bits(a), tables)
                assert np.array_equal(unpacked_bits(got, cols), want), (rows, inner, cols)

    @pytest.mark.parametrize("rows", [63, 64, 65, 255, 256, 257, 513])
    def test_gathers_split_past_256_rows(self, rng, rows):
        # gathers take _GATHER_ROWS = 64 rows at a time; these straddle 64- and 256-row steps
        a = rng.integers(0, 2, size=(rows, 65))
        b = rng.integers(0, 2, size=(65, 9))
        got = prg._gf2_product(packed_bits(a), prg._XorTables(packed_bits(b)))
        assert np.array_equal(unpacked_bits(got, 9), (a.astype(int) @ b) % 2)

    def test_all_ones_and_host_byte_order(self):
        # 130 ones XOR to 0, 129 to 1; words are little-endian on every host
        assert prg._WORD.str == "<u8"
        a = np.ones((3, 130), dtype=np.uint8)
        a[1, 0] = 0
        b = np.ones((130, 70), dtype=np.uint8)
        got = unpacked_bits(prg._gf2_product(packed_bits(a), prg._XorTables(packed_bits(b))), 70)
        assert got.tolist() == [[0] * 70, [1] * 70, [0] * 70]

    def test_no_blas_products(self):
        # the tape is XORs of table rows: no matmul operator, dot or einsum on its path
        path = (prg.generate_tape, prg._tape_bits, prg._power_chain, prg._gf2_product, prg._XorTables,
                prg._xor_table, prg._transposed, prg._packed, prg._times_t, prg._parities, prg._stride_hankel)
        for func in path:
            tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
            assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree)), func
            names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            assert not names & {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}, func


def byte_comb_powers(gf, base, count):
    """Reference chain: base^0 .. base^count, each from the last by one
    byte-comb multiplication (Horner over the bytes of the multiplicand)."""
    table = [0] * 256
    for v in range(1, 256):
        lsb = v & -v
        table[v] = table[v ^ lsb] ^ (base << (lsb.bit_length() - 1))
    taps = prg._low_taps(gf.modulus)
    out = [1]
    for _ in range(count):
        r = 0
        for byte in out[-1].to_bytes((gf.m + 7) // 8, "big"):
            r = (r << 8) ^ table[byte]
        out.append(prg._fold(r, gf.m, taps))
    return out


def squaring_tables(gf):
    """The squaring matrix's products, rows t^(2j) by repeated field products."""
    rows = [1]
    for _ in range(gf.m - 1):
        rows.append(gf.mul(rows[-1], 0b100))
    return prg._Squaring(prg._packed(rows, -(-gf.m // 64)))


class TestPowerChain:
    @pytest.mark.parametrize("m", [1, 2, 8, 64, 65, 526])
    def test_matches_byte_comb_and_pow(self, m, rng):
        gf = GF2mField(m)
        square = squaring_tables(gf)
        top = 1 << (m - 1)
        bases = {1, top, top | 1, int(rng.integers(1, 1 << min(m, 62))) << max(0, m - 62)}
        for base in sorted(bases):
            reference = byte_comb_powers(gf, base, 65)
            for count in (0, 1, 2, 3, 4, 7, 8, 33, 65):
                chain = prg._power_chain(gf, base, count, square)
                got = [int.from_bytes(row.tobytes(), "little") for row in chain]
                assert got == reference[: count + 1], (m, base, count)
            for e in (0, 1, 2, 33, 64, 65):
                assert reference[e] == gf.pow(base, e)


def tape_digest(tape):
    return hashlib.sha256(tape.bits.tobytes()).hexdigest()


class TestPinnedTapes:
    """SHA-256 of the tape bits: any change to a seed's stream must show here."""

    def test_kwise_acceptance_first_op(self):
        plan = plan_kwise_design(0.05, 0.1, 24)
        seed_bits = BitSource(split_seed(0xACC6, 0)).take_bits(plan.r)
        tape = generate_tape(plan, seed_bits)
        assert tape_digest(tape) == (
            "3e009ebd312160967030ac1092ca6dc8d927a876e6600ba49111d2f5012284e7"
        )

    def test_two_phase_tape(self):
        plan = plan_two_phase(0.2, 0.3, 2, 24)
        source = BitSource(0x2A)
        source.take_bits(plan.phase1.total_bits)
        tape = generate_tape(plan.phase2, source.take_bits(plan.phase2.r))
        assert (tape.gf.m, tape.n) == (212, 38870)
        assert tape_digest(tape) == (
            "8ece48c31394481b396b0fcdafe12423c1e486a8bd2a4d17481db016e6ca2134"
        )


class TestTapeWorkspace:
    def test_degree_kept_per_degree_and_thread(self):
        square = prg._degree(526)
        assert prg._degree(526) is square
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            assert pool.submit(lambda: prg._degree(526)).result() is square
        # rows t^(2j), j < 256, are single bits: tables cover rows 256..525 only
        assert square.plain == 256 and len(square.tables.mat) == 526 - 256
        assert square.tables.first.shape == (34 * 256, 9)

    def test_degree_tables_shared_by_tapes_past_one_block(self, monkeypatch, fresh_tape_cache):
        # at m = 1467 the squaring tables span two blocks; every tape's power
        # chain reads the one cached set, whose first block is built once
        n = 20_000
        used = []
        product = prg._gf2_product
        monkeypatch.setattr(prg, "_gf2_product", lambda a, tables: used.append(tables) or product(a, tables))
        tape_of_degree(1467, n, BitSource(1).take_bits(2 * 1467))
        square = prg._degree(1467)
        first = square.tables.first
        assert len(square.tables.starts) == 2
        rounds = sum(t is square.tables for t in used)
        assert rounds == max(1 << prg._row_log2(n), -(-n >> prg._row_log2(n)) - 1).bit_length() - 1
        tape_of_degree(1467, n, BitSource(2).take_bits(2 * 1467))
        assert prg._degree(1467) is square and square.tables.first is first
        assert sum(t is square.tables for t in used) == 2 * rounds
        assert prg._degree.cache_info().misses == 1

    def test_concurrent_tapes_match_sequential(self):
        # numpy releases the GIL inside the gathers: threads must not share buffers
        seeds = [BitSource(s).take_bits(2 * 129) for s in range(8)]
        want = [tape_of_degree(129, 20_000, b).bits for b in seeds]
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            for _ in range(4):  # shared tape buffers failed about one tape in five here
                got = list(pool.map(lambda b: tape_of_degree(129, 20_000, b).bits, seeds))
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_threads_share_the_degree_cache(self, fresh_tape_cache):
        # every thread shares the degree cache: threads running tapes of
        # m = 129 and m = 130 read two keys, and each round builds them anew
        shapes = list(itertools.product([129, 130], [300, 20_000])) * 2
        jobs = [(m, n, BitSource(s).take_bits(2 * m)) for s, (m, n) in enumerate(shapes)]
        want = [tape_of_degree(*job).bits for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch inside the cache's builds
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                for _ in range(4):
                    prg._degree.cache_clear()
                    got = list(pool.map(lambda job: tape_of_degree(*job).bits, jobs))
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))
                    assert prg._degree.cache_info().misses == 2
        finally:
            sys.setswitchinterval(interval)

    def test_concurrent_misses_build_each_key_once(self, fresh_tape_cache):
        # four threads that start one degree's tapes together must build the
        # squaring tables once between them, not once each (with lru_cache
        # alone, rounds at m = 1052 built them up to three times)
        seeds = [BitSource(s).take_bits(2 * 1052) for s in range(4)]

        def tape(seed_bits, start):
            start.wait(10)
            return tape_of_degree(1052, 20_000, seed_bits)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                for _ in range(4):
                    prg._degree.cache_clear()
                    list(pool.map(tape, seeds, [threading.Barrier(4)] * 4))
                    assert prg._degree.cache_info().misses == 1
        finally:
            sys.setswitchinterval(interval)


class TestTapeCapacity:
    @pytest.mark.parametrize("m,n", [(526, 276_393), (1052, 20_000), (24, 10**6), (1052, 10**6)])
    def test_model_bounds_first_and_repeated_tapes(self, fresh_tape_cache, m, n):
        # every table, gather and index is allocated per tape; the first tape
        # of a fresh cache also builds the squaring tables, and tape_bytes must
        # bound the traced peak of both tapes. G's parity sequence takes
        # m (B + 1) bytes: B = 1024 > m = 24, then m > B = 128, and at
        # m = 1052, B = 1024 about the m^2 of the model's degree term
        GF2mField(m)  # its modulus's first-use Rabin check is not measured
        peaks = []
        for seed in (1, 2):
            seed_bits = BitSource(seed).take_bits(2 * m)
            tracemalloc.start()
            try:
                tape_of_degree(m, n, seed_bits)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < prg.tape_bytes(n, m), peaks

    def test_over_cap_tape_refused_before_the_modulus_search(self, monkeypatch):
        # m = 40,008 is off the table, and its modulus search ran for more than 20 s;
        # the model puts the tape at 1,738 MiB, so it is refused before the search
        def no_search(m):
            raise AssertionError(f"modulus search for m = {m}")

        monkeypatch.setattr(prg, "_search_modulus", no_search)
        plan = KwisePlan(64, 2, 1, -40000.0)
        assert plan.field_degree == 40_008 and round(plan.tape_bytes / 2**20) == 1738
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="a 64-bit tape needs 1738 MiB, over the 1024 MiB cap"):
                generate_tape(plan, [0] * plan.r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_high_confidence_plan(self):
        # delta = 1e-10 plans a field ten times wider than the contract point;
        # the products are blocked, so memory stays far below one m x m
        # float32 matrix (119 MB here) and no working-set limit applies
        plan = plan_kwise_design(0.05, 1e-10, 24)
        n_bits = plan.n * plan.width
        assert (plan.field_degree, n_bits) == (5460, 2763852)
        GF2mField(plan.field_degree)  # a table entry: its first-use Rabin check is not measured
        tracemalloc.start()
        try:
            tape = generate_tape(plan, BitSource(9).take_bits(plan.r))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tape.bits.shape == (n_bits,)
        assert peak < 40 * 2**20
        rng = np.random.default_rng(5)
        sampled = rng.integers(0, n_bits, size=4).tolist()
        assert_matches_local_decoder(tape, sampled + boundary_positions(n_bits)[::8])


class TestSampleIndices:
    def test_singleton_set_consumes_nothing(self):
        tape = generate_tape(PLAN_16, BitSource(5).take_bits(PLAN_16.r))
        draw = indices_from_bits(tape.bits, 1, 10)
        assert draw.bits_consumed == 0 and not draw.indices.any()

    def test_power_of_two_direct_binary(self):
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
        draw = indices_from_bits(bits, 4, 4)
        assert draw.indices.tolist() == [0, 1, 2, 3]
        assert index_width(4) == 2 and draw.bits_consumed == 8

    def test_non_power_of_two_padded_width(self):
        draw = indices_from_bits(np.zeros(130, dtype=np.uint8), 24, 10)
        assert index_width(24) == 13 and draw.bits_consumed == 130
        # each index's probability is off by at most set_size / 2^w
        assert 24 / 2 ** index_width(24) <= 2**-8

    @pytest.mark.parametrize("set_size", [3, 24, 576, 1000])
    def test_padding_bias_over_every_value(self, set_size):
        # every w-bit value once: index i takes floor or ceil of 2^w / |S| of
        # them, and the law's exact distance from uniform is r(|S| - r) / (|S| 2^w)
        w = index_width(set_size)
        values = np.arange(1 << w, dtype=np.int64)
        bits = (values[:, None] >> np.arange(w - 1, -1, -1)) & 1
        packed = np.concatenate((np.packbits(bits.astype(np.uint8)), np.zeros(8, np.uint8)))
        counts = np.bincount(indices_from_packed(packed, 0, set_size, 1 << w), minlength=set_size)
        assert len(counts) == set_size
        assert set(counts.tolist()) <= {(1 << w) // set_size, -(-(1 << w) // set_size)}
        tv = Fraction(sum(abs(int(c) * set_size - (1 << w)) for c in counts), 2 * set_size << w)
        r = (1 << w) % set_size
        assert tv == Fraction(r * (set_size - r), set_size << w)
        assert tv <= Fraction(1, 2**10)

    def test_exhaustion_raises(self):
        with pytest.raises(CapacityError):
            indices_from_bits(np.zeros(10, dtype=np.uint8), 4, 6)

    def test_chi_square_uniformity_over_24(self):
        n = 1_000_000
        bits = BitSource(77).take_bits(n * 13)
        draw = indices_from_bits(bits, 24, n)
        counts = np.bincount(draw.indices, minlength=24)
        sigma = math.sqrt(n * (1 / 24) * (1 - 1 / 24))
        assert np.max(np.abs(counts - n / 24)) <= 5 * sigma + n * 24 / 2**13


def reference_indices(bits, set_size, n):
    """The int64-matmul reference decode: every bit widened to an int64 and
    each MSB-first group weighted by one matrix-vector product. Exact while
    set_size * 2^w stays below 2^63."""
    w = index_width(set_size)
    if w == 0:
        return np.zeros(n, dtype=np.int64)
    groups = np.asarray(bits[: n * w], dtype=np.int64).reshape(n, w)
    values = groups @ (1 << np.arange(w - 1, -1, -1, dtype=np.int64))
    return values if 1 << w == set_size else (values * set_size) >> w


def python_int_indices(bits, set_size, n):
    """Exact reference at any width: each group read as a Python int."""
    w = index_width(set_size)
    out = []
    for i in range(n):
        v = int("".join(str(int(b)) for b in bits[i * w : (i + 1) * w]) or "0", 2)
        out.append(v if 1 << w == set_size else v * set_size >> w)
    return out


# Sizes at the decode's edges: the widest direct product (3 * 2^26, w = 36,
# and 2^28 - 1), the first split products (2^28 + 1, w = 37) and the widest
# fields (2^49 - 1 pads to w = 57, 2^57 is 57 bits exactly).
EDGE_SIZES = [3 * 2**26, 2**28 - 1, 2**28 + 1, 2**32 + 5, 2**36 - 1, 2**49 - 1, 2**49, 2**57]


class TestIndexDecodeAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(
        set_size=st.one_of(st.integers(1, 2**20), st.sampled_from([2**j for j in range(21)])),
        n=st.integers(0, 70),
        extra=st.integers(0, 17),
        seed=st.integers(0, 2**32),
    )
    def test_matches_int64_reference(self, set_size, n, extra, seed):
        w = index_width(set_size)
        bits = np.random.default_rng(seed).integers(0, 2, size=n * w + extra, dtype=np.uint8)
        draw = indices_from_bits(bits, set_size, n)
        want = reference_indices(bits, set_size, n)
        assert draw.indices.dtype == np.int64 and np.array_equal(draw.indices, want)
        assert draw.bits_consumed == n * w

    @settings(max_examples=100, deadline=None)
    @given(
        # every size whose index is at most 57 bits wide
        set_size=st.one_of(st.integers(2, 2**49), st.sampled_from([2**j for j in range(50, 58)])),
        n=st.integers(1, 19),
        seed=st.integers(0, 2**32),
    )
    def test_wide_fields_match_python_ints(self, set_size, n, seed):
        w = index_width(set_size)
        bits = np.random.default_rng(seed).integers(0, 2, size=n * w, dtype=np.uint8)
        assert indices_from_bits(bits, set_size, n).indices.tolist() == python_int_indices(bits, set_size, n)

    @pytest.mark.parametrize("set_size", EDGE_SIZES)
    @pytest.mark.parametrize("fill", ["ones", "zeros", "random"])
    def test_edge_sizes_exact(self, set_size, fill):
        n = 17  # every residue of i mod 8, twice
        w = index_width(set_size)
        bits = {
            "ones": np.ones(n * w, np.uint8),
            "zeros": np.zeros(n * w, np.uint8),
            "random": np.random.default_rng(set_size).integers(0, 2, size=n * w, dtype=np.uint8),
        }[fill]
        got = indices_from_bits(bits, set_size, n).indices.tolist()
        assert got == python_int_indices(bits, set_size, n)
        assert all(0 <= i < set_size for i in got)

    def test_all_ones_at_3_pow_2_26_is_the_last_index(self):
        # the int64 product overflowed here: all-ones decoded to -67108865
        draw = indices_from_bits(np.ones(36, np.uint8), 3 * 2**26, 1)
        assert index_width(3 * 2**26) == 36 and draw.indices.tolist() == [3 * 2**26 - 1]

    @settings(max_examples=200, deadline=None)
    @given(
        set_size=st.one_of(st.integers(1, 2**49), st.sampled_from([2**j for j in range(58)])),
        n=st.integers(0, 19),
        start=st.integers(0, 200),
        spare=st.integers(0, 70),
        seed=st.integers(0, 2**32),
    )
    def test_packed_bytes_from_any_start(self, set_size, n, start, spare, seed):
        # an unpadded buffer of any length that holds the draw decodes as its unpacked bits
        w = index_width(set_size)
        packed = np.random.default_rng(seed).integers(
            0, 256, size=-(-(start + n * w + spare) // 8), dtype=np.uint8
        )
        got = indices_from_packed(packed, start, set_size, n)
        want = indices_from_bits(np.unpackbits(packed)[start:], set_size, n).indices
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()

    def test_packed_buffer_too_short_refused(self):
        with pytest.raises(CapacityError, match="buffer has 16"):
            indices_from_packed(np.zeros(2, np.uint8), 5, 24, 1)

    @pytest.mark.parametrize("set_size", [2**49 + 1, 2**58, 3 * 2**60])
    def test_past_the_widest_field_refused(self, set_size):
        assert index_width(set_size) > MAX_INDEX_WIDTH
        with pytest.raises(CapacityError, match="bit indices"):
            indices_from_bits(np.zeros(64 * 4, np.uint8), set_size, 2)


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
        plan = KwisePlan(n, max(k, 2), 1, math.log2(theta))
        reps = 400
        src = BitSource(2024)
        devs = []
        for _ in range(reps):
            tape = generate_tape(plan, src.take_bits(plan.r))
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

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            RandomnessLedger().record("bad", -1)
