"""Small-bias pseudorandom bit tapes over GF(2^m), index sampling, bit ledgers.

Construction: the powering generator. A seed of 2m truly random bits decodes
to a pair (x, y) of GF(2^m) elements; output bit i (1-indexed) is the GF(2)
inner product of the bit representations of x^i and y. Every nonempty parity
over positions in [1, n] then has bias at most n / 2^m, and choosing

    m = ceil(log2 n + k/2 + log2(1/theta) + 1)

drives that bias below theta * 2^(-k/2 - 1), which forces every <= k-subset's
joint distribution to be theta-close to uniform in L1 (Parseval over the
subset's parities).
The resulting seed length 2m generally exceeds the constant-free textbook
formula kwise_seed_length(), which no plan or output reports; the tests bound
the ratio of the two.
Every function here takes theta as theta_log2 = log2(theta), because the theta
a plan asks for is often far below the smallest float; theta_log2_of converts
a float theta once, where one enters from outside.

Expansion: with e = i*B + r and B = isqrt(n) + 1, bilinearity of
(u, v) -> <u*v, y> turns the whole tape, laid out as a Q x B matrix, into
the GF(2) product U H V^T: row i of U holds the bits of x^(iB), row r of V
those of x^r, and H is the m x m Hankel matrix H[j, l] = <t^(j+l), y>.
Matrices are kept as rows of little-endian 64-bit words, and every product
is an XOR of table rows (the method of four Russians): each 8-row chunk of
the right factor gets a 256-entry XOR table, and the left factor's bytes
pick one entry per chunk. U and V come from square-and-multiply doubling,
since squaring is GF(2)-linear: x^(2q) is row q times the squaring matrix,
and x^(2q+1) that times the matrix of multiplication by x. Row j of the
squaring matrix is the single bit 2j while 2j < m, so its low rows are a
byte-table spread and only the rest get XOR tables. Tables and gathers are
built in blocks of bounded size, in buffers kept per field degree with the
squaring tables, so a second tape of the same shape allocates no table.
Indices decode exactly from the packed bits through 8-byte windows, so an
index field is at most 57 bits wide. Every entry is an XOR of bits,
so the tape is bit-exact on any host; fields of degree 2^24 or more, whose
m x m matrices alone would take 32 TiB, are refused with CapacityError.
BiasedTape.bit() keeps the slow square-and-multiply path as the reference.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ParameterError, ValidationError

# Sparse irreducible moduli over GF(2): degree m -> the exponents t of the
# middle terms of x^m + sum(x^t) + 1. For m >= 2 each entry is the modulus
# _search_modulus returns, so a tape is the same whether its degree is on the
# table or searched. Past 64 the table holds every field degree that
# plan_kwise_design plans for epsilon in {0.01, 0.02, 0.05, 0.1, 0.2}, delta in
# {0.1, 0.05, 0.01, 1e-3} and |S| in {24, 216, 576, 3000, 11520}, and the
# benchmark's and tests' other tape degrees (tools/moduli.py lists them,
# prints this table and re-derives it with --check). Rabin's test checks an
# entry on its first use.
_MODULUS_TAPS = {
    1: (), 2: (1,), 3: (1,), 4: (1,), 5: (2,), 6: (1,), 7: (1,), 8: (4, 3, 1),
    9: (1,), 10: (3,), 11: (2,), 12: (3,), 13: (4, 3, 1), 14: (5,), 15: (1,),
    16: (5, 3, 1), 17: (3,), 18: (3,), 19: (5, 2, 1), 20: (3,), 21: (2,),
    22: (1,), 23: (5,), 24: (4, 3, 1), 25: (3,), 26: (4, 3, 1), 27: (5, 2, 1),
    28: (1,), 29: (2,), 30: (1,), 31: (3,), 32: (7, 3, 2), 33: (10,), 34: (7,),
    35: (2,), 36: (9,), 37: (6, 4, 1), 38: (6, 5, 1), 39: (4,), 40: (5, 4, 3),
    41: (3,), 42: (7,), 43: (6, 4, 3), 44: (5,), 45: (4, 3, 1), 46: (1,),
    47: (5,), 48: (5, 3, 2), 49: (9,), 50: (4, 3, 2), 51: (6, 3, 1), 52: (3,),
    53: (6, 2, 1), 54: (9,), 55: (7,), 56: (7, 4, 2), 57: (4,), 58: (19,),
    59: (7, 4, 2), 60: (1,), 61: (5, 2, 1), 62: (29,), 63: (1,), 64: (4, 3, 1),
    206: (10, 9, 5), 212: (105,), 337: (55,), 442: (7, 5, 2), 484: (105,),
    501: (5, 4, 2), 526: (97,), 540: (9,), 543: (16,), 572: (12, 8, 1),
    579: (12, 9, 7), 581: (13, 7, 6), 582: (85,), 585: (88,), 618: (295,),
    621: (12, 6, 5), 623: (68,), 624: (11, 6, 5), 626: (251,), 640: (14, 3, 2),
    648: (13, 3, 1), 660: (11,), 663: (107,), 679: (66,), 680: (23, 16, 9),
    682: (171,), 698: (215,), 702: (37,), 718: (165,), 721: (9,), 748: (19,),
    751: (18,), 752: (13, 10, 3), 755: (12, 10, 1), 757: (7, 6, 1),
    760: (11, 6, 5), 798: (53,), 799: (25,), 802: (15, 13, 9), 805: (8, 7, 2),
    806: (21,), 827: (12, 10, 7), 852: (159,), 856: (19, 10, 3),
    877: (6, 5, 4), 880: (15, 7, 5), 889: (127,), 906: (123,), 927: (403,),
    931: (10, 9, 4), 971: (6, 2, 1), 977: (15,), 981: (12, 6, 5),
    1005: (12, 8, 2), 1031: (68,), 1052: (291,), 1082: (407,), 1086: (189,),
    1159: (66,), 1160: (15, 11, 2), 1163: (11, 10, 1), 1168: (12, 7, 2),
    1236: (49,), 1241: (54,), 1242: (203,), 1245: (13, 6, 1), 1276: (217,),
    1318: (12, 11, 5), 1322: (10, 8, 3), 1345: (553,), 1353: (371,),
    1358: (117,), 1399: (55,), 1430: (33,), 1435: (15, 10, 9),
    1467: (13, 5, 2), 1507: (11, 10, 2), 1512: (10, 9, 3), 1518: (69,),
    1588: (85,), 1589: (16, 8, 3), 1633: (147,), 1639: (427,), 1748: (567,),
    1749: (20, 11, 7), 1755: (6, 4, 3), 1761: (13, 12, 10), 1863: (260,),
    1870: (121,), 1876: (13, 9, 4), 1922: (23, 16, 15), 1985: (311,),
    1991: (546,), 2037: (19, 18, 3), 2043: (9, 7, 4), 2106: (111,),
    2152: (24, 13, 7), 2158: (93,), 2267: (18, 17, 8), 2274: (239,),
    2389: (31, 12, 10), 5460: (29,), 6594: (2679,),
}
IRREDUCIBLE_TABLE = {m: (1 << m) | sum(1 << t for t in taps) | 1 for m, taps in _MODULUS_TAPS.items()}


def _polymod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _low_taps(f: int) -> tuple:
    m = f.bit_length() - 1
    return tuple(j for j in range(m) if (f >> j) & 1)


def _fold(a: int, m: int, taps: tuple) -> int:
    """Reduce mod f = x^m + sum x^taps by folding the high part down."""
    mask = (1 << m) - 1
    while a >> m:
        high = a >> m
        a &= mask
        for t in taps:
            a ^= high << t
    return a


def _clmul(a: int, b: int) -> int:
    r = 0
    shift = 0
    while b:
        if b & 1:
            r ^= a << shift
        b >>= 1
        shift += 1
    return r


def _gf2_square(a: int) -> int:
    # squaring over GF(2) spreads the bits apart: reread the bit string in base 4
    return int(format(a, "b"), 4) if a else 0


def _polygcd(a: int, b: int) -> int:
    while b:
        a, b = b, _polymod(a, b)
    return a


def _prime_factors(n: int) -> set:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _rabin_irreducible(f: int) -> bool:
    """Rabin's test: f of degree m >= 1 is irreducible over GF(2) iff
    x^(2^m) = x mod f and gcd(f, x^(2^(m/q)) - x) = 1 for every prime q | m."""
    m = f.bit_length() - 1
    if m < 1:
        return False
    taps = _low_taps(f)
    x = _fold(2, m, taps)  # x mod f, which is 1 when f = x + 1
    checks = {m // q: 0 for q in _prime_factors(m)}
    a = x
    for i in range(1, m + 1):
        a = _fold(_gf2_square(a), m, taps)
        if i in checks:
            checks[i] = a
    return a == x and all(_polygcd(f, p ^ x) == 1 for p in checks.values())


def _swan_reducible(m: int, a: int) -> bool:
    """True when Swan's theorem (1962) proves x^m + x^a + 1 reducible.

    With both exponents even the trinomial is a square. With exactly one odd,
    it has an even number of irreducible factors, so at least two, iff
      m even, a odd, m != 2a and ma/2 = 0 or 1 (mod 4), or
      m odd, a even, a does not divide 2m and m = +-3 (mod 8), or
      m odd, a even, a divides 2m and m = +-1 (mod 8).
    With both odd the reciprocal x^m + x^(m-a) + 1, which has as many
    factors, takes its place. No trinomial of degree 0 mod 8 survives.
    """
    if m % 2 == 0 and a % 2 == 0:
        return True
    if m % 2 and a % 2:
        a = m - a
    if m % 2 == 0:
        return m != 2 * a and (m // 2 * a) % 4 in (0, 1)
    return (m % 8 in (3, 5)) != (2 * m % a == 0)


# Largest factor degree the pre-check looks for before Rabin's test.
_SMALL_FACTOR_DEGREE = 12


def _has_small_factor(f: int) -> bool:
    """True when f has an irreducible factor of degree d <= b = min(12, m - 1).

    The irreducible factors of x^(2^i) - x are those of degree dividing i,
    and every d <= b divides some i in (b/2, b]. As d < m, a common factor
    proves f reducible: the pre-check never rejects an irreducible f.
    """
    m = f.bit_length() - 1
    b = min(_SMALL_FACTOR_DEGREE, m - 1)
    taps = _low_taps(f)
    a = 2
    for i in range(1, b + 1):
        a = _fold(_gf2_square(a), m, taps)
        if 2 * i > b and _polygcd(f, a ^ 2) != 1:
            return True
    return False


@functools.lru_cache(maxsize=None)
def irreducible_modulus(m: int) -> int:
    """Deterministic sparse irreducible polynomial of degree m: the table entry, else the search's."""
    if m < 1:
        raise ParameterError(f"field degree must be >= 1, got {m}")
    f = IRREDUCIBLE_TABLE.get(m)
    if f is None:
        return _search_modulus(m)
    if not _rabin_irreducible(f):
        raise ValidationError(f"modulus {f:#x} for m={m} failed the irreducibility test")
    return f


def _search_modulus(m: int) -> int:
    # trinomials with the smallest middle tap first, then pentanomials with
    # the smallest top tap: small taps keep the tape recurrence blocks large.
    # Swan's rule and the pre-check skip only reducible candidates, so the
    # first candidate that passes Rabin's test is the same without them.
    trinomials = ((1 << m) | (1 << a) | 1 for a in range(1, m) if not _swan_reducible(m, a))
    pentanomials = (
        (1 << m) | (1 << c) | (1 << b) | (1 << a) | 1
        for c in range(3, m) for b in range(2, c) for a in range(1, b)
    )
    for f in itertools.chain(trinomials, pentanomials):
        if not _has_small_factor(f) and _rabin_irreducible(f):
            return f
    raise ValidationError(f"no sparse irreducible polynomial found for degree {m}")


@dataclass(frozen=True)
class GF2mField:
    """GF(2^m) with elements as ints (bit i = coefficient of x^i)."""

    m: int
    modulus: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "modulus", irreducible_modulus(self.m))

    def mul(self, a: int, b: int) -> int:
        return _polymod(_clmul(a, b), self.modulus)

    def mul_t(self, a: int) -> int:
        """Multiply by the degree-1 monomial (the field generator's class)."""
        a <<= 1
        if a >> self.m:
            a ^= self.modulus
        return a

    def pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


def theta_log2_of(theta: float) -> float:
    """log2(theta) for a float theta in (0, 1), the library's only theta form."""
    if not 0 < theta < 1:
        raise ParameterError(f"theta must be in (0, 1), got {theta}")
    return math.log2(theta)


def _checked_theta_log2(theta_log2: float) -> float:
    if not -math.inf < theta_log2 < 0:  # also refuses NaN
        raise ParameterError(f"theta_log2 must be finite and negative, got {theta_log2}")
    return theta_log2


def _check_k_n(k: int, n: int) -> None:
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if n < k:
        raise ParameterError(f"need k <= n, got k={k} n={n}")


def kwise_seed_length(k: int, n: int, theta_log2: float) -> int:
    """Textbook seed length ceil(k + 2 log2 log2 k + 2 log2 log2 n + 2 log2(1/theta))."""
    _check_k_n(k, n)
    lt = -_checked_theta_log2(theta_log2)
    return math.ceil(k + 2 * math.log2(math.log2(k)) + 2 * math.log2(math.log2(n)) + 2 * lt)


def sampling_seed_length(epsilon: float, n: int, set_size: int, theta_log2: float) -> int:
    """Seed length ceil(4 eps^2 n log2 |Y| + 2 log2(1/theta)) for n index samples."""
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    if set_size < 1:
        raise ParameterError(f"set size must be >= 1, got {set_size}")
    lt = -_checked_theta_log2(theta_log2)
    return math.ceil(4 * epsilon**2 * n * math.log2(set_size) + 2 * lt)


def tape_field_degree(k: int, n: int, theta_log2: float) -> int:
    """Field degree m of the powering construction for a (k, n, theta) tape."""
    _check_k_n(k, n)
    lt = -_checked_theta_log2(theta_log2)
    return max(1, math.ceil(math.log2(n) + k / 2 + lt + 1))


def tape_seed_length(k: int, n: int, theta_log2: float) -> int:
    """Implemented seed length: 2m truly random bits for the (x, y) field pair."""
    return 2 * tape_field_degree(k, n, theta_log2)


@dataclass(frozen=True)
class BiasedTape:
    """A deterministic theta-approximate k-wise independent bit sequence.

    seed_bits holds exactly the r = 2m consumed truly random bits; every
    output bit is recomputable from (seed_bits, position) alone via bit().
    """

    n: int
    k: int
    theta_log2: float
    seed_bits: tuple
    gf: GF2mField
    x: int
    y: int
    bits: np.ndarray = field(repr=False, default=None)

    @property
    def r(self) -> int:
        return len(self.seed_bits)

    def bit(self, i: int) -> int:
        """Locally decode output bit i (0-indexed) from the seed alone."""
        if not 0 <= i < self.n:
            raise ParameterError(f"bit index {i} outside [0, {self.n})")
        xi = self.gf.pow(self.x, i + 1)
        return (xi & self.y).bit_count() & 1


def generate_tape(k: int, n: int, theta_log2: float, seed_bits) -> BiasedTape:
    """Expand a 2m-bit true-random seed into an n-bit approximately k-wise tape."""
    m = tape_field_degree(k, n, theta_log2)
    seed = tuple(int(b) & 1 for b in seed_bits)
    if len(seed) != 2 * m:
        raise ParameterError(f"seed must have exactly {2 * m} bits, got {len(seed)}")
    gf = GF2mField(m)
    x = sum(b << j for j, b in enumerate(seed[:m]))
    y = sum(b << j for j, b in enumerate(seed[m:]))
    return BiasedTape(n, k, theta_log2, seed, gf, x, y, _tape_bits(gf, x, y, n))


# Packed GF(2) rows: bit l of a row is bit l % 64 of its word l // 64, and
# words are little-endian, so a byte view reads the same on every host.
_WORD = np.dtype("<u8")
# Field degrees from here on are refused: an m x m bit matrix alone would
# take m^2 / 8 bytes, 32 TiB at m = 2^24.
_MAX_DEGREE = 1 << 24
# Largest block of XOR tables, of gathered table rows and of unpacked bits,
# so the working set stays O(m^2 / 8) bytes whatever n.
_BLOCK_BYTES = 1 << 22
# Rows of the left factor per gather: a gather is a quarter of its table block.
_GATHER_ROWS = 64


def _packed(elems, words: int) -> np.ndarray:
    """Packed rows holding the field elements elems."""
    buf = b"".join([e.to_bytes(8 * words, "little") for e in elems])
    return np.frombuffer(buf, dtype=_WORD).reshape(len(elems), words)


def _times_t(gf: GF2mField, c: int, count: int) -> list:
    """c * t^j for j = 0 .. count - 1, each from the last by mul_t."""
    out = []
    for _ in range(count):
        out.append(c)
        c = gf.mul_t(c)
    return out


class _Buffers:
    """Reusable flat arrays by name, each grown to the largest size asked of it."""

    def __init__(self):
        self._arrays = {}

    def get(self, name: str, shape: tuple, dtype) -> np.ndarray:
        size = math.prod(shape)
        buf = self._arrays.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._arrays[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


# Entry 16 h + l of a chunk's table takes its high half from entry h.
_HIGH_ENTRY = np.repeat(np.arange(16, dtype=np.intp), 16)


def _xor_table(rows: np.ndarray, out: np.ndarray, buffers: _Buffers) -> np.ndarray:
    """Fill out so that entry 256 c + v is the XOR of rows 8c + b over the set bits b of v."""
    chunks = -(-len(rows) // 8)
    width = rows.shape[1]
    # entry v of quad q is the XOR of rows 4q + b over the set bits b of v < 16
    quads = buffers.get("halves", (2 * chunks, 16, width), _WORD)
    quads[:, 0] = 0
    for b in range(4):
        picked = rows[b::4]
        quads[: len(picked), 1 << b] = picked
        quads[len(picked) :, 1 << b] = 0
        np.bitwise_xor(quads[:, 1 : 1 << b], quads[:, 1 << b, None], out=quads[:, (1 << b) + 1 : 2 << b])
    # entry 16 h + l of chunk c is high[h] ^ low[l], with quads 2c (low) and 2c + 1 (high)
    halves = quads.reshape(chunks, 2, 16, width)
    table = out.reshape(chunks, 256, width)
    np.take(halves[:, 1], _HIGH_ENTRY, axis=1, out=table, mode="clip")
    table.reshape(chunks, 16, 16 * width)[...] ^= halves[:, 0].reshape(chunks, 1, 16 * width)
    return out


class _XorTables:
    """The XOR tables of a packed GF(2) matrix M, for products A M.

    Tables cover at most _BLOCK_BYTES each: a span of 8-row chunks of M
    times a span of its words. The first block is built once and kept, so
    a matrix whose tables fit one block (an m x m matrix up to m = 1024)
    never rebuilds them; further blocks are rebuilt on each use. Every
    temporary lives in `buffers`, which products with these tables reuse
    too. Given shared `buffers`, the first block is built in their table
    buffer and is valid until the next set is built there; otherwise it
    gets an array of its own.
    """

    def __init__(self, mat: np.ndarray, buffers: _Buffers | None = None):
        shared = buffers is not None
        self.mat = mat
        self.buffers = buffers if shared else _Buffers()
        self.words = mat.shape[1]
        self.width = min(self.words, max(1, _BLOCK_BYTES // (256 * 8)))
        self.chunks = max(1, _BLOCK_BYTES // (256 * 8 * self.width))
        self.spans = [
            (c0, w0)
            for w0 in range(0, self.words, self.width)
            for c0 in range(0, -(-len(mat) // 8), self.chunks)
        ]
        rows = self._rows(*self.spans[0])
        shape = (256 * -(-len(rows) // 8), rows.shape[1])
        out = self.buffers.get("table", shape, _WORD) if shared else np.empty(shape, _WORD)
        self.first = _xor_table(rows, out, self.buffers)

    def _rows(self, c0: int, w0: int) -> np.ndarray:
        return self.mat[8 * c0 : 8 * (c0 + self.chunks), w0 : w0 + self.width]

    def blocks(self):
        """(first chunk, first word, table) for every block."""
        yield (*self.spans[0], self.first)
        for c0, w0 in self.spans[1:]:
            rows = self._rows(c0, w0)
            out = self.buffers.get("block", (256 * -(-len(rows) // 8), rows.shape[1]), _WORD)
            yield c0, w0, _xor_table(rows, out, self.buffers)


def _gf2_product(a: np.ndarray, tables: _XorTables) -> np.ndarray:
    """A M over GF(2) for packed rows A, M given by its XOR tables.

    Byte c of a row of A selects table entry 256 c + byte, and the row of
    the product is the XOR of the selected entries over all chunks c. Rows
    of A go _GATHER_ROWS at a time, so a gather is a quarter of its table
    block; the gather and its index reuse the tables' buffers.
    """
    out = np.zeros((len(a), tables.words), _WORD)
    a_bytes = a.view(np.uint8)
    for c0, w0, table in tables.blocks():
        chunks, width = len(table) // 256, table.shape[1]
        offsets = np.arange(0, 256 * chunks, 256, dtype=np.intp)[:, None]
        for r0 in range(0, len(a), _GATHER_ROWS):
            rows = min(_GATHER_ROWS, len(a) - r0)
            index = tables.buffers.get("index", (chunks, rows), np.intp)
            np.add(a_bytes[r0 : r0 + rows, c0 : c0 + chunks].T, offsets, out=index)
            # mode="clip" writes the gather in place; the default mode buffers it
            gather = tables.buffers.get("gather", (chunks, rows, width), _WORD)
            np.take(table, index, axis=0, out=gather, mode="clip")
            out[r0 : r0 + rows, w0 : w0 + width] ^= np.bitwise_xor.reduce(gather, axis=0)
    return out


def _transposed(rows: np.ndarray, nbits: int) -> np.ndarray:
    """Packed nbits x len(rows) transpose of the nbits-bit rows `rows`."""
    out = np.zeros((nbits, 8 * -(-len(rows) // 64)), np.uint8)
    step = max(8, _BLOCK_BYTES // nbits // 8 * 8)
    for r0 in range(0, len(rows), step):
        bits = np.unpackbits(rows[r0 : r0 + step].view(np.uint8), axis=1, count=nbits, bitorder="little")
        packed = np.packbits(bits, axis=0, bitorder="little")
        out[:, r0 // 8 : r0 // 8 + len(packed)] = packed.T
    return out.view(_WORD)


# Bits 0..7 of a byte spread to bits 0, 2, .., 14: squaring over GF(2) before reduction.
_SPREAD = np.array([_gf2_square(v) for v in range(256)], dtype="<u2")


class _Squaring:
    """Products A S with the squaring matrix S of GF(2^m), row j = t^(2j).

    Row j is the single bit 2j while 2j < m, so the low `plain` bits of a
    row of A (a multiple of 64, at most ceil(m/2)) are spread apart through
    a byte table, and XOR tables cover only the rows of S from `plain` on.
    """

    def __init__(self, rows: np.ndarray):
        self.words = rows.shape[1]
        self.plain = (len(rows) + 1) // 2 // 64 * 64
        self.tables = _XorTables(rows[self.plain :])
        self.buffers = self.tables.buffers

    def product(self, a: np.ndarray) -> np.ndarray:
        out = _gf2_product(a[:, self.plain // 64 :], self.tables)
        if self.plain:
            spread = _SPREAD[a.view(np.uint8)[:, : self.plain // 8]]
            out.view(np.uint8)[:, : self.plain // 4] ^= spread.view(np.uint8)
        return out


def _power_chain(gf: GF2mField, base: int, count: int, square: _Squaring) -> np.ndarray:
    """Packed rows base^0 .. base^count by square-and-multiply doubling.

    Rows [k, 2k) come from rows [k/2, k): the even rows base^(2q) are one
    product with the squaring matrix, the odd rows base^(2q+1) those times
    the matrix of multiplication by base. About log2(count) rounds, each
    with the same two sets of tables; the second is built in the squaring
    tables' buffers.
    """
    words = square.words
    times_base = _XorTables(_packed(_times_t(gf, base, gf.m), words), square.buffers)
    out = np.zeros((count + 1, words), _WORD)
    out[0, 0] = 1
    if count:
        out[1] = _packed([base], words)[0]
    k = 2
    while k <= count:
        hi = min(2 * k, count + 1)
        even = square.product(out[k // 2 : (hi + 1) // 2])
        out[k:hi:2] = even
        out[k + 1 : hi : 2] = _gf2_product(even[: (hi - k) // 2], times_base)
        k *= 2
    return out


@functools.lru_cache(maxsize=4)
def _workspace(m: int, thread: int) -> tuple:
    """What the tapes of field degree m share: t^0 .. t^(2m-2) and the squaring tables.

    The squaring tables' buffers are the tapes' reusable workspace: the
    chains' multiply-by-base tables, then the V^T tables, then the HV
    tables are built in turn in one table buffer there, and every product
    gathers into the same gather and index buffers. So a second tape of
    the same shape allocates no table. Each thread gets its own, so tapes
    on concurrent threads never share a buffer.
    """
    gf = GF2mField(m)
    t_powers = _times_t(gf, 1, 2 * m - 1)
    return t_powers, _Squaring(_packed(t_powers[::2], -(-m // 64)))  # row j is t^(2j)


def _tape_bits(gf: GF2mField, x: int, y: int, n: int) -> np.ndarray:
    """Bits <x^e, y> for e = 1..n as one GF(2) matrix product.

    Write e = i*B + r with B = isqrt(n) + 1, 0 <= r < B and 0 <= i < Q =
    n // B + 1. Since (u, v) -> <u*v, y> is GF(2)-bilinear, bit e is
    u H v^T with u, v the coefficient bits of x^(iB), x^r and H the m x m
    Hankel matrix H[j, l] = <t^(j+l), y>. The tape laid out as a Q x B matrix
    is therefore U (H V^T), where row i of U holds x^(iB) and row r of V
    holds x^r. U and V are power chains; both products are XOR-table
    products on packed words, and the tape is unpacked once at the end.
    Tables, gathers and unpacked bits stay within _BLOCK_BYTES, and the
    tables and gathers reuse the degree's workspace, so apart from the
    output the working set is a few packed m x m and m x B matrices
    whatever n.
    """
    m = gf.m
    if m >= _MAX_DEGREE:
        raise CapacityError(
            f"field degree m = {m} is at least 2^24: an m x m bit matrix would need m^2/8 bytes"
        )
    block = math.isqrt(n) + 1
    rows = n // block + 1
    words = -(-m // 64)
    t_powers, square = _workspace(m, threading.get_ident())
    # bit a of seq is <t^a, y>, so row j of H is bits j .. j+m-1 of seq
    seq = sum(((z & y).bit_count() & 1) << a for a, z in enumerate(t_powers))
    v = _power_chain(gf, x, block, square)  # x^0 .. x^B
    u = _power_chain(gf, int.from_bytes(v[block].tobytes(), "little"), rows - 1, square)
    h_rows = _packed([(seq >> j) & ((1 << m) - 1) for j in range(m)], words)
    hv = _gf2_product(h_rows, _XorTables(_transposed(v[:block], m), square.buffers))
    tape = _gf2_product(u, _XorTables(hv, square.buffers))
    bits = np.unpackbits(tape.view(np.uint8), axis=1, count=block, bitorder="little")
    out = bits.reshape(-1)[1 : n + 1]  # exponent 0 is not part of the tape
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class IndexDraw:
    """Indices decoded from consecutive tape (or true-random) bit groups."""

    indices: np.ndarray
    bits_consumed: int


def index_width(set_size: int) -> int:
    """Bits per index: exact log2 for powers of two, padded by 8 otherwise."""
    if set_size < 1:
        raise ParameterError(f"set size must be >= 1, got {set_size}")
    if set_size == 1:
        return 0
    exact = int(math.log2(set_size))
    if 1 << exact == set_size:
        return exact
    return (set_size - 1).bit_length() + 8


# Widest index field the byte-window decode reads: a field starts at one of
# the 8 bits of its first byte and must end inside an 8-byte window.
MAX_INDEX_WIDTH = 57


def _scaled(values: np.ndarray, set_size: int, w: int) -> np.ndarray:
    """floor(values * set_size / 2^w), exactly, for values < 2^w, w <= 57, set_size < 2^(w-8).

    The product fits 64 bits up to w = 36 and is then formed in place.
    """
    if set_size.bit_length() + w <= 64:
        values *= np.uint64(set_size)
        values >>= np.uint64(w)
        return values
    # with 32-bit limbs the product is hi 2^64 + mid 2^32 + (lo mod 2^32),
    # where mid < 2^58; w > 36 here and the quotient is below set_size, so
    # it is hi 2^(64-w) + (mid >> (w-32)) with nothing overflowing
    low, high = values & np.uint64(0xFFFFFFFF), values >> np.uint64(32)
    s_low, s_high = np.uint64(set_size & 0xFFFFFFFF), np.uint64(set_size >> 32)
    mid = low * s_high + high * s_low + ((low * s_low) >> np.uint64(32))
    return ((high * s_high) << np.uint64(64 - w)) + (mid >> np.uint64(w - 32))


def indices_from_bits(bits: np.ndarray, set_size: int, n: int) -> IndexDraw:
    """Decode n indices in [0, set_size) from a 0/1 bit array (MSB-first groups).

    The bits are packed once. Index i is bits iw .. iw+w-1, read from the
    big-endian 8-byte window at byte iw // 8; indices i and i + 8 start w
    bytes apart at the same bit of their byte, so each residue of i mod 8 is
    one strided view of the packed bytes. A set that is not a power of two
    scales the w-bit value v to floor(v * set_size / 2^w), exactly.
    """
    w = index_width(set_size)
    if w > MAX_INDEX_WIDTH:
        raise CapacityError(
            f"set size {set_size} needs {w}-bit indices; at most {MAX_INDEX_WIDTH} bits are supported"
        )
    if n * w > len(bits):
        raise CapacityError(f"need {n * w} bits for {n} indices, tape has {len(bits)}")
    if w == 0:
        return IndexDraw(np.zeros(n, dtype=np.int64), 0)
    nbytes = -(-n * w // 8)
    packed = np.zeros(nbytes + 8, np.uint8)  # 8 bytes of padding for the last windows
    packed[:nbytes] = np.packbits(bits[: n * w])
    values = np.empty(n, np.uint64)
    mask = np.uint64((1 << w) - 1)
    for j in range(min(8, n)):
        start = j * w
        windows = np.ndarray((len(range(j, n, 8)),), ">u8", packed, start // 8, (w,))
        values[j::8] = (windows >> np.uint64(64 - w - start % 8)) & mask
    if 1 << w == set_size:
        return IndexDraw(values.view(np.int64), n * w)
    return IndexDraw(_scaled(values, set_size, w).view(np.int64), n * w)


@dataclass
class RandomnessLedger:
    """Append-only exact account of truly random bits consumed."""

    entries: list = field(default_factory=list)

    def record(self, label: str, bits: int) -> None:
        if bits < 0:
            raise ParameterError("cannot record a negative bit count")
        self.entries.append((str(label), int(bits)))

    @property
    def total(self) -> int:
        return sum(b for _, b in self.entries)

    def as_dicts(self) -> list:
        return [{"label": lab, "bits": b} for lab, b in self.entries]
