"""Small-bias pseudorandom bit tapes over GF(2^m), index sampling, bit ledgers.

Construction: the powering generator. A seed of 2m truly random bits decodes
to a pair (x, y) of GF(2^m) elements; output bit i (1-indexed) is the GF(2)
inner product of the bit representations of x^i and y. Every nonempty parity
over positions in [1, n] then has bias at most n / 2^m, and choosing

    m = ceil(log2 n + k/2 + log2(1/theta) + 1)

drives that bias below theta * 2^(-k/2 - 1), which forces every <= k-subset's
joint distribution to be theta-close to uniform in L1 (Parseval over the
subset's parities).
Every caller sizes a tape through its KwisePlan(n, k, width, theta_log2): the
plan alone derives m and the seed length r = 2m, checks its domain, and is
what generate_tape(plan, seed_bits) expands. The plan takes theta as
theta_log2 = log2(theta), because the theta a plan asks for is often far below
the smallest float; theta_log2_of converts a float theta once, where one
enters from outside.

Expansion: with e = i*B + s, 1 <= s <= B and B = 2^b >= 8, x^(iB) = (x^i)^(2^b)
is sum_j u_j t^(jB) for the bits u of x^i, as squaring is GF(2)-linear, so
bilinearity of (u, v) -> <u*v, y> turns the whole tape, laid out as a Q x B
matrix, into the GF(2) product V_Q G V_B^T: row i of V_Q holds the bits of
x^i, row c of V_B those of x^((c ^ 7) + 1), and G is the m x m Hankel matrix
of stride B, G[j, l] = <t^(jB+l), y>. Matrices are kept as rows of
little-endian 64-bit words, so bit c of a row is bit c % 8 of its byte c // 8:
with V_B's rows in that order each byte of the product reads MSB first, and
the product's rows, read as bytes, are the tape every reader takes. Every
product is an XOR of table rows (the method of four Russians): each 8-row
chunk of the right factor gets a 256-entry XOR table, and the left factor's
bytes pick one entry per chunk. One chain of powers of x serves the whole
tape, its rows 0 .. Q-1 V_Q and its rows 1 .. B V_B. It comes from
square-and-multiply doubling: x^(2q) is row q times the squaring matrix S,
and x^(2q+1) that times the matrix of multiplication by x. Row j of S is the
single bit 2j while 2j < m, so its low rows are a byte-table spread and only
the rest get XOR tables. Tables and gathers are built in blocks of bounded
size, each in an array of its own. One lru cache keeps what tapes share, the
squaring tables per field degree (_degree). They are seed-independent and
read-only once built, so every thread shares them; a tape reads the cache
under one lock, so threads that miss a key together build it once.
The rest of the per-seed set-up is word work with no loop over bits: x and
y are one packbits of the seed; the parities seq(a) = <t^a, y> start with
y's m bits and follow the modulus's recurrence in its Frobenius images,
seq(a + 2^j m) = XOR over taps k of seq(a + 2^j k), a few slices a step;
row j of G is the window seq[jB : jB+m], packed in row blocks; V_B^T is V_B
transposed in 8 x 8 bit blocks, each a word put through three delta swaps.
Indices decode exactly from packed bytes (the bytes a tape is computed as,
or a BitSource's drawn words) through 8-byte windows, so an index field is
at most 57 bits wide. Every entry is an XOR of bits, so the tape is bit-exact
on any host. The plan's tape_bytes is the one tape memory model:
generate_tape refuses a plan past RUN_MEMORY_CAP with CapacityError as its
first step, for every caller, before it reads the seed or searches a modulus.
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
from .quantum import RUN_MEMORY_CAP

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


@dataclass(frozen=True)
class KwisePlan:
    """The one description of a tape: n indices of `width` bits each, read from an n w-bit
    powering-construction tape on which every k w bits are theta-close to uniform. A raw bit
    tape is KwisePlan(n, k, 1, theta_log2).

    Everything else follows from these four: the field degree m, the seed length r = 2m that
    is drawn and ledgered, and the tape's memory (tape_bytes). The domain is checked when a
    plan is built: 2 <= k <= n, width >= 1 and theta_log2 finite and negative.
    """

    n: int
    k: int
    width: int
    theta_log2: float

    def __post_init__(self):
        if self.k < 2:
            raise ParameterError(f"k must be >= 2, got {self.k}")
        if self.n < self.k:
            raise ParameterError(f"need k <= n, got k={self.k} n={self.n}")
        if self.width < 1:
            raise ParameterError(f"width must be >= 1, got {self.width}")
        if not -math.inf < self.theta_log2 < 0:  # also refuses NaN
            raise ParameterError(f"theta_log2 must be finite and negative, got {self.theta_log2}")

    @property
    def field_degree(self) -> int:
        """m = ceil(log2(n w) + k w / 2 + log2(1/theta) + 1): the tape runs at bit level."""
        k_bits = self.k * self.width
        return max(1, math.ceil(math.log2(self.n_bits) + k_bits / 2 - self.theta_log2 + 1))

    @property
    def n_bits(self) -> int:
        """The tape's length in bits, n w."""
        return self.n * self.width

    @property
    def r(self) -> int:
        """Seed length: 2m truly random bits for the (x, y) field pair."""
        return 2 * self.field_degree

    @property
    def total_bits(self) -> int:
        return self.r

    @property
    def tape_bytes(self) -> int:
        return tape_bytes(self.n_bits, self.field_degree)


@dataclass(frozen=True)
class BiasedTape:
    """A deterministic theta-approximate k-wise independent bit sequence.

    seed_bits holds exactly the r = 2m consumed truly random bits; every
    output bit is recomputable from (seed_bits, position) alone via bit().
    packed is the tape as _tape_bits computes it: MSB-first bytes, bit i of
    the tape bit 7 - i % 8 of byte i // 8, then 8 zero bytes.
    """

    plan: KwisePlan
    seed_bits: tuple
    gf: GF2mField
    x: int
    y: int
    packed: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        """The tape's length in bits, n w."""
        return self.plan.n_bits

    @functools.cached_property
    def bits(self) -> np.ndarray:
        """The tape as one uint8 per bit: a reference view, unpacked on first read."""
        return np.unpackbits(self.packed, count=self.n)

    @property
    def r(self) -> int:
        return len(self.seed_bits)

    def bit(self, i: int) -> int:
        """Locally decode output bit i (0-indexed) from the seed alone."""
        if not 0 <= i < self.n:
            raise ParameterError(f"bit index {i} outside [0, {self.n})")
        xi = self.gf.pow(self.x, i + 1)
        return (xi & self.y).bit_count() & 1


def generate_tape(plan: KwisePlan, seed_bits) -> BiasedTape:
    """Expand the plan's r = 2m true-random seed bits into its n w-bit tape; CapacityError
    first when the plan's tape_bytes pass RUN_MEMORY_CAP."""
    if plan.tape_bytes > RUN_MEMORY_CAP:
        raise CapacityError(f"a {plan.n_bits}-bit tape needs {plan.tape_bytes / 2**20:.0f} MiB,"
                            f" over the {RUN_MEMORY_CAP >> 20} MiB cap")
    m = plan.field_degree
    bits = np.asarray(seed_bits)
    if bits.ndim == 1 and bits.dtype.kind in "biu":
        bits = (bits & 1).astype(np.uint8)
    else:  # floats, strings, Python ints past 64 bits, iterators: one by one
        bits = np.array([int(b) & 1 for b in seed_bits], np.uint8)
    if len(bits) != plan.r:
        raise ParameterError(f"seed must have exactly {plan.r} bits, got {len(bits)}")
    gf = GF2mField(m)
    # bit j of x is seed bit j, bit j of y seed bit m + j
    halves = np.packbits(bits.reshape(2, m), axis=1, bitorder="little")
    x, y = (int.from_bytes(h.tobytes(), "little") for h in halves)
    seed = tuple(bits.tolist())
    return BiasedTape(plan, seed, gf, x, y, _tape_bits(gf, x, y, plan.n_bits))


# Packed GF(2) rows: bit l of a row is bit l % 64 of its word l // 64, and
# words are little-endian, so a byte view reads the same on every host.
_WORD = np.dtype("<u8")
# Largest block of XOR tables, of gathered table rows and of unpacked bits,
# so the working set stays O(m^2 / 8) bytes whatever n.
_BLOCK_BYTES = 1 << 22
# Rows of the left factor per gather: a gather is a quarter of its table block.
_GATHER_ROWS = 64


def tape_bytes(n: int, m: int) -> int:
    """Bytes an n-bit tape over GF(2^m) holds at most. 2 a bit is an over-bound, kept so that
    no plan's cap moves: the tape takes a quarter byte a bit (its packed words and the byte
    copy it is read from), and gen-bits with its hex text and lines about 1.25. Degree m adds
    m^2 + 8m ceil(m/64) and 5 blocks of _BLOCK_BYTES: packed m x m matrices, the Python-int
    powers behind the squaring tables, the XOR tables and gathers, and G's parity sequence,
    under m(B + 1) bytes, which is at most (m^2 + B^2)/2 with B^2 <= max(2n, 64)."""
    return 2 * n + m * m + m * 8 * -(-m // 64) + 5 * _BLOCK_BYTES


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


# Entry 16 h + l of a chunk's table takes its high half from entry h.
_HIGH_ENTRY = np.repeat(np.arange(16, dtype=np.intp), 16)


def _xor_table(rows: np.ndarray) -> np.ndarray:
    """The table whose entry 256 c + v is the XOR of rows 8c + b over the set bits b of v."""
    chunks = -(-len(rows) // 8)
    width = rows.shape[1]
    # entry v of quad q is the XOR of rows 4q + b over the set bits b of v < 16
    quads = np.empty((2 * chunks, 16, width), _WORD)
    quads[:, 0] = 0
    for b in range(4):
        picked = rows[b::4]
        quads[: len(picked), 1 << b] = picked
        quads[len(picked) :, 1 << b] = 0
        np.bitwise_xor(quads[:, 1 : 1 << b], quads[:, 1 << b, None], out=quads[:, (1 << b) + 1 : 2 << b])
    # entry 16 h + l of chunk c is high[h] ^ low[l], with quads 2c (low) and 2c + 1 (high)
    halves = quads.reshape(chunks, 2, 16, width)
    table = np.take(halves[:, 1], _HIGH_ENTRY, axis=1, mode="clip")
    table.reshape(chunks, 16, 16 * width)[...] ^= halves[:, 0].reshape(chunks, 1, 16 * width)
    return table.reshape(256 * chunks, width)


class _XorTables:
    """The XOR tables of a packed GF(2) matrix M, for products A M.

    Each block of tables covers a span of 8-row chunks of M, all its words,
    in at most _BLOCK_BYTES while a chunk's 256 entries fit one block: every
    right factor of a tape the caps admit is at most 512 words wide, a
    quarter of that. The first block is built once and kept, so a matrix
    whose tables fit one block (an m x m matrix up to m = 1024) never
    rebuilds them; further blocks are rebuilt on each use. Every block is
    an array of its own, and nothing here changes once built.
    """

    def __init__(self, mat: np.ndarray):
        self.mat = mat
        self.chunks = max(1, _BLOCK_BYTES // (256 * 8 * mat.shape[1]))
        self.starts = range(0, -(-len(mat) // 8), self.chunks)
        self.first = _xor_table(mat[: 8 * self.chunks])

    def blocks(self):
        """(first chunk, table) for every block."""
        yield 0, self.first
        for c0 in self.starts[1:]:
            yield c0, _xor_table(self.mat[8 * c0 : 8 * (c0 + self.chunks)])


def _gf2_product(a: np.ndarray, tables: _XorTables) -> np.ndarray:
    """A M over GF(2) for packed rows A, M given by its XOR tables.

    Byte c of a row of A selects table entry 256 c + byte, and the row of
    the product is the XOR of the selected entries over all chunks c. Rows
    of A go _GATHER_ROWS at a time, so a gather is a quarter of its table
    block.
    """
    out = np.zeros((len(a), tables.mat.shape[1]), _WORD)
    a_bytes = a.view(np.uint8)
    for c0, table in tables.blocks():
        chunks = len(table) // 256
        offsets = np.arange(0, 256 * chunks, 256, dtype=np.intp)[:, None]
        for r0 in range(0, len(a), _GATHER_ROWS):
            index = a_bytes[r0 : r0 + _GATHER_ROWS, c0 : c0 + chunks].T + offsets
            # every index is in range; the default mode checks them and buffers the gather
            gather = np.take(table, index, axis=0, mode="clip")
            out[r0 : r0 + _GATHER_ROWS] ^= np.bitwise_xor.reduce(gather, axis=0)
    return out


# Delta swaps that transpose the 8 x 8 bit matrix in a word whose byte r is
# row r: bit 8r + c moves to bit 8c + r (Warren, Hacker's Delight, 7-3).
_DELTA_SWAPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


def _transposed(rows: np.ndarray, nbits: int) -> np.ndarray:
    """Packed nbits x len(rows) transpose of the nbits-bit rows `rows`.

    Byte column c of rows 8i .. 8i+7 is an 8 x 8 bit block: its eight bytes
    are gathered into one word, transposed there by three delta swaps, and
    the word's bytes are scattered to byte i of rows 8c .. 8c+7. Rows go in
    blocks whose gathered bytes stay within _BLOCK_BYTES.
    """
    cols = -(-nbits // 8)
    out = np.zeros((8 * cols, 8 * -(-len(rows) // 64)), np.uint8)
    step = max(8, _BLOCK_BYTES // cols // 8 * 8)
    for r0 in range(0, len(rows), step):
        chunk = rows[r0 : r0 + step].view(np.uint8)[:, :cols]
        blocks = -(-len(chunk) // 8)
        # word (c, i) holds byte c of rows 8i .. 8i+7, row 8i + r in its byte r
        gathered = np.zeros((cols, 8 * blocks), np.uint8)
        gathered[:, : len(chunk)] = chunk.T
        words = gathered.view(_WORD)
        for shift, mask in _DELTA_SWAPS:
            swap = ((words >> shift) ^ words) & mask
            words ^= swap ^ (swap << shift)
        scattered = words.view(np.uint8).reshape(cols, blocks, 8).transpose(0, 2, 1)
        out.reshape(cols, 8, -1)[:, :, r0 // 8 : r0 // 8 + blocks] = scattered
    return out[:nbits].view(_WORD)


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
    with the same two sets of tables: the degree's squaring tables and the
    multiply-by-base tables, which the chain builds for itself.
    """
    words = square.words
    times_base = _XorTables(_packed(_times_t(gf, base, gf.m), words))
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


# Held while a tape reads the cache below: lru_cache lets every thread that
# misses a key build its own copy, and this makes a concurrent miss build once.
_CACHE_LOCK = threading.Lock()


@functools.lru_cache(maxsize=4)
def _degree(m: int) -> _Squaring:
    """The squaring tables every tape of field degree m shares: row j of S is t^(2j)."""
    return _Squaring(_packed(_times_t(GF2mField(m), 1, 2 * m - 1)[::2], -(-m // 64)))


def _row_log2(n: int) -> int:
    """b of the n-bit tape's layout: Q = ceil(n / B) rows of B = 2^b bits, B >= 8.

    The tape's one power chain runs to x^max(B, Q - 1), so b is the smallest
    b >= 3 that minimises max(B + 1, Q); B and Q then lie within about a
    factor of 2 of sqrt(n) from n = 16 on.
    """
    return min(range(3, n.bit_length() + 4), key=lambda b: max((1 << b) + 1, -(-n >> b)))


def _parities(gf: GF2mField, y: int, length: int) -> np.ndarray:
    """seq(a) = <t^a, y> for a < length, one uint8 a bit; length >= m.

    seq starts with y's m bits. As t^(2^j m) = sum over the modulus's low taps
    k of t^(2^j k) (squaring is GF(2)-linear), seq(a + 2^j m) is the XOR of
    seq(a + 2^j k) over the taps: with the largest 2^j m within the known
    prefix, each step extends it by 2^j (m - top tap) bits from slices of it.
    """
    m = gf.m
    taps = _low_taps(gf.modulus)
    seq = np.zeros(length, np.uint8)
    seq[:m] = np.unpackbits(np.frombuffer(y.to_bytes(-(-m // 8), "little"), np.uint8), count=m, bitorder="little")
    known = m
    while known < length:
        step = 1 << (known // m).bit_length() - 1
        start, count = known - step * m, min(step * (m - taps[-1]), length - known)
        new = seq[known : known + count]
        for k in taps:
            new ^= seq[start + step * k : start + step * k + count]
        known += count
    return seq


def _stride_hankel(gf: GF2mField, y: int, block: int) -> np.ndarray:
    """Packed rows of the m x m matrix G[j, l] = <t^(j block + l), y>.

    Row j of G is the window seq[j block : j block + m] of _parities. The
    windows are packed in row blocks whose unpacked bytes stay within
    _BLOCK_BYTES, as all m of them hold m^2.
    """
    m, words = gf.m, -(-gf.m // 64)
    windows = np.lib.stride_tricks.sliding_window_view(_parities(gf, y, (m - 1) * block + m), m)[::block]
    out = np.zeros((m, 8 * words), np.uint8)
    step = max(1, _BLOCK_BYTES // m)
    for j0 in range(0, m, step):
        out[j0 : j0 + step, : -(-m // 8)] = np.packbits(windows[j0 : j0 + step], axis=1, bitorder="little")
    return out.view(_WORD)


def _tape_bits(gf: GF2mField, x: int, y: int, n: int) -> np.ndarray:
    """Bits <x^e, y> for e = 1..n as MSB-first bytes, computed as V_Q (G V_B^T) over GF(2).

    Row i of the tape holds exponents iB + 1 .. iB + B, with B = 2^b >= 8 (b
    from _row_log2) and 0 <= i < Q = ceil(n / B): as x^(iB) = sum_j u_j t^(jB)
    for the bits u of x^i, the bit of exponent iB + s is u G v^T with v the
    bits of x^s. One power chain gives x^0 .. x^max(B, Q - 1): V_Q is its first
    Q rows, and column c of V_B^T its row (c ^ 7) + 1, so each byte of the
    product reads its 8 exponents MSB first and the rows' bytes, in order, are
    the tape. Each operand is freed once read, and tables and gathers stay
    within _BLOCK_BYTES: apart from the output and G's parity sequence (under
    m(B + 1) bytes) the working set is a few packed m x m and m x max(B, Q)
    matrices whatever n.

    Returns a read-only uint8 buffer: the ceil(n/8) tape bytes, with the bits
    past n zero, then 8 zero bytes, so indices_from_packed reads it as it is.
    """
    m = gf.m
    b = _row_log2(n)
    block, rows = 1 << b, -(-n >> b)
    with _CACHE_LOCK:
        square = _degree(m)
    v = _power_chain(gf, x, max(block, rows - 1), square)
    vt = _transposed(v[1 + (np.arange(block) ^ 7)], m)  # column c is x^((c ^ 7) + 1)
    gv = _gf2_product(_stride_hankel(gf, y, block), _XorTables(vt))
    del vt
    tape = _gf2_product(v[:rows], _XorTables(gv))
    del v, gv
    nbytes = -(-n // 8)
    out = np.zeros(nbytes + 8, np.uint8)
    out[:nbytes] = tape.view(np.uint8)[:, : block // 8].reshape(-1)[:nbytes]
    if n % 8:
        out[nbytes - 1] &= 0xFF << (8 - n % 8) & 0xFF
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


def indices_from_packed(packed: np.ndarray, start: int, set_size: int, n: int) -> np.ndarray:
    """Decode n indices in [0, set_size) from MSB-first uint8 bytes, the first at bit `start`.

    Index i is bits start + iw .. start + iw + w - 1, read from the big-endian
    8-byte window at its first byte; indices i and i + 8 start w bytes apart
    at the same bit of their byte, so each residue of i mod 8 is one strided
    view of the bytes. A buffer that ends before the last window's eighth
    byte is copied once into a zero-padded one. A set that is not a power of
    two scales the w-bit value v to floor(v * set_size / 2^w), exactly.
    """
    w = index_width(set_size)
    if w > MAX_INDEX_WIDTH:
        raise CapacityError(
            f"set size {set_size} needs {w}-bit indices; at most {MAX_INDEX_WIDTH} bits are supported"
        )
    if start + n * w > 8 * len(packed):
        raise CapacityError(
            f"need bits {start} .. {start + n * w} for {n} indices, buffer has {8 * len(packed)}"
        )
    if w == 0:
        return np.zeros(n, dtype=np.int64)
    end = (start + (n - 1) * w) // 8 + 8
    if len(packed) < end:
        packed = np.pad(packed, (0, end - len(packed)))
    values = np.empty(n, np.uint64)
    mask = np.uint64((1 << w) - 1)
    for j in range(min(8, n)):
        first = start + j * w
        windows = np.ndarray((len(range(j, n, 8)),), ">u8", packed, first // 8, (w,))
        values[j::8] = (windows >> np.uint64(64 - w - first % 8)) & mask
    if 1 << w == set_size:
        return values.view(np.int64)
    return _scaled(values, set_size, w).view(np.int64)


def indices_from_bits(bits: np.ndarray, set_size: int, n: int) -> IndexDraw:
    """Decode n indices in [0, set_size) from a 0/1 bit array (MSB-first groups).

    The n w bits are packed once, into a buffer with the 8 bytes of padding
    indices_from_packed reads its last windows from.
    """
    w = index_width(set_size)
    if n * w > len(bits):
        raise CapacityError(f"need {n * w} bits for {n} indices, tape has {len(bits)}")
    nbytes = -(-n * w // 8)
    packed = np.zeros(nbytes + 8, np.uint8)
    packed[:nbytes] = np.packbits(bits[: n * w])
    return IndexDraw(indices_from_packed(packed, 0, set_size, n), n * w)


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
