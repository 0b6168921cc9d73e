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
formula kwise_seed_length(); both are reported and tests bound their ratio.
Every function here takes theta as theta_log2 = log2(theta), because the theta
a plan asks for is often far below the smallest float; theta_log2_of converts
a float theta once, where one enters from outside.

Expansion: with e = i*B + r and B = isqrt(n) + 1, bilinearity of
(u, v) -> <u*v, y> turns the whole tape, laid out as a Q x B matrix, into
the GF(2) product U H V^T: row i of U holds the bits of x^(iB), row r of V
those of x^r, and H is the m x m Hankel matrix H[j, l] = <t^(j+l), y>. The
products run on float32 BLAS in blocks of bounded size; every entry is a
count <= m, exact for m < 2^24 (checked by CapacityError), so the tape is
bit-exact whatever the BLAS build, thread count or summation order.
BiasedTape.bit() keeps the slow square-and-multiply path as the reference.
"""

from __future__ import annotations

import functools
import itertools
import math
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


def kwise_seed_length(k: int, n: int, theta_log2: float) -> int:
    """Textbook seed length ceil(k + 2 log2 log2 k + 2 log2 log2 n + 2 log2(1/theta))."""
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if n < k:
        raise ParameterError(f"need k <= n, got k={k} n={n}")
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
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if n < k:
        raise ParameterError(f"need k <= n, got k={k} n={n}")
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


class _FixedMultiplier:
    """Byte-comb multiplication by one fixed field element."""

    def __init__(self, gf: GF2mField, c: int):
        self.m = gf.m
        self.nbytes = (gf.m + 7) // 8
        self.taps = _low_taps(gf.modulus)
        table = [0] * 256
        for v in range(1, 256):
            lsb = v & -v
            table[v] = table[v ^ lsb] ^ (c << (lsb.bit_length() - 1))
        self.table = table

    def mul(self, z: int) -> int:
        # Horner over the bytes of z, most significant first
        r = 0
        table = self.table
        for b in z.to_bytes(self.nbytes, "big"):
            r = (r << 8) ^ table[b]
        return _fold(r, self.m, self.taps)


# Rows per chunk of the products.
_STRIDE = 64
# Every product entry is a count <= m, an exact float32 integer while m < 2^24.
_FLOAT32_EXACT = 1 << 24
# Largest float32 column block of V and of H V^T, so memory stays O(m) in n.
_BLOCK_BYTES = 1 << 22


def _powers(gf: GF2mField, base: int, count: int) -> list:
    """base^0 .. base^count, each from the last by the byte-comb multiplier."""
    by_base = _FixedMultiplier(gf, base)
    out = [1]
    for _ in range(count):
        out.append(by_base.mul(out[-1]))
    return out


def _packed_rows(elems, m: int) -> np.ndarray:
    """uint8 matrix whose row i holds the little-endian bytes of elems[i]."""
    nbytes = (m + 7) // 8
    buf = b"".join(e.to_bytes(nbytes, "little") for e in elems)
    return np.frombuffer(buf, dtype=np.uint8).reshape(len(elems), nbytes)


def _bit_rows(packed: np.ndarray, m: int) -> np.ndarray:
    """float32 0/1 matrix of the m coefficient bits of each packed row."""
    return np.unpackbits(packed, axis=1, count=m, bitorder="little").astype(np.float32)


def _gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod 2 for 0/1 float32 matrices, as int32."""
    # entries are exact small counts; OpenBLAS can raise a stray invalid flag
    with np.errstate(invalid="ignore"):
        counts = a @ b
    return counts.astype(np.int32) & 1


def _tape_bits(gf: GF2mField, x: int, y: int, n: int) -> np.ndarray:
    """Bits <x^e, y> for e = 1..n as one GF(2) matrix product.

    Write e = i*B + r with B = isqrt(n) + 1, 0 <= r < B and 0 <= i < Q =
    n // B + 1. Since (u, v) -> <u*v, y> is GF(2)-bilinear, bit e is
    u H v^T with u, v the coefficient bits of x^(iB), x^r and H the m x m
    Hankel matrix H[j, l] = <t^(j+l), y>. The tape laid out as a Q x B matrix
    is therefore U H V^T mod 2, where row i of U holds x^(iB) and row r of V
    holds x^r; both come from the byte-comb multiplier and are kept packed.
    V is taken in column blocks of about _BLOCK_BYTES of float32; for each
    block, H V^T is formed from _STRIDE-row chunks of H and U streams through
    in _STRIDE-row chunks, so the float32 working set is one block plus a few
    m x _STRIDE chunks whatever m and n. All products run on float32 BLAS;
    every entry is a count <= m, so the result is exact while m < 2^24 and
    independent of the BLAS build, thread count and summation order.
    """
    m = gf.m
    if m >= _FLOAT32_EXACT:
        raise CapacityError(f"field degree m = {m} exceeds the float32 exactness bound 2^24")
    if x == 0 or y == 0 or n == 0:
        out = np.zeros(n, dtype=np.uint8)
        out.flags.writeable = False
        return out
    block = math.isqrt(n) + 1
    rows = n // block + 1
    v_pow = _powers(gf, x, block)  # x^0 .. x^B
    u_packed = _packed_rows(_powers(gf, v_pow.pop(), rows - 1), m)
    v_packed = _packed_rows(v_pow, m)
    seq = np.zeros(2 * m - 1, dtype=np.float32)
    z = 1
    for a in range(2 * m - 1):
        seq[a] = (z & y).bit_count() & 1
        z = gf.mul_t(z)
    hankel = np.lib.stride_tricks.sliding_window_view(seq, m)  # H[j, l] = seq[j + l]
    tape = np.empty((rows, block), dtype=np.uint8)
    width = max(_STRIDE, _BLOCK_BYTES // (4 * m))
    for c0 in range(0, block, width):
        v_rows = _bit_rows(v_packed[c0 : c0 + width], m)
        hv = np.empty((m, len(v_rows)), dtype=np.float32)
        for lo in range(0, m, _STRIDE):
            h_rows = np.ascontiguousarray(hankel[lo : lo + _STRIDE])
            hv[lo : lo + _STRIDE] = _gf2_matmul(h_rows, v_rows.T)
        for lo in range(0, rows, _STRIDE):
            u_rows = _bit_rows(u_packed[lo : lo + _STRIDE], m)
            tape[lo : lo + _STRIDE, c0 : c0 + width] = _gf2_matmul(u_rows, hv)
    out = tape.reshape(-1)[1 : n + 1]  # exponent 0 is not part of the tape
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class IndexDraw:
    """Indices decoded from consecutive tape (or true-random) bit groups."""

    indices: np.ndarray
    bits_consumed: int
    width: int
    nonuniformity: float  # per-index probability deviation bound, 0 for powers of two


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


def indices_from_bits(bits: np.ndarray, set_size: int, n: int) -> IndexDraw:
    """Decode n indices in [0, set_size) from a 0/1 bit array (MSB-first groups)."""
    w = index_width(set_size)
    if n * w > len(bits):
        raise CapacityError(f"need {n * w} bits for {n} indices, tape has {len(bits)}")
    if w == 0:
        return IndexDraw(np.zeros(n, dtype=np.int64), 0, 0, 0.0)
    groups = np.asarray(bits[: n * w], dtype=np.int64).reshape(n, w)
    weights = 1 << np.arange(w - 1, -1, -1, dtype=np.int64)
    values = groups @ weights
    if 1 << w == set_size:
        idx = values
        dev = 0.0
    else:
        idx = (values * set_size) >> w
        dev = set_size / (1 << w)
    return IndexDraw(idx, n * w, w, dev)


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
