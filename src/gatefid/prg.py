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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ParameterError, ValidationError

# Sparse irreducible moduli over GF(2), smallest-tap trinomial/pentanomial per
# degree. Verified irreducible at generation time and re-checked on first use
# (exhaustive divisor scan for m <= 32, Rabin's test above that).
IRREDUCIBLE_TABLE = {
    1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001B,
    25: 0x2000009, 26: 0x400001B, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x10000008D,
    33: 0x200000401, 34: 0x400000081, 35: 0x800000005, 36: 0x1000000201,
    37: 0x2000000053, 38: 0x4000000063, 39: 0x8000000011, 40: 0x10000000039,
    41: 0x20000000009, 42: 0x40000000081, 43: 0x80000000059,
    44: 0x100000000021, 45: 0x20000000001B, 46: 0x400000000003,
    47: 0x800000000021, 48: 0x100000000002D, 49: 0x2000000000201,
    50: 0x400000000001D, 51: 0x800000000004B, 52: 0x10000000000009,
    53: 0x20000000000047, 54: 0x40000000000201, 55: 0x80000000000081,
    56: 0x100000000000095, 57: 0x200000000000011, 58: 0x400000000080001,
    59: 0x800000000000095, 60: 0x1000000000000003, 61: 0x2000000000000027,
    62: 0x4000000020000001, 63: 0x8000000000000003, 64: 0x1000000000000001B,
}


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
    m = f.bit_length() - 1
    if m <= 0 or not f & 1:
        return False
    taps = _low_taps(f)
    a = 2  # the element x
    powers = {}
    for i in range(1, m + 1):
        a = _fold(_gf2_square(a), m, taps)
        powers[i] = a
    if powers[m] != 2:
        return False
    for q in _prime_factors(m):
        if _polygcd(f, powers[m // q] ^ 2) != 1:
            return False
    return True


def _exhaustive_irreducible(f: int) -> bool:
    m = f.bit_length() - 1
    if m == 1:
        return True
    for g in range(2, 1 << (m // 2 + 1)):
        if g.bit_length() - 1 >= 1 and _polymod(f, g) == 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def irreducible_modulus(m: int) -> int:
    """Deterministic sparse irreducible polynomial of degree m."""
    if m < 1:
        raise ParameterError(f"field degree must be >= 1, got {m}")
    f = IRREDUCIBLE_TABLE.get(m)
    if f is None:
        f = _search_modulus(m)
    if m <= 32:
        if not _exhaustive_irreducible(f):
            raise ValidationError(f"modulus {f:#x} for m={m} failed the divisor scan")
    elif not _rabin_irreducible(f):
        raise ValidationError(f"modulus {f:#x} for m={m} failed the irreducibility test")
    return f


def _search_modulus(m: int) -> int:
    # trinomials with the smallest middle tap first, then pentanomials with
    # the smallest top tap: small taps keep the tape recurrence blocks large
    for a in range(1, m):
        f = (1 << m) | (1 << a) | 1
        if _rabin_irreducible(f):
            return f
    for c in range(3, m):
        for b in range(2, c):
            for a in range(1, b):
                f = (1 << m) | (1 << c) | (1 << b) | (1 << a) | 1
                if _rabin_irreducible(f):
                    return f
    raise ValidationError(f"no sparse irreducible polynomial found for degree {m}")


@dataclass(frozen=True)
class GF2mField:
    """GF(2^m) with elements as ints (bit i = coefficient of x^i)."""

    m: int
    modulus: int = 0

    def __post_init__(self):
        if self.modulus == 0:
            object.__setattr__(self, "modulus", irreducible_modulus(self.m))
        else:
            if self.modulus.bit_length() - 1 != self.m:
                raise ParameterError(f"modulus degree != {self.m}")
            checker = _exhaustive_irreducible if self.m <= 32 else _rabin_irreducible
            if not checker(self.modulus):
                raise ValidationError(f"modulus {self.modulus:#x} is reducible")

    @property
    def order(self) -> int:
        return 1 << self.m

    def add(self, a: int, b: int) -> int:
        return a ^ b

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


def _log2_inv_theta(theta, theta_log2) -> float:
    if (theta is None) == (theta_log2 is None):
        raise ParameterError("give exactly one of theta, theta_log2")
    if theta is not None:
        if not 0 < theta < 1:
            raise ParameterError(f"theta must be in (0, 1), got {theta}")
        return -math.log2(theta)
    if theta_log2 >= 0:
        raise ParameterError(f"theta_log2 must be negative, got {theta_log2}")
    return -theta_log2


def kwise_seed_length(k: int, n: int, theta: float | None = None, *, theta_log2: float | None = None) -> int:
    """Textbook seed length ceil(k + 2 log2 log2 k + 2 log2 log2 n + 2 log2(1/theta))."""
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if n < k:
        raise ParameterError(f"need k <= n, got k={k} n={n}")
    lt = _log2_inv_theta(theta, theta_log2)
    return math.ceil(k + 2 * math.log2(math.log2(k)) + 2 * math.log2(math.log2(n)) + 2 * lt)


def sampling_seed_length(
    epsilon: float, n: int, set_size: int, theta: float | None = None, *, theta_log2: float | None = None
) -> int:
    """Seed length ceil(4 eps^2 n log2 |Y| + 2 log2(1/theta)) for n index samples."""
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    if set_size < 1:
        raise ParameterError(f"set size must be >= 1, got {set_size}")
    lt = _log2_inv_theta(theta, theta_log2)
    return math.ceil(4 * epsilon**2 * n * math.log2(set_size) + 2 * lt)


def tape_field_degree(k: int, n: int, theta: float | None = None, *, theta_log2: float | None = None) -> int:
    """Field degree m of the powering construction for a (k, n, theta) tape."""
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if n < k:
        raise ParameterError(f"need k <= n, got k={k} n={n}")
    lt = _log2_inv_theta(theta, theta_log2)
    return max(1, math.ceil(math.log2(n) + k / 2 + lt + 1))


def tape_seed_length(k: int, n: int, theta: float | None = None, *, theta_log2: float | None = None) -> int:
    """Implemented seed length: 2m truly random bits for the (x, y) field pair."""
    return 2 * tape_field_degree(k, n, theta, theta_log2=theta_log2)


@dataclass(frozen=True)
class BiasedTape:
    """A deterministic theta-approximate k-wise independent bit sequence.

    seed_bits holds exactly the r = 2m consumed truly random bits; every
    output bit is recomputable from (seed_bits, position) alone via bit().
    """

    n: int
    k: int
    theta: float | None
    theta_log2: float
    seed_bits: tuple
    gf: GF2mField
    x: int
    y: int
    bits: np.ndarray = field(repr=False, default=None)
    construction: str = "powering"

    @property
    def r(self) -> int:
        return len(self.seed_bits)

    def bit(self, i: int) -> int:
        """Locally decode output bit i (0-indexed) from the seed alone."""
        if not 0 <= i < self.n:
            raise ParameterError(f"bit index {i} outside [0, {self.n})")
        xi = self.gf.pow(self.x, i + 1)
        return (xi & self.y).bit_count() & 1


def generate_tape(
    k: int,
    n: int,
    theta: float | None,
    seed_bits,
    *,
    theta_log2: float | None = None,
) -> BiasedTape:
    """Expand a 2m-bit true-random seed into an n-bit approximately k-wise tape."""
    m = tape_field_degree(k, n, theta, theta_log2=theta_log2)
    seed = tuple(int(b) & 1 for b in seed_bits)
    if len(seed) != 2 * m:
        raise ParameterError(f"seed must have exactly {2 * m} bits, got {len(seed)}")
    gf = GF2mField(m)
    x = sum(b << j for j, b in enumerate(seed[:m]))
    y = sum(b << j for j, b in enumerate(seed[m:]))
    bits = _tape_bits(gf, x, y, n)
    lt = _log2_inv_theta(theta, theta_log2)
    return BiasedTape(n, k, theta, -lt, seed, gf, x, y, bits)


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


def sample_indices(tape: BiasedTape, set_size: int, n: int) -> IndexDraw:
    """Read n indices in [0, set_size) from the start of the tape."""
    return indices_from_bits(tape.bits, set_size, n)


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

    def merge(self, other: "RandomnessLedger") -> None:
        self.entries.extend(other.entries)

    def as_dicts(self) -> list:
        return [{"label": lab, "bits": b} for lab, b in self.entries]
