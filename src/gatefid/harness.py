"""Statistical harnesses: confidence contracts, bound checks, PRG enumeration.

All bound checks are one-sided (empirical <= bound + Monte Carlo slack) and
never treated as tightness claims; at desk scale most printed bounds exceed
the trivial range of the quantity and are flagged vacuous.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ensembles import UnitaryEnsemble, tpe_lambda
from .errors import CapacityError, ParameterError
from .estimators import _checked_channel, _claimed, _fidelity_columns, _fidelity_table
from .prg import GF2mField, tape_field_degree, tape_seed_length
# Not called here any more (the bound suite samples first columns without QR);
# kept importable from this module, where perfbench/spans.py looks it up.
from .quantum import haar_unitaries_batch  # noqa: F401
from .streams import _generator, split_seed

# Exhaustive PRG enumeration is only attempted up to this seed length.
EXHAUSTIVE_R_CAP = 24
# Bytes the certificate may hold in packed output columns and character sums.
CERT_MEMORY_CAP = 1 << 27
# uint64 words XORed and popcounted per numpy call in the certificate.
_XOR_BLOCK_WORDS = 1 << 19
# Subsets per Walsh-Hadamard batch in the certificate.
_WHT_BLOCK_ROWS = 1 << 14


@dataclass
class HarnessReport:
    """Empirical (epsilon, delta) contract check over repeated estimator runs."""

    repeats: int
    epsilon: float
    delta: float
    oracle: float
    fraction_within: float
    threshold: float
    passed: bool
    estimates: np.ndarray
    ledger_totals: np.ndarray


def harness_confidence(
    run, oracle: float, epsilon: float, delta: float, repeats: int, master_seed: int
) -> HarnessReport:
    """Run `run(seed)` `repeats` times on split seeds; PASS iff the fraction of
    runs within epsilon of the oracle is at least 1 - delta - 3 sigma."""
    if repeats < 1:
        raise ParameterError("repeats must be >= 1")
    results = [run(split_seed(master_seed, i)) for i in range(repeats)]
    estimates = np.array([r.estimate for r in results])
    ledgers = np.array([r.ledger.total for r in results])
    frac = float(np.mean(np.abs(estimates - oracle) <= epsilon))
    threshold = 1.0 - delta - 3.0 * math.sqrt(delta * (1.0 - delta) / repeats)
    return HarnessReport(
        repeats, epsilon, delta, oracle, frac, threshold, frac >= threshold, estimates, ledgers
    )


@dataclass(frozen=True)
class BoundCheck:
    name: str
    bound: float
    empirical: float
    slack: float
    passed: bool
    vacuous: bool
    note: str = ""

    def row(self) -> dict:
        return {
            "check": self.name,
            "bound": self.bound,
            "empirical": self.empirical,
            "slack": self.slack,
            "verdict": "PASS" if self.passed else "FAIL",
            "vacuous": self.vacuous,
            "note": self.note,
        }


@dataclass
class SuiteReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self) -> list:
        return [c.row() for c in self.checks]


@dataclass(frozen=True)
class SuiteParams:
    variance_samples: int = 100_000
    moment_samples: int = 100_000
    tail_t: int = 8
    tail_delta: float = 0.2
    tail_repeats: int = 2000
    prop1_t: int = 4
    prop1_delta: float = 0.25
    prop1_repeats: int = 2000
    seed: int = 0x0F0F

    def __post_init__(self):
        for name in ("variance_samples", "moment_samples", "tail_t", "tail_repeats",
                     "prop1_t", "prop1_repeats"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")


def _one_sided(name, bound, empirical, slack, vacuous_above, note="") -> BoundCheck:
    vacuous = bound > vacuous_above
    if vacuous and not note:
        note = "bound exceeds the trivial range; check is vacuous"
    return BoundCheck(name, bound, empirical, slack, empirical <= bound + slack, vacuous, note)


def _haar_columns(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """First columns of `count` Haar unitaries, shape (count, d), without QR.

    The phase-fixed QR of a Ginibre matrix has first column z0 / |z0|, z0 its
    first column. The same (count, d, d) draws as haar_unitaries_batch keep the
    rng stream and each sample's Gaussians.
    """
    # copies, so that each full draw is freed before the next one
    re = rng.standard_normal((count, d, d))[:, :, 0].copy()
    im = rng.standard_normal((count, d, d))[:, :, 0].copy()
    z0 = re + 1j * im
    return z0 / np.linalg.norm(z0, axis=1, keepdims=True)


def _haar_fidelities(ch, d, count, rng) -> np.ndarray:
    return _fidelity_columns(ch, _haar_columns(d, count, rng))


def variance_check(channel, params: SuiteParams = SuiteParams()) -> BoundCheck:
    """Empirical Haar variance of the gate fidelity against the 26/d bound."""
    ch = _checked_channel(channel)
    d = ch.dim
    rng = _generator(params.seed, "harness", 1)
    fids = _haar_fidelities(ch, d, params.variance_samples, rng)
    var = float(fids.var())
    centered = fids - fids.mean()
    m4 = float(np.mean(centered**4))
    se = math.sqrt(max(m4 - var**2, 0.0) / params.variance_samples)
    return _one_sided("haar-variance <= 26/d", 26.0 / d, var, 3.0 * se, 0.25)


def tail_check(channel, params: SuiteParams = SuiteParams()) -> BoundCheck:
    """Tail of the t-fold Haar average against 4 exp(-delta'^2 d t / 256)."""
    ch = _checked_channel(channel)
    d, fbar = ch.dim, ch.exact_fidelity
    t, dlt, reps = params.tail_t, params.tail_delta, params.tail_repeats
    rng = _generator(params.seed, "harness", 2)
    fids = _haar_fidelities(ch, d, reps * t, rng).reshape(reps, t)
    emp = float(np.mean(np.abs(fids.mean(axis=1) - fbar) > dlt))
    bound = 4.0 * math.exp(-(dlt**2) * d * t / 256.0)
    slack = 3.0 * math.sqrt(emp * (1.0 - emp) / reps) + 3.0 / reps
    return _one_sided(f"haar-tail(t={t}, delta'={dlt})", bound, emp, slack, 1.0)


def moment_gap_checks(
    channel, ensemble: UnitaryEnsemble, lambda2=None, lambda4=None, params: SuiteParams = SuiteParams()
) -> list:
    """Ensemble-vs-Haar centered moment gaps at l = 1, 2 with shifts a in {0, F}.

    The printed bound is lambda_{2l} ((1+|a|) d)^l; the l = 1 Haar side is the
    exact oracle value, the l = 2 side is Monte Carlo with its own 3 sigma.
    """
    ch = _checked_channel(channel)
    d, fbar = ch.dim, ch.exact_fidelity
    lam2, lam4 = _claimed(lambda2), _claimed(lambda4)
    lam = {
        1: tpe_lambda(ensemble, 2).lambda_value if lam2 is None else lam2,
        2: tpe_lambda(ensemble, 4).lambda_value if lam4 is None else lam4,
    }
    table = _fidelity_table(ch, ensemble)
    rng = _generator(params.seed, "harness", 3)
    fids = _haar_fidelities(ch, d, params.moment_samples, rng)
    checks = []
    for l in (1, 2):
        for a in (0.0, fbar):
            ens_side = float(np.mean((table - a) ** l))
            if l == 1:
                haar_side, se = fbar - a, 0.0
                slack = 1e-9  # both sides exact; tolerance only
            else:
                vals = (fids - a) ** l
                haar_side = float(vals.mean())
                se = float(vals.std() / math.sqrt(len(vals)))
                slack = 3.0 * se
            gap = abs(ens_side - haar_side)
            bound = lam[l] * ((1.0 + abs(a)) * d) ** l
            checks.append(
                _one_sided(f"moment-gap(l={l}, a={a:.4g})", bound, gap, slack, (1.0 + abs(a)) ** l)
            )
    return checks


def prop1_tail_check(
    channel, ensemble: UnitaryEnsemble, lambda4=None, params: SuiteParams = SuiteParams()
) -> BoundCheck:
    """Tail of the t-average under iid ensemble draws vs the l = 1 moment bound."""
    ch = _checked_channel(channel)
    d, fbar = ch.dim, ch.exact_fidelity
    lam4 = tpe_lambda(ensemble, 4).lambda_value if lambda4 is None else _claimed(lambda4)
    t, dlt, reps = params.prop1_t, params.prop1_delta, params.prop1_repeats
    rng = _generator(params.seed, "harness", 4)
    table = _fidelity_table(ch, ensemble)
    idx = rng.integers(0, ensemble.size, size=(reps, t))
    means = table[idx].mean(axis=1)
    emp = float(np.mean(np.abs(means - fbar) > dlt))
    bound = dlt**-2 * (26.0 / (d * t) + lam4 * (2.0 * d) ** 2)
    slack = 3.0 * math.sqrt(emp * (1.0 - emp) / reps) + 3.0 / reps
    return _one_sided(f"qtpe-tail(l=1, t={t}, delta'={dlt})", bound, emp, slack, 1.0)


def bound_validation_suite(
    channel, ensemble: UnitaryEnsemble, lambda2=None, lambda4=None, params: SuiteParams = SuiteParams()
) -> SuiteReport:
    report = SuiteReport()
    report.checks.append(variance_check(channel, params))
    report.checks.append(tail_check(channel, params))
    report.checks.extend(moment_gap_checks(channel, ensemble, lambda2, lambda4, params))
    report.checks.append(prop1_tail_check(channel, ensemble, lambda4, params))
    return report


# ---------------------------------------------------------------------------
# exhaustive PRG validation


@dataclass
class BiasReport:
    n: int
    k: int
    theta: float
    r: int
    subsets_checked: int
    worst_l1: float
    worst_parity_bias: float
    passed: bool

    def rows(self) -> list:
        return [
            {
                "check": f"prg-exhaustive(n={self.n}, k={self.k}, theta={self.theta:g})",
                "bound": self.theta,
                "empirical": self.worst_l1,
                "slack": 0.0,
                "verdict": "PASS" if self.passed else "FAIL",
                "vacuous": False,
                "note": f"r={self.r}, subsets={self.subsets_checked},"
                f" worst parity bias {self.worst_parity_bias:.3g}",
            }
        ]


def exhaustive_bias_check(n: int, k: int, theta: float) -> BiasReport:
    """Certify every <= k-subset of the powering tape within theta in L1, exactly.

    Every output column is packed over all 2^r seeds into uint64 words. The
    character sum of a nonempty set T of at most k columns, the sum over
    seeds of (-1)^(XOR of T's bits), is seeds - 2 * popcount(XOR of T's
    words). Each subset's joint law is then an integer Walsh-Hadamard
    transform of the character sums of its sub-subsets (the Vazirani XOR
    lemma), and its parity bias is its own character sum over the seeds.
    Every count is an exact integer and 2^r is a power of two, so the L1
    distances and biases are the exact rationals an enumeration gives.

    Refused with CapacityError when r exceeds EXHAUSTIVE_R_CAP or the packed
    columns and character sums would exceed CERT_MEMORY_CAP bytes.
    """
    r = tape_seed_length(k, n, theta)
    if r > EXHAUSTIVE_R_CAP:
        raise CapacityError(f"exhaustive enumeration needs r <= {EXHAUSTIVE_R_CAP}, got {r}")
    m = tape_field_degree(k, n, theta)
    # n packed columns of 2^m rows of max(1, 2^m / 64) words, one int64 per subset
    need = n * (1 << m) * max(8, (1 << m) // 8) + 8 * sum(math.comb(n, j) for j in range(1, k + 1))
    if need > CERT_MEMORY_CAP:
        raise CapacityError(
            f"the certificate for n={n}, k={k}, r={r} needs {need / 2**20:.0f} MiB of packed"
            f" columns and character sums, over the {CERT_MEMORY_CAP >> 20} MiB cap"
        )
    subsets, worst_l1, worst_bias = _packed_laws(_powering_columns(GF2mField(m), n), 1 << r, k)
    return BiasReport(n, k, theta, r, subsets, worst_l1, worst_bias, worst_l1 <= theta)


def _pack_columns(bits: np.ndarray) -> np.ndarray:
    """A seeds x n 0/1 matrix as n rows of uint64 words: seed s is bit s % 64 of
    word s // 64 of its column; the last word is zero-padded."""
    packed = np.packbits(np.asarray(bits, dtype=bool), axis=0, bitorder="little")
    packed = np.pad(packed, ((0, -len(packed) % 8), (0, 0)))
    return np.ascontiguousarray(packed.T).view(np.uint64)


def _field_mul(a: np.ndarray, b: np.ndarray, gf: GF2mField) -> np.ndarray:
    """Elementwise GF(2^m) product of int64 arrays (m <= 31)."""
    acc = np.zeros_like(a)
    for bit in range(gf.m):
        acc ^= np.where((b >> bit) & 1, a << bit, 0)
    for bit in range(2 * gf.m - 2, gf.m - 1, -1):
        acc ^= np.where((acc >> bit) & 1, gf.modulus << (bit - gf.m), 0)
    return acc


def _powering_columns(gf: GF2mField, n: int) -> np.ndarray:
    """Output bit i of every seed (x, y), packed; seed x * 2^m + y of column i
    is bit y % 64 of word x * W + y // 64, with W = max(1, 2^m / 64) (the
    words of one x are zero-padded when m < 6).

    Bit i is <x^(i+1), y>, linear in y: the packed words of y -> <a, y> are the
    XOR of the packed words of y -> bit b of y over the set bits b of a,
    looked up one byte of a at a time.
    """
    m = gf.m
    ys = np.arange(1 << m)
    bit_rows = _pack_columns((ys[:, None] >> np.arange(m)) & 1)
    tables = []
    for lo in range(0, m, 8):
        table = np.zeros((1, bit_rows.shape[1]), dtype=np.uint64)
        for row in bit_rows[lo : lo + 8]:
            table = np.concatenate([table, table ^ row])
        tables.append(table)
    cols = np.empty((n, (1 << m) * bit_rows.shape[1]), dtype=np.uint64)
    power = ys.astype(np.int64)
    for i in range(n):
        words = tables[0][power & 0xFF]
        for g, table in enumerate(tables[1:], start=1):
            words ^= table[(power >> (8 * g)) & 0xFF]
        cols[i] = words.reshape(-1)
        power = _field_mul(power, ys, gf)
    return cols


def _packed_laws(cols: np.ndarray, seeds: int, k: int) -> tuple:
    """(subsets, worst L1 from uniform, worst parity bias) over every nonempty
    subset of at most k of the packed columns `cols` (n x words, zero padding).

    The results are exact when `seeds` is a power of two below 2^50.
    """
    n, words = cols.shape
    # binom[c, j] = C(c, j); the colex rank of t_1 < ... < t_j is sum_p C(t_p, p)
    binom = np.array([[math.comb(c, j) for j in range(k + 1)] for c in range(n)], dtype=np.int64)
    sums = [None] + [np.empty(math.comb(n, j), dtype=np.int64) for j in range(1, k + 1)]
    chunk = max(1, _XOR_BLOCK_WORDS // words)

    def extend(j, start, rank, acc):
        # character sums of every j-set whose first j - 1 columns XOR to acc
        for lo in range(start, n, chunk):
            block = cols[lo : lo + chunk] ^ acc
            ones = np.bitwise_count(block).sum(axis=1, dtype=np.int64)
            sums[j][rank + binom[lo : lo + chunk, j]] = seeds - 2 * ones
        if j < k:
            for c in range(start, n):
                extend(j + 1, c + 1, rank + binom[c, j], acc ^ cols[c])

    extend(1, 0, 0, np.uint64(0))
    worst_bias = max(int(np.abs(s).max()) for s in sums[1:]) / seeds
    worst_l1 = 0.0
    for j in range(1, k + 1):
        # picks[u]: the positions within a j-set of its sub-subset u (bit p selects position p)
        picks = [[p for p in range(j) if u >> p & 1] for u in range(1 << j)]
        combos = itertools.combinations(range(n), j)
        while rows := list(itertools.islice(combos, _WHT_BLOCK_ROWS)):
            block = np.array(rows, dtype=np.int64)
            spectrum = np.zeros((len(block), 1 << j), dtype=np.int64)
            for u in range(1, 1 << j):
                sub = block[:, picks[u]]
                ranks = binom[sub, np.arange(1, len(picks[u]) + 1)].sum(axis=1)
                spectrum[:, u] = sums[len(picks[u])][ranks]
            # Walsh-Hadamard butterflies: entry v becomes 2^j * count(v) - seeds
            for h in (1 << p for p in range(j)):
                pairs = spectrum.reshape(len(block), -1, 2, h)
                even, odd = pairs[:, :, 0].copy(), pairs[:, :, 1].copy()
                pairs[:, :, 0] = even + odd
                pairs[:, :, 1] = even - odd
            worst = int(np.abs(spectrum).sum(axis=1).max())
            worst_l1 = max(worst_l1, worst / (seeds << j))
    return sum(math.comb(n, j) for j in range(1, k + 1)), worst_l1, worst_bias
