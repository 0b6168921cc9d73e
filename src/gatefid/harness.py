"""Statistical harnesses: confidence contracts, bound checks, PRG certificate.

All bound checks are one-sided (empirical <= bound + slack), never tightness
claims; at desk scale most printed bounds exceed the trivial range of the
quantity and are flagged vacuous. The variance and moment checks are exact, with
a rounding-only slack; the tail checks are Monte Carlo, with a 3 sigma slack.
The PRG certificate is exact too: it counts, for each small set of tape
outputs, the field elements x whose powers over the set sum to zero, and turns
those root counts into every subset's joint law over all 2^r seeds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ensembles import UnitaryEnsemble, lambda_t
from .errors import CapacityError, ParameterError
from .estimators import _checked_channel, _fidelity_columns, _fidelity_table
from .prg import GF2mField, tape_field_degree, theta_log2_of
from .quantum import haar_second_moment
# Not called here any more (the bound suite samples first columns without QR,
# and takes lambda from ensembles.lambda_t); kept importable from this module,
# where perfbench/spans.py looks them up.
from .ensembles import tpe_lambda  # noqa: F401
from .quantum import haar_unitaries_batch  # noqa: F401
from .streams import _generator, split_seed

# The exact PRG certificate is only attempted up to this seed length (m <= 12).
EXHAUSTIVE_R_CAP = 24
# Bytes the certificate may hold in powers, character sums and working blocks.
CERT_MEMORY_CAP = 1 << 27
# Entries per numpy block in the certificate: powers XORed, or transform points.
_BLOCK_ENTRIES = 1 << 18
# Slack of the checks whose both sides are exact: rounding only.
EXACT_SLACK = 1e-9
# Bytes the tail checks' Monte Carlo draws may take; more repeats are refused.
MC_MEMORY_CAP = 1 << 28


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
    runs = (run(split_seed(master_seed, i)) for i in range(repeats))
    # keep two numbers of each run, not its draws
    estimates, ledgers = map(np.array, zip(*[(r.estimate, r.ledger.total) for r in runs]))
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


# The tail check averages TAIL_T Haar fidelities, with deviation TAIL_DELTA.
TAIL_T = 8
TAIL_DELTA = 0.2
# Proposition 1's tail check averages PROP1_T ensemble fidelities, with deviation PROP1_DELTA.
PROP1_T = 4
PROP1_DELTA = 0.25


@dataclass(frozen=True)
class SuiteParams:
    """Monte Carlo of the two tail checks: repeated averages and their seed.
    The variance and moment checks are exact and take neither."""

    repeats: int = 2000
    seed: int = 0x0F0F

    def __post_init__(self):
        if self.repeats < 1:
            raise ParameterError(f"repeats must be >= 1, got {self.repeats}")


def _one_sided(name, bound, empirical, slack, vacuous_above, note="") -> BoundCheck:
    vacuous = bound > vacuous_above
    if vacuous and not note:
        note = "bound exceeds the trivial range; check is vacuous"
    return BoundCheck(name, bound, empirical, slack, empirical <= bound + slack, vacuous, note)


def _haar_columns(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """First columns of `count` Haar unitaries, shape (count, d), without QR.

    The phase-fixed QR of a Ginibre matrix has first column z0 / |z0|, z0 its
    first column, so only z0 is drawn: a (count, d) block of real parts, then
    one of imaginary parts.
    """
    cols = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    cols /= np.linalg.norm(cols, axis=1, keepdims=True)
    return cols


def _check_draws(name: str, reps: int, t: int, draw_bytes: int) -> None:
    """Refuse reps x t Monte Carlo draws of draw_bytes each past MC_MEMORY_CAP."""
    need = reps * t * draw_bytes
    if need > MC_MEMORY_CAP:
        raise CapacityError(
            f"{reps} repeats of the {name} check need {need / 2**20:.0f} MiB of"
            f" Monte Carlo draws, over the {MC_MEMORY_CAP >> 20} MiB cap"
        )


def variance_check(channel) -> BoundCheck:
    """Exact Haar variance of the gate fidelity, E[p^2] - F^2, against 26/d."""
    ch = _checked_channel(channel)
    var = haar_second_moment(ch) - ch.exact_fidelity**2
    return _one_sided("haar-variance <= 26/d", 26.0 / ch.dim, var, EXACT_SLACK, 0.25)


def tail_check(channel, params: SuiteParams = SuiteParams()) -> BoundCheck:
    """Tail of the t-fold Haar average against 4 exp(-delta'^2 d t / 256)."""
    ch = _checked_channel(channel)
    d, fbar = ch.dim, ch.exact_fidelity
    t, dlt, reps = TAIL_T, TAIL_DELTA, params.repeats
    # real and imaginary Gaussians and their complex sum, then a fidelity and its clip
    _check_draws("haar-tail", reps, t, 32 * d + 16)
    rng = _generator(params.seed, "harness", 2)
    fids = _fidelity_columns(ch, _haar_columns(d, reps * t, rng)).reshape(reps, t)
    emp = float(np.mean(np.abs(fids.mean(axis=1) - fbar) > dlt))
    bound = 4.0 * math.exp(-(dlt**2) * d * t / 256.0)
    slack = 3.0 * math.sqrt(emp * (1.0 - emp) / reps) + 3.0 / reps
    return _one_sided(f"haar-tail(t={t}, delta'={dlt})", bound, emp, slack, 1.0)


def moment_gap_checks(channel, ensemble: UnitaryEnsemble, lambda2=None, lambda4=None) -> list:
    """Ensemble-vs-Haar centered moment gaps at l = 1, 2 with shifts a in {0, F}.

    The printed bound is lambda_{2l} ((1+|a|) d)^l. Both sides are exact: the
    ensemble side averages its fidelity table, and the Haar side of
    E[(p - a)^l] is F - a at l = 1 and E[p^2] - 2aF + a^2 at l = 2.
    """
    ch = _checked_channel(channel)
    d, fbar = ch.dim, ch.exact_fidelity
    lam = {1: lambda_t(ensemble, 2, lambda2), 2: lambda_t(ensemble, 4, lambda4)}
    haar_m2 = haar_second_moment(ch)
    table = _fidelity_table(ch, ensemble)
    checks = []
    for l in (1, 2):
        for a in (0.0, fbar):
            ens_side = float(np.mean((table - a) ** l))
            haar_side = fbar - a if l == 1 else haar_m2 - 2.0 * a * fbar + a * a
            gap = abs(ens_side - haar_side)
            bound = lam[l] * ((1.0 + abs(a)) * d) ** l
            checks.append(
                _one_sided(
                    f"moment-gap(l={l}, a={a:.4g})", bound, gap, EXACT_SLACK, (1.0 + abs(a)) ** l
                )
            )
    return checks


def prop1_tail_check(
    channel, ensemble: UnitaryEnsemble, lambda4=None, params: SuiteParams = SuiteParams()
) -> BoundCheck:
    """Tail of the t-average under iid ensemble draws vs the l = 1 moment bound."""
    ch = _checked_channel(channel)
    d, fbar = ch.dim, ch.exact_fidelity
    t, dlt, reps = PROP1_T, PROP1_DELTA, params.repeats
    # an int64 index and the fidelity it gathers, and a share of the repeat's mean (~18 bytes)
    _check_draws("qtpe-tail", reps, t, 24)
    lam4 = lambda_t(ensemble, 4, lambda4)
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
    """Every bound check on one channel and ensemble. An unclaimed lambda_2 or
    lambda_4 is computed once here and shared by the checks that read it."""
    ch = _checked_channel(channel)
    lam2, lam4 = lambda_t(ensemble, 2, lambda2), lambda_t(ensemble, 4, lambda4)
    report = SuiteReport()
    report.checks.append(variance_check(ch))
    report.checks.append(tail_check(ch, params))
    report.checks.extend(moment_gap_checks(ch, ensemble, lam2, lam4))
    report.checks.append(prop1_tail_check(ch, ensemble, lam4, params))
    return report


# ---------------------------------------------------------------------------
# exact PRG certificate


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

    @property
    def check(self) -> BoundCheck:
        return BoundCheck(
            f"prg-exhaustive(n={self.n}, k={self.k}, theta={self.theta:g})",
            self.theta, self.worst_l1, 0.0, self.passed, False,
            f"r={self.r}, subsets={self.subsets_checked}, worst parity bias {self.worst_parity_bias:.3g}",
        )


def exhaustive_bias_check(n: int, k: int, theta: float) -> BiasReport:
    """Certify every <= k-subset of the powering tape within theta in L1, exactly.

    Output bit i of seed (x, y) is <x^(i+1), y>, so the XOR of a set T of
    outputs is <a, y> with a = sum over i in T of x^(i+1). Summed over y,
    (-1)^<a, y> is 2^m when a = 0 and 0 otherwise, so T's character sum over
    all 2^r seeds is 2^m times the number of roots x in GF(2^m) of that sum:
    a count over the 2^m values of x, not the 2^(2m) seeds (the argument
    behind the construction's bias bound, Alon-Goldreich-Hastad-Peralta 1992).
    Each k-set's joint law is then an integer Walsh-Hadamard transform of the
    character sums of its sub-subsets (the Vazirani XOR lemma), and every
    subset's parity bias is its own character sum over the seeds. Every count is an exact
    integer and 2^r is a power of two, so the L1 distances and biases are the
    exact rationals an enumeration gives.

    Refused with CapacityError when r exceeds EXHAUSTIVE_R_CAP or the power
    table, character sums and working block would exceed CERT_MEMORY_CAP bytes.
    """
    m = tape_field_degree(k, n, theta_log2_of(theta))
    r = 2 * m
    if r > EXHAUSTIVE_R_CAP:
        raise CapacityError(f"exhaustive enumeration needs r <= {EXHAUSTIVE_R_CAP}, got {r}")
    # n uint16 powers per x, one int64 per subset, and the largest working
    # block: a transform's int64 spectrum with its butterfly temporaries
    need = 2 * (n << m) + 8 * sum(math.comb(n, j) for j in range(1, k + 1)) + 32 * _BLOCK_ENTRIES
    if need > CERT_MEMORY_CAP:
        raise CapacityError(
            f"the certificate for n={n}, k={k}, r={r} needs {need / 2**20:.0f} MiB of powers,"
            f" character sums and working blocks, over the {CERT_MEMORY_CAP >> 20} MiB cap"
        )
    sums = _root_count_sums(_power_table(GF2mField(m), n), k)
    subsets, worst_l1, worst_bias = _walsh_hadamard_laws(sums, 1 << r)
    return BiasReport(n, k, theta, r, subsets, worst_l1, worst_bias, worst_l1 <= theta)


def _field_mul(a: np.ndarray, b: np.ndarray, gf: GF2mField) -> np.ndarray:
    """Elementwise GF(2^m) product of int64 arrays (m <= 31)."""
    acc = np.zeros_like(a)
    for bit in range(gf.m):
        acc ^= np.where((b >> bit) & 1, a << bit, 0)
    for bit in range(2 * gf.m - 2, gf.m - 1, -1):
        acc ^= np.where((acc >> bit) & 1, gf.modulus << (bit - gf.m), 0)
    return acc


def _power_table(gf: GF2mField, n: int) -> np.ndarray:
    """powers[i, x] = x^(i+1) for every x in GF(2^m), as uint16 (m <= 16;
    EXHAUSTIVE_R_CAP keeps m <= 12)."""
    xs = np.arange(1 << gf.m, dtype=np.int64)
    powers = np.empty((n, len(xs)), dtype=np.uint16)
    power = xs
    for i in range(n):
        powers[i] = power
        power = _field_mul(power, xs, gf)
    return powers


def _subset_blocks(n: int, j: int, rows: int):
    """Every j-subset of range(n) in lexicographic order, as int64 blocks of
    at most `rows` rows, one sorted subset a row."""
    combos = itertools.combinations(range(n), j)
    while block := list(itertools.islice(combos, rows)):
        yield np.array(block, dtype=np.int64)


def _colex_ranks(binom: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Colex rank sum_p C(t_p, p) of each sorted row t_1 < ... < t_j, with
    binom[c, j] = C(c, j)."""
    return binom[subsets, np.arange(1, subsets.shape[1] + 1)].sum(axis=1)


def _binomials(n: int, k: int) -> np.ndarray:
    return np.array([[math.comb(c, j) for j in range(k + 1)] for c in range(n)], dtype=np.int64)


def _root_count_sums(powers: np.ndarray, k: int) -> list:
    """sums[j][colex rank of T] = the character sum over every seed (x, y) of
    each j-set T of output bits, j = 1..k: 2^m times the number of x whose
    powers over T XOR to zero. `powers` is _power_table's (n, 2^m) table."""
    n, size = powers.shape
    m = size.bit_length() - 1
    binom = _binomials(n, k)
    sums = [None]
    for j in range(1, k + 1):
        sums.append(np.empty(math.comb(n, j), dtype=np.int64))
        for block in _subset_blocks(n, j, max(1, _BLOCK_ENTRIES // size)):
            acc = powers[block[:, 0]]
            for p in range(1, j):
                acc ^= powers[block[:, p]]
            roots = np.count_nonzero(acc == 0, axis=1).astype(np.int64)
            sums[j][_colex_ranks(binom, block)] = roots << m
    return sums


def _walsh_hadamard_laws(sums: list, seeds: int) -> tuple:
    """(subsets, worst L1 from uniform, worst parity bias) over every nonempty
    subset of at most k outputs, from their character sums over `seeds` seeds
    (sums[j] indexed by colex rank, as _root_count_sums gives them).

    Only the k-sets are transformed. A smaller set lies inside some k-set, as
    k <= n, and its law is a marginal of that k-set's law; marginalising does
    not increase the L1 distance from uniform, so the worst L1 is at size k.
    The parity biases and the subset count still cover every size.

    The results are exact when `seeds` is a power of two below 2^50.
    """
    n, k = len(sums[1]), len(sums) - 1
    binom = _binomials(n, k)
    worst_bias = max(int(np.abs(s).max()) for s in sums[1:]) / seeds
    # picks[u]: the positions within a k-set of its sub-subset u (bit p selects position p)
    picks = [[p for p in range(k) if u >> p & 1] for u in range(1 << k)]
    worst = 0
    for block in _subset_blocks(n, k, max(1, _BLOCK_ENTRIES >> k)):
        spectrum = np.zeros((len(block), 1 << k), dtype=np.int64)
        for u in range(1, 1 << k):
            spectrum[:, u] = sums[len(picks[u])][_colex_ranks(binom, block[:, picks[u]])]
        # Walsh-Hadamard butterflies: entry v becomes 2^k * count(v) - seeds
        for h in (1 << p for p in range(k)):
            pairs = spectrum.reshape(len(block), -1, 2, h)
            spectrum = np.stack((pairs[:, :, 0] + pairs[:, :, 1],
                                 pairs[:, :, 0] - pairs[:, :, 1]), axis=2)
        worst = max(worst, int(np.abs(spectrum).reshape(len(block), -1).sum(axis=1).max()))
    return sum(len(s) for s in sums[1:]), worst / (seeds << k), worst_bias
