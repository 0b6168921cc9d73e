"""Statistical harnesses: confidence contracts, bound checks, PRG certificate.

All bound checks are one-sided (empirical <= bound + slack), never tightness
claims; at desk scale most printed bounds exceed the trivial range of the
quantity and are flagged vacuous. The variance and moment checks are exact, with
a rounding-only slack; the tail checks are Monte Carlo, with a 3 sigma slack.
The PRG certificate is exact too: it counts, for each small set of tape
outputs, the field elements x whose powers over the set sum to zero, and turns
those root counts into every subset's joint law over all 2^r seeds. A set and
its translates have one law, so only the sets holding position 0 are counted,
one per translation class. The powers come from GF(2^m)'s log and antilog
tables, walked with a multiply-by-g table.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .ensembles import UnitaryEnsemble, checked_lambda, lambda_t
from .errors import CapacityError, ParameterError
from .estimators import _checked_channel, _fidelity_columns, _fidelity_table
from .prg import GF2mField, KwisePlan, theta_log2_of
from .quantum import coordinate_fidelities, haar_second_moment, kernel_coordinates
# Not called here any more (the bound suite samples first columns without QR,
# and takes lambda from ensembles.lambda_t); kept importable from this module,
# where perfbench/spans.py looks them up.
from .ensembles import tpe_lambda  # noqa: F401
from .quantum import haar_unitaries_batch  # noqa: F401
from .streams import _generator, split_seed

# The exact PRG certificate is only attempted up to this seed length (m <= 12).
EXHAUSTIVE_R_CAP = 24
# Bytes the certificate may hold in powers, class sums and working blocks.
CERT_MEMORY_CAP = 1 << 27
# Entries per numpy block in the certificate's transform; 32 bytes an entry bound
# its working block, which also holds a slice of x values' XORs.
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

    @property
    def spread(self) -> float:
        """Standard deviation of the estimates: the contract's margin is epsilon against it."""
        return float(np.std(self.estimates))


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
    one of imaginary parts, each written into the complex block in place.
    """
    cols = np.empty((count, d), dtype=np.complex128)
    cols.real = rng.standard_normal((count, d))
    cols.imag = rng.standard_normal((count, d))
    cols /= np.linalg.norm(cols, axis=1, keepdims=True)
    return cols


# The tail check's kept Haar samples by (seed, d, count), oldest first, and the
# lock a check holds across its lookup, eviction, draw and insert, as
# prg._CACHE_LOCK is held for the tape caches.
_SAMPLES: dict = {}
_SAMPLES_LOCK = threading.Lock()


def _haar_sample(seed: int, d: int, count: int) -> np.ndarray | None:
    """The tail check's Haar sample for one seed as read-only kernel coordinates,
    8 d^2 bytes a column, or None when it is not kept. It does not depend on the
    channel, so it is kept: a suite run over several channels at several d draws
    each d's sample and builds its r(c) once, however often it runs. Before a draw
    the oldest samples are dropped until the kept ones and the new one fit
    MC_MEMORY_CAP // 2; one that does not fit there alone (d = 64 at the default
    repeats) is not kept."""
    key = (seed, d, count)
    with _SAMPLES_LOCK:
        if key in _SAMPLES:
            return _SAMPLES[key]
        need = 8 * d * d * count
        if need > MC_MEMORY_CAP // 2:
            return None
        while _SAMPLES and sum(s.nbytes for s in _SAMPLES.values()) + need > MC_MEMORY_CAP // 2:
            del _SAMPLES[next(iter(_SAMPLES))]
        _SAMPLES[key] = kernel_coordinates(_haar_columns(d, count, _generator(seed, "harness", 2)))
        return _SAMPLES[key]


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
    return _variance(ch, haar_second_moment(ch))


def _variance(ch, haar_m2: float) -> BoundCheck:
    """variance_check on the channel's Haar E[p^2]."""
    var = haar_m2 - ch.exact_fidelity**2
    return _one_sided("haar-variance <= 26/d", 26.0 / ch.dim, var, EXACT_SLACK, 0.25)


def tail_check(channel, params: SuiteParams = SuiteParams()) -> BoundCheck:
    """Tail of the t-fold Haar average against 4 exp(-delta'^2 d t / 256)."""
    ch = _checked_channel(channel)
    d, fbar = ch.dim, ch.exact_fidelity
    t, dlt, reps = TAIL_T, TAIL_DELTA, params.repeats
    # the complex column and one real Gaussian block filling it, then a fidelity
    # and its clip: within 32 d + 16 bytes a draw
    _check_draws("haar-tail", reps, t, 32 * d + 16)
    coords = _haar_sample(params.seed, d, reps * t)
    if coords is None:  # too large to keep: the kernel on fresh columns
        fids = _fidelity_columns(ch, _haar_columns(d, reps * t, _generator(params.seed, "harness", 2)))
    else:
        fids = coordinate_fidelities(ch, coords)
    fids = fids.reshape(reps, t)
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
    ch = _checked_channel(channel, ensemble)
    lam2, lam4 = _lambdas(ensemble, lambda2, lambda4)
    return _moment_gaps(ch, lam2, lam4, haar_second_moment(ch), _fidelity_table(ch, ensemble))


def _lambdas(ensemble: UnitaryEnsemble, lambda2, lambda4) -> tuple:
    """(lambda_2, lambda_4): both claims are checked first, and lambda_4 is taken
    before lambda_2, so a t = 4 twirl over its cap is refused before the t = 2 one runs."""
    for claim in (lambda2, lambda4):
        if claim is not None:
            checked_lambda(claim)
    lam4 = lambda_t(ensemble, 4, lambda4)
    return lambda_t(ensemble, 2, lambda2), lam4


def _moment_gaps(ch, lam2: float, lam4: float, haar_m2: float, table: np.ndarray) -> list:
    """moment_gap_checks on the channel's Haar E[p^2] and the ensemble's fidelity table."""
    d, fbar = ch.dim, ch.exact_fidelity
    lam = {1: lam2, 2: lam4}
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
    ch = _checked_channel(channel, ensemble)
    _check_prop1_draws(params)
    return _prop1_tail(ch, lambda_t(ensemble, 4, lambda4), _fidelity_table(ch, ensemble), params)


def _check_prop1_draws(params: SuiteParams) -> None:
    # an int64 index and the fidelity it gathers, and a share of the repeat's mean (~18 bytes)
    _check_draws("qtpe-tail", params.repeats, PROP1_T, 24)


def _prop1_tail(ch, lam4: float, table: np.ndarray, params: SuiteParams) -> BoundCheck:
    """prop1_tail_check on the ensemble's fidelity table, its draws already checked."""
    d, fbar = ch.dim, ch.exact_fidelity
    t, dlt, reps = PROP1_T, PROP1_DELTA, params.repeats
    rng = _generator(params.seed, "harness", 4)
    idx = rng.integers(0, len(table), size=(reps, t))
    means = table[idx].mean(axis=1)
    emp = float(np.mean(np.abs(means - fbar) > dlt))
    bound = dlt**-2 * (26.0 / (d * t) + lam4 * (2.0 * d) ** 2)
    slack = 3.0 * math.sqrt(emp * (1.0 - emp) / reps) + 3.0 / reps
    return _one_sided(f"qtpe-tail(l=1, t={t}, delta'={dlt})", bound, emp, slack, 1.0)


def bound_validation_suite(
    channel, ensemble: UnitaryEnsemble, lambda2=None, lambda4=None, params: SuiteParams = SuiteParams()
) -> SuiteReport:
    """Every bound check on one channel and ensemble. Each input two checks
    share is computed once here: an unclaimed lambda_2 or lambda_4, the Haar
    E[p^2] and the ensemble's fidelity table."""
    ch = _checked_channel(channel, ensemble)
    lam2, lam4 = _lambdas(ensemble, lambda2, lambda4)
    haar_m2 = haar_second_moment(ch)
    report = SuiteReport([_variance(ch, haar_m2), tail_check(ch, params)])
    _check_prop1_draws(params)
    table = _fidelity_table(ch, ensemble)
    report.checks.extend(_moment_gaps(ch, lam2, lam4, haar_m2, table))
    report.checks.append(_prop1_tail(ch, lam4, table, params))
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
    subset's parity bias is its own character sum over the seeds.

    A set and its translates have one law: <x^(i+1), y> = <x^(i+1-s), M^T y>
    with M the multiplication by x^s, a bijection of y for x != 0, and every
    output is 0 for x = 0. So only the translation classes are counted and
    transformed, each by its member T - min T, the one that holds position 0:
    sum_j C(n-1, j-1) sets of size j <= k instead of sum_j C(n, j), and
    C(n-1, k-1) transforms instead of C(n, k). `subsets_checked` still counts
    every subset. Every count is an exact integer and 2^r is a power of two, so
    the L1 distances and biases are the exact rationals an enumeration gives.

    Refused with CapacityError when r exceeds EXHAUSTIVE_R_CAP or the power
    table, class sums and working blocks would exceed CERT_MEMORY_CAP bytes.
    """
    plan = KwisePlan(n, k, 1, theta_log2_of(theta))
    m, r = plan.field_degree, plan.r
    if r > EXHAUSTIVE_R_CAP:
        raise CapacityError(f"exhaustive enumeration needs r <= {EXHAUSTIVE_R_CAP}, got {r}")
    # n uint16 powers per x, one int64 per class, and the larger working
    # block: a transform's int64 spectrum with its gather temporaries, or
    # a slice of x values, 3 bytes a value and 8 more for each class of size
    # < k (_root_count_sums)
    classes = sum(math.comb(n - 1, j) for j in range(k))
    work = max(32 * _BLOCK_ENTRIES, 11 * (classes - math.comb(n - 1, k - 1)))
    need = 2 * (n << m) + 8 * classes + work
    if need > CERT_MEMORY_CAP:
        raise CapacityError(
            f"the certificate for n={n}, k={k}, r={r} needs {need / 2**20:.0f} MiB of powers,"
            f" class sums and working blocks, over the {CERT_MEMORY_CAP >> 20} MiB cap"
        )
    sums = _root_count_sums(_power_table(GF2mField(m), n), k)
    subsets, worst_l1, worst_bias = _walsh_hadamard_laws(sums, 1 << r, n)
    return BiasReport(n, k, theta, r, subsets, worst_l1, worst_bias, worst_l1 <= theta)


def _power_table(gf: GF2mField, n: int) -> np.ndarray:
    """powers[i, x] = x^(i+1) for every x in GF(2^m), as uint16 (m <= 16;
    EXHAUSTIVE_R_CAP keeps m <= 12). With antilog[j] = g^j for g the least
    generator of the cyclic group GF(2^m)*, row i is one gather, x^(i+1) =
    antilog[(i+1) log(x) mod (2^m - 1)] for x != 0, and 0 stays 0.

    Each candidate g's powers are walked through times_g[x] = g x, built by
    linearity from the m products g t^b: times_g[x] is the XOR of those whose
    bit b is set in x."""
    order = (1 << gf.m) - 1
    for g in itertools.count(1):
        times_g, row = [0], g
        for _ in range(gf.m):
            times_g += [v ^ row for v in times_g]
            row = gf.mul_t(row)
        antilog = [1]
        while (power := times_g[antilog[-1]]) != 1:
            antilog.append(power)
        if len(antilog) == order:
            break
    antilog = np.array(antilog, dtype=np.uint16)
    logs = np.argsort(antilog)  # the inverse permutation: logs[x - 1] = log(x)
    powers = np.zeros((n, order + 1), dtype=np.uint16)
    for i in range(n):
        powers[i, 1:] = antilog[logs * (i + 1) % order]
    return powers


def _binomials(n: int, k: int) -> np.ndarray:
    """binom[c, j] = C(c, j) for c < n and j <= k, as int64."""
    return np.array([[math.comb(c, j) for j in range(k + 1)] for c in range(n)], dtype=np.int64)


def _colex_sets(binom: np.ndarray, ranks: np.ndarray, q: int) -> np.ndarray:
    """The q-sets of colex rank `ranks`, one sorted row each: the largest
    element is the largest c with C(c, q) <= rank, and the rest is the
    (q-1)-set of rank rank - C(c, q). binom is _binomials' table."""
    sets = np.empty((len(ranks), q), dtype=np.int64)
    rest = ranks.copy()
    for p in range(q, 0, -1):
        sets[:, p - 1] = np.searchsorted(binom[:, p], rest, side="right") - 1
        rest -= binom[sets[:, p - 1], p]
    return sets


def _root_count_sums(powers: np.ndarray, k: int) -> list:
    """sums[j][rank] = the character sum over every seed (x, y) of one class
    j-set {0} < t_1 < ... < t_(j-1) of output bits, j = 1..k: 2^m times the
    number of x whose powers over the set XOR to zero. The rank is the colex
    rank of {t_1 - 1, ..., t_(j-1) - 1}, sum_p C(t_p - 1, p). `powers` is
    _power_table's (n, 2^m) table.

    The class j-sets {0} + Q + {d} with largest element d fill ranks
    C(d-1, j-1) up to C(d, j-1), and their (j-1)-sets {0} + Q are the first
    C(d-1, j-2) class (j-1)-sets. So with acc holding the XOR of each class
    (j-1)-set's rows, rank order, each block of root counts is one comparison,
    acc[:c] == powers[d], and acc[:c] ^ powers[d] is the next level's block.
    Root counts add over x, so the levels run a slice of x values at a time.
    Each class of size < k holds 3 bytes per value in the slice (its XORs,
    kept two levels at a time, and a comparison) and an int64 count; slices
    are as wide as 32 _BLOCK_ENTRIES bytes allow, and one value at least.
    """
    n, size = powers.shape
    m = size.bit_length() - 1
    sums = [None] + [np.zeros(math.comb(n - 1, j - 1), dtype=np.int64) for j in range(1, k + 1)]
    inner = max(1, sum(len(s) for s in sums[1:k]))
    width = max(1, (32 * _BLOCK_ENTRIES // inner - 8) // 3)
    for lo in range(0, size, width):
        block = powers[:, lo : lo + width]
        sums[1][0] += np.count_nonzero(block[0] == 0)
        acc = block[:1]
        for j in range(2, k + 1):
            grown = np.empty((len(sums[j]), block.shape[1]), dtype=np.uint16) if j < k else None
            for d in range(j - 1, n):
                a, b = math.comb(d - 1, j - 1), math.comb(d, j - 1)
                sums[j][a:b] += np.count_nonzero(acc[: b - a] == block[d], axis=1)
                if grown is not None:
                    np.bitwise_xor(acc[: b - a], block[d], out=grown[a:b])
            acc = grown
    for s in sums[1:]:
        s <<= m
    return sums


def _walsh_hadamard_laws(sums: list, seeds: int, n: int | None = None) -> tuple:
    """(subsets, worst L1 from uniform, worst parity bias) over every nonempty
    subset of at most k outputs, from their character sums over `seeds` seeds.

    sums[j] is indexed by colex rank. With n = None it holds every j-subset of
    range(len(sums[1])), the sums of any matrix. Given the tape length n it
    holds one set per translation class, _root_count_sums' layout: a set's
    sum is then its class's, that of the translate holding position 0.

    Only the k-sets are transformed, a class's representative standing for
    the whole class. A smaller set lies inside some k-set, as k <= n, and its
    law is a marginal of that k-set's law; marginalising does not increase
    the L1 distance from uniform, so the worst L1 is at size k. The parity
    biases and the subset count still cover every size.

    The results are exact when `seeds` is a power of two below 2^50.
    """
    k = len(sums) - 1
    shift = n is not None  # drop each set's least element and count from it
    n = n if shift else len(sums[1])
    binom = _binomials(n, k)
    worst_bias = max(max(int(s.max()), -int(s.min())) for s in sums[1:]) / seeds  # no |s| copy
    # by size j: the sub-subsets u of a k-set (bit p selects position p) and their positions
    picks = [[u for u in range(1, 1 << k) if u.bit_count() == j] for j in range(k + 1)]
    where = [np.array([[p for p in range(k) if u >> p & 1] for u in us]) for us in picks]
    rows = max(1, _BLOCK_ENTRIES >> k)
    worst = 0
    for lo in range(0, len(sums[k]), rows):
        ranks = np.arange(lo, min(lo + rows, len(sums[k])), dtype=np.int64)
        sets = _colex_sets(binom, ranks, k - shift) + shift
        if shift:
            sets = np.hstack((np.zeros((len(ranks), 1), dtype=np.int64), sets))
        spectrum = np.zeros((len(ranks), 1 << k), dtype=np.int64)
        for j in range(1, k + 1):
            # the colex rank of each sub-subset of size j, a term per position
            least = sets[:, where[j][:, 0]] + 1 if shift else 0
            rank = 0
            for p in range(shift, j):
                rank = rank + binom[sets[:, where[j][:, p]] - least, p + 1 - shift]
            spectrum[:, picks[j]] = sums[j][rank]
        # Walsh-Hadamard butterflies, in place on the paired views: (a, b) becomes
        # (a + b, a - b), and entry v ends as 2^k * count(v) - seeds
        for h in (1 << p for p in range(k)):
            pairs = spectrum.reshape(len(ranks), -1, 2, h)
            a, b = pairs[:, :, 0], pairs[:, :, 1]
            a += b
            b *= -2
            b += a
        worst = max(worst, int(np.abs(spectrum).reshape(len(ranks), -1).sum(axis=1).max()))
    subsets = sum(math.comb(n, j) for j in range(1, k + 1))
    return subsets, worst / (seeds << k), worst_bias
