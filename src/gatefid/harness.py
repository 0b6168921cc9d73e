"""Statistical harnesses: confidence contracts, bound checks, PRG enumeration.

All bound checks are one-sided (empirical <= bound + Monte Carlo slack) and
never treated as tightness claims; at desk scale most printed bounds exceed
the trivial range of the quantity and are flagged vacuous.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .ensembles import UnitaryEnsemble, tpe_lambda
from .errors import CapacityError, ParameterError
from .estimators import _fidelity_columns, _fidelity_table, _resolve_channel
from .prg import GF2mField, tape_field_degree, tape_seed_length
from .quantum import haar_unitaries_batch
from .streams import _generator, split_seed

# Exhaustive PRG enumeration is only attempted up to this seed length.
EXHAUSTIVE_R_CAP = 24


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

    def summary_rows(self) -> list:
        return [
            {
                "repeats": self.repeats,
                "epsilon": self.epsilon,
                "delta": self.delta,
                "oracle": self.oracle,
                "fraction_within": self.fraction_within,
                "threshold": self.threshold,
                "verdict": "PASS" if self.passed else "FAIL",
            }
        ]


def harness_confidence(
    run, oracle: float, epsilon: float, delta: float, repeats: int, master_seed: int, jobs: int = 1
) -> HarnessReport:
    """Run `run(seed)` `repeats` times on split seeds; PASS iff the fraction of
    runs within epsilon of the oracle is at least 1 - delta - 3 sigma."""
    if repeats < 1:
        raise ParameterError("repeats must be >= 1")
    seeds = [split_seed(master_seed, i) for i in range(repeats)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, seeds))
    else:
        results = [run(s) for s in seeds]
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


def _haar_fidelities(ch, d, count, rng) -> np.ndarray:
    batch = haar_unitaries_batch(d, count, rng)
    return _fidelity_columns(ch, batch[:, :, 0])


def variance_check(channel, params: SuiteParams = SuiteParams()) -> BoundCheck:
    """Empirical Haar variance of the gate fidelity against the 26/d bound."""
    ch, _ = _resolve_channel(channel)
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
    ch, fbar = _resolve_channel(channel)
    d = ch.dim
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
    ch, fbar = _resolve_channel(channel)
    d = ch.dim
    lam = {
        1: lambda2 if lambda2 is not None else tpe_lambda(ensemble, 2).lambda_value,
        2: lambda4 if lambda4 is not None else tpe_lambda(ensemble, 4).lambda_value,
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
    ch, fbar = _resolve_channel(channel)
    d = ch.dim
    lam4 = lambda4 if lambda4 is not None else tpe_lambda(ensemble, 4).lambda_value
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
    """Enumerate every seed; certify every <= k-subset within theta in L1.

    The joint distribution of each subset is tabulated over all 2^r seeds;
    parity biases come from the same tables via the +-1 character sums.
    """
    r = tape_seed_length(k, n, theta)
    if r > EXHAUSTIVE_R_CAP:
        raise CapacityError(f"exhaustive enumeration needs r <= {EXHAUSTIVE_R_CAP}, got {r}")
    m = tape_field_degree(k, n, theta)
    gf = GF2mField(m)
    size = 1 << m
    powers = np.zeros((size, n), dtype=np.uint32)
    for x in range(1, size):
        cur = x
        for i in range(n):
            powers[x, i] = cur
            cur = gf.mul(cur, x)
    ys = np.arange(size, dtype=np.uint32)
    # bit for (x, y, i) is the parity of popcount(x^(i+1) & y)
    bits = np.bitwise_count(powers[:, None, :] & ys[None, :, None]).astype(np.uint8) & 1
    bits = bits.reshape(size * size, n)
    worst_l1 = 0.0
    worst_bias = 0.0
    total = size * size
    subsets = 0
    signs_cache = {}
    for j in range(1, k + 1):
        if j not in signs_cache:
            outcomes = np.arange(1 << j)
            signs_cache[j] = 1.0 - 2.0 * (np.bitwise_count(outcomes) & 1).astype(np.float64)
        signs = signs_cache[j]
        for subset in itertools.combinations(range(n), j):
            values = np.zeros(total, dtype=np.int64)
            for pos, col in enumerate(subset):
                values += bits[:, col].astype(np.int64) << pos
            counts = np.bincount(values, minlength=1 << j)
            probs = counts / total
            l1 = float(np.abs(probs - 1.0 / (1 << j)).sum())
            bias = float(abs(np.dot(signs, probs)))
            worst_l1 = max(worst_l1, l1)
            worst_bias = max(worst_bias, bias)
            subsets += 1
    return BiasReport(n, k, theta, r, subsets, worst_l1, worst_bias, worst_l1 <= theta)
