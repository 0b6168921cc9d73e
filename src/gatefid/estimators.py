"""The five average-fidelity estimation algorithms with exact bit ledgers.

All five run one experiment and differ only in how they draw unitary indices:
Haar gaussians, iid indices, one k-wise tape, one single draw, or two phases.
Each estimator checks its design certificate or preconditions, calls a pure
planner (every sample count and pseudorandomness parameter from epsilon,
delta, dimension and ensemble size), draws its indices and finishes. The
private ``_Run`` owns the shared steps: the timer, the channel type and
dimension checks; every counted draw, one call that takes bits from a
BitSource and ledgers them under a label; the k-wise tape draw; the
precondition gate (epsilon < F/2, PreconditionError unless waived, a waived
run diagnostic with its failures in ``flags``); and the finish, which checks
that the ledger equals the bits drawn and decides each outcome bit by one
Bernoulli draw on the exactly simulated success probability, from a separate
uncounted stream (measurement models quantum, not classical, randomness).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ensembles import DENSE_CAP, UnitaryEnsemble, design_epsilon_from_lambda, tpe_lambda
from .errors import (
    CapacityError,
    NumericalError,
    ParameterError,
    PlanningError,
    PreconditionError,
)
from .prg import (
    RandomnessLedger,
    generate_tape,
    index_width,
    indices_from_bits,
    sampling_seed_length,
    tape_field_degree,
    tape_seed_length,
)
from .quantum import KrausChannel, gate_fidelities, phase_fixed_qr
# Not called here any more (tables come from one batched kernel call); kept
# importable from this module, where perfbench/spans.py looks it up.
from .quantum import gate_fidelity_vector  # noqa: F401
from .streams import BitSource, measurement_rng

ALGORITHMS = ("naive-haar", "design-iid", "kwise-design", "single-qtpe", "two-phase")

# An ensemble with second singular value below this is treated as an exact 2-design.
EXACT_DESIGN_LAMBDA = 1e-10
# Bits drawn per Haar unitary: 2 d^2 Box-Muller gaussians at 64 bits per uniform.
HAAR_BITS_PER_DIM2 = 128
# Phase-1 sample cap for the two-phase algorithm.
T_CAP = 1 << 20

_E_THIRD = math.exp(-1.0 / 3.0)


def _check_eps_delta(epsilon: float, delta: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")


def _checked_channel(channel) -> KrausChannel:
    """The channel itself; ParameterError unless it is a KrausChannel."""
    if not isinstance(channel, KrausChannel):
        raise ParameterError(f"expected a KrausChannel, got {type(channel)!r}")
    return channel


def _fidelity_table(ch: KrausChannel, ensemble: UnitaryEnsemble) -> np.ndarray:
    """Success probability of every ensemble member, in ensemble order."""
    return gate_fidelities(ch, ensemble.unitaries[:, :, 0])


@dataclass
class EstimationResult:
    algorithm: str
    d: int
    epsilon: float
    delta: float
    estimate: float
    exact_reference: float
    seed: int
    ledger: RandomnessLedger
    unitary_ids: np.ndarray
    probabilities: np.ndarray
    bits: np.ndarray
    plan: object
    diagnostic: bool = False
    flags: tuple = ()
    elapsed_s: float = 0.0

    @property
    def n_trials(self) -> int:
        return len(self.bits)

    def to_json_dict(self, include_trials: bool = False, include_elapsed: bool = False) -> dict:
        doc = {
            "algorithm": self.algorithm,
            "d": self.d,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "estimate": self.estimate,
            "exact_reference": self.exact_reference,
            "n_trials": self.n_trials,
            "ledger": self.ledger.as_dicts(),
            "seed": format(self.seed, "x"),
            "diagnostic": self.diagnostic,
        }
        if include_elapsed:
            doc["elapsed_ms"] = self.elapsed_s * 1e3
        if include_trials:
            doc["trials"] = [
                {"index": i, "unitary": int(u), "p": float(p), "bit": int(b)}
                for i, (u, p, b) in enumerate(zip(self.unitary_ids, self.probabilities, self.bits))
            ]
        return doc


# ---------------------------------------------------------------------------
# parameter planners (pure functions; the arithmetic the tests pin down)


@dataclass(frozen=True)
class NaivePlan:
    n: int
    bits_per_unitary: int

    @property
    def total_bits(self) -> int:
        return self.n * self.bits_per_unitary


def plan_naive_haar(epsilon: float, delta: float, d: int, n_override: int | None = None) -> NaivePlan:
    _check_eps_delta(epsilon, delta)
    if n_override is not None and n_override < 1:
        raise ParameterError(f"n_override must be >= 1, got {n_override}")
    n = n_override if n_override is not None else math.ceil(3.0 / epsilon**2 * math.log(2.0 / delta))
    return NaivePlan(n, HAAR_BITS_PER_DIM2 * d * d)


@dataclass(frozen=True)
class IidPlan:
    n: int
    width: int
    budget: float
    lambda2: float
    eps2: float

    @property
    def total_bits(self) -> int:
        return self.n * self.width


@dataclass(frozen=True)
class KwisePlan:
    n: int
    k: int
    theta_log2: float
    width: int
    n_bits: int
    k_bits: int
    field_degree: int
    r: int  # implemented tape seed length, the ledgered value
    r_sampling_formula: int  # the index-sampling seed-length formula, for comparison

    @property
    def total_bits(self) -> int:
        return self.r

    @property
    def theta(self) -> float:
        return 2.0**self.theta_log2 if self.theta_log2 > -1000 else 0.0


def plan_kwise_design(epsilon: float, delta: float, set_size: int) -> KwisePlan:
    """Sample-count and tape parameters for the k-wise design estimator.

    n = ceil(16 log2(1/delta) / eps^2), k = ceil(e^(-1/3) eps^2 n),
    theta = (delta/2) (eps/n)^(eps^2 n / 4); the tape runs at bit level, so
    k and n are scaled by the per-index bit width before sizing the field.
    """
    _check_eps_delta(epsilon, delta)
    n = math.ceil(16.0 * math.log2(1.0 / delta) / epsilon**2)
    k = math.ceil(_E_THIRD * epsilon**2 * n)
    if k < 2:
        raise ParameterError(f"planned independence parameter k = {k} < 2; loosen epsilon/delta")
    theta_log2 = math.log2(delta / 2.0) + (epsilon**2 * n / 4.0) * math.log2(epsilon / n)
    w = index_width(set_size)
    if w == 0:
        raise ParameterError("set of size 1 leaves nothing to sample")
    n_bits = n * w
    k_bits = k * w
    m = tape_field_degree(k_bits, n_bits, theta_log2=theta_log2)
    r = 2 * m
    r_sampling = sampling_seed_length(epsilon, n, set_size, theta_log2=theta_log2)
    return KwisePlan(n, k, theta_log2, w, n_bits, k_bits, m, r, r_sampling)


@dataclass(frozen=True)
class SingleQtpePlan:
    n: int
    width: int
    lambda_required: float
    precondition_failures: tuple

    @property
    def total_bits(self) -> int:
        return self.width


def plan_single_qtpe(epsilon: float, delta: float, d: int, set_size: int) -> SingleQtpePlan:
    _check_eps_delta(epsilon, delta)
    failures = []
    lhs = 108.0 / (epsilon**2 * d)
    if not lhs < delta / 2.0:
        failures.append(
            f"108/(epsilon^2 d) < delta/2 violated: {lhs:g} >= {delta / 2.0:g}"
            f" (needs d > {216.0 / (epsilon**2 * delta):g})"
        )
    n = math.ceil(12.0 * math.log2(4.0 / delta) / epsilon**2)
    return SingleQtpePlan(n, index_width(set_size), 1.0 / (4.0 * d**3), tuple(failures))


@dataclass(frozen=True)
class TwoPhasePlan:
    moment_order: int  # the expander order is four times this
    pool_size: int  # unitaries drawn in phase 1
    lambda_required_log2: float
    n: int
    theta_log2: float
    width_phase1: int
    width_phase2: int
    k: int
    r_phase1: int
    r_phase2: int  # implemented tape seed length; 0 when t == 1
    r_sampling_formula: int  # the two-phase seed-length formula value, for comparison
    precondition_failures: tuple

    @property
    def total_bits(self) -> int:
        return self.r_phase1 + self.r_phase2


def plan_two_phase(epsilon: float, delta: float, d: int, set_size: int) -> TwoPhasePlan:
    """Two-phase parameters with moment order L = ceil(log2(16/delta)):
    pool size t = ceil(2^11 L/(eps^2 d)), required lambda = (eps^2/(2^5 d^2))^L,
    n = ceil(16 log2(4/delta)/eps^2), theta = (delta/4)(eps/n)^(eps^2 n/16),
    and the comparison seed-length formula eps^2 n log2 t + 2 log2(1/theta)."""
    _check_eps_delta(epsilon, delta)
    failures = []
    order = math.ceil(math.log2(16.0 / delta))
    rhs = d ** (1.0 / 6.0) / (10.0 * math.log2(d)) if d > 1 else 0.0
    if not 4.0 * math.log2(16.0 / delta) < rhs:
        failures.append(
            f"4 log2(16/delta) < d^(1/6)/(10 log2 d) violated:"
            f" {4.0 * math.log2(16.0 / delta):g} >= {rhs:g}"
        )
    pool = math.ceil(2.0**11 * order / (epsilon**2 * d))
    if pool > T_CAP:
        raise CapacityError(f"phase-1 sample count t = {pool} exceeds the cap {T_CAP}")
    lambda_req_log2 = order * (2.0 * math.log2(epsilon) - 5.0 - 2.0 * math.log2(d))
    n = math.ceil(16.0 * math.log2(4.0 / delta) / epsilon**2)
    theta_log2 = math.log2(delta / 4.0) + (epsilon**2 * n / 16.0) * math.log2(epsilon / n)
    w1 = index_width(set_size)
    if pool >= 2:
        w2 = index_width(pool)
        k = math.ceil(_E_THIRD * epsilon**2 * n / 4.0)
        if k < 2:
            raise ParameterError(f"phase-2 independence parameter k = {k} < 2")
        r2 = tape_seed_length(k * w2, n * w2, theta_log2=theta_log2)
        r_formula = math.ceil(epsilon**2 * n * math.log2(pool) - 2.0 * theta_log2)
    else:
        w2, k, r2, r_formula = 0, 0, 0, 0
    return TwoPhasePlan(
        order, pool, lambda_req_log2, n, theta_log2, w1, w2, k, pool * w1,
        r2, r_formula, tuple(failures),
    )


# ---------------------------------------------------------------------------
# estimators


class _Run:
    """The steps every estimator shares, from the timer to the result.

    The bit source is created at the first draw, so every planning and
    precondition error still comes before a bad seed is noticed.
    """

    def __init__(self, algorithm: str, channel, epsilon: float, delta: float, seed: int,
                 ensemble: UnitaryEnsemble | None = None):
        self.started = time.perf_counter()
        self.algorithm, self.epsilon, self.delta, self.seed = algorithm, epsilon, delta, seed
        self.channel = _checked_channel(channel)
        if ensemble is not None and self.channel.dim != ensemble.dim:
            raise ParameterError(f"channel dim {self.channel.dim} != ensemble dim {ensemble.dim}")
        self.ledger = RandomnessLedger()
        self.flags: list = []
        self.diagnostic = False

    @cached_property
    def source(self) -> BitSource:
        return BitSource(self.seed)

    def take_bits(self, label: str, count: int) -> np.ndarray:
        """Draw `count` counted bits and ledger them under `label`."""
        bits = self.source.take_bits(count)
        self.ledger.record(label, count)
        return bits

    def take_gaussians(self, label: str, count: int, bits: int) -> np.ndarray:
        """Draw `count` counted normals, ledgered as the planner's `bits`."""
        gauss = self.source.take_gaussians(count)
        self.ledger.record(label, bits)
        return gauss

    def indices(self, label: str, bits: int, set_size: int, n: int) -> np.ndarray:
        """n indices in [0, set_size) decoded from `bits` counted bits."""
        return indices_from_bits(self.take_bits(label, bits), set_size, n).indices

    def tape_indices(self, label: str, r: int, k_bits: int, n_bits: int, theta_log2: float,
                     set_size: int, n: int) -> np.ndarray:
        """n indices in [0, set_size) read from a k-wise tape on r counted seed bits."""
        seed_bits = self.take_bits(label, r)
        tape = generate_tape(k_bits, n_bits, None, seed_bits, theta_log2=theta_log2)
        return indices_from_bits(tape.bits, set_size, n).indices

    def gate(self, plan, extra: list, waive: bool) -> None:
        """Refuse unless waived: the plan's failures, epsilon < F/2, then `extra`.

        A waived run is diagnostic and carries its failures as flags.
        """
        failures = list(plan.precondition_failures)
        half = self.channel.exact_fidelity / 2.0
        if not self.epsilon < half:
            failures.append(f"epsilon < F/2 violated: {self.epsilon:g} >= {half:g}")
        failures.extend(extra)
        if failures and not waive:
            raise PreconditionError("; ".join(failures))
        self.diagnostic = bool(failures)
        self.flags.extend(failures)

    def finish(self, plan, ids: np.ndarray, probs: np.ndarray) -> EstimationResult:
        if self.ledger.total != self.source.total_bits:
            raise NumericalError(
                f"ledger total {self.ledger.total} != bits actually drawn {self.source.total_bits}"
            )
        bits = (measurement_rng(self.seed).random(len(probs)) < probs).astype(np.uint8)
        return EstimationResult(
            algorithm=self.algorithm,
            d=self.channel.dim,
            epsilon=self.epsilon,
            delta=self.delta,
            estimate=float(bits.mean()),
            exact_reference=self.channel.exact_fidelity,
            seed=self.seed,
            ledger=self.ledger,
            unitary_ids=ids,
            probabilities=probs,
            bits=bits,
            plan=plan,
            diagnostic=self.diagnostic,
            flags=tuple(self.flags),
            elapsed_s=time.perf_counter() - self.started,
        )


def estimate_naive_haar(
    channel, epsilon: float, delta: float, seed: int, *, n_override: int | None = None
) -> EstimationResult:
    """Fresh Haar unitary per trial, n = ceil(3 eps^-2 ln(2/delta)) trials."""
    run = _Run("naive-haar", channel, epsilon, delta, seed)
    d = run.channel.dim
    plan = plan_naive_haar(epsilon, delta, d, n_override)
    gauss = run.take_gaussians("haar_unitaries", plan.n * 2 * d * d, plan.total_bits)
    gauss = gauss.reshape(plan.n, 2 * d * d)
    z = (gauss[:, : d * d] + 1j * gauss[:, d * d :]).reshape(plan.n, d, d) / math.sqrt(2)
    probs = _fidelity_columns(run.channel, phase_fixed_qr(z)[:, :, 0])
    return run.finish(plan, np.arange(plan.n), probs)


def _fidelity_columns(ch: KrausChannel, columns: np.ndarray) -> np.ndarray:
    """Success probabilities for a batch of preparation columns, shape (n, d)."""
    return gate_fidelities(ch, columns)


def _certify_design(ensemble: UnitaryEnsemble, epsilon: float, lambda2) -> tuple:
    lam = tpe_lambda(ensemble, 2).lambda_value if lambda2 is None else _claimed(lambda2)
    eps2 = design_epsilon_from_lambda(lam, ensemble.dim)
    exact = lam <= EXACT_DESIGN_LAMBDA
    if not exact and eps2 >= epsilon / 2.0:
        raise PlanningError(
            f"ensemble {ensemble.label!r} certifies only epsilon_2 = {eps2:g}"
            f" >= epsilon/2 = {epsilon / 2.0:g}; design too coarse for the target"
        )
    return lam, eps2, exact


def estimate_design_iid(
    channel, epsilon: float, delta: float, ensemble: UnitaryEnsemble, seed: int, *, lambda2=None
) -> EstimationResult:
    """Independent uniform draws from a certified (approximate) 2-design."""
    run = _Run("design-iid", channel, epsilon, delta, seed, ensemble)
    lam, eps2, exact = _certify_design(ensemble, epsilon, lambda2)
    budget = epsilon if exact else epsilon / 2.0
    _check_eps_delta(epsilon, delta)
    n = math.ceil(3.0 / budget**2 * math.log(2.0 / delta))
    plan = IidPlan(n, index_width(ensemble.size), budget, lam, eps2)
    ids = run.indices("indices", n * plan.width, ensemble.size, n)
    return run.finish(plan, ids, _fidelity_table(run.channel, ensemble)[ids])


def estimate_kwise_design(
    channel, epsilon: float, delta: float, ensemble: UnitaryEnsemble, seed: int, *, lambda2=None
) -> EstimationResult:
    """Design sampling driven by an approximately k-wise independent bit tape."""
    run = _Run("kwise-design", channel, epsilon, delta, seed, ensemble)
    _certify_design(ensemble, epsilon, lambda2)
    plan = plan_kwise_design(epsilon, delta, ensemble.size)
    if epsilon >= run.channel.exact_fidelity:
        run.flags.append("epsilon >= exact average fidelity; the deviation guarantee is void")
    ids = run.tape_indices(
        "tape_seed", plan.r, plan.k_bits, plan.n_bits, plan.theta_log2, ensemble.size, plan.n
    )
    return run.finish(plan, ids, _fidelity_table(run.channel, ensemble)[ids])


def estimate_single_qtpe(
    channel,
    epsilon: float,
    delta: float,
    ensemble: UnitaryEnsemble,
    seed: int,
    *,
    claimed_lambda=None,
    waive_preconditions: bool = False,
) -> EstimationResult:
    """One uniform ensemble draw, repeated n times with the same unitary."""
    run = _Run("single-qtpe", channel, epsilon, delta, seed, ensemble)
    plan = plan_single_qtpe(epsilon, delta, run.channel.dim, ensemble.size)
    failures = []
    lam4 = _lambda4_or_none(ensemble, claimed_lambda)
    if lam4 is None:
        run.flags.append("4-copy lambda unverifiable at this size; trusting the ensemble claim")
    elif lam4 > plan.lambda_required:
        failures.append(f"lambda <= 1/(4 d^3) violated: {lam4:g} > {plan.lambda_required:g}")
    run.gate(plan, failures, waive_preconditions)
    chosen = int(run.indices("index", plan.width, ensemble.size, 1)[0])
    p = _fidelity_columns(run.channel, ensemble.unitaries[chosen : chosen + 1, :, 0])[0]
    return run.finish(plan, np.full(plan.n, chosen), np.full(plan.n, p))


def _claimed(value):
    """A claimed lambda as a float (None stays None); ParameterError unless >= 0."""
    if value is None:
        return None
    if not value >= 0.0:  # also refuses NaN
        raise ParameterError(f"claimed lambda must be >= 0, got {value}")
    return float(value)


def _lambda4_or_none(ensemble: UnitaryEnsemble, claimed):
    if claimed is not None:
        return _claimed(claimed)
    if ensemble.dim**8 <= DENSE_CAP:
        return tpe_lambda(ensemble, 4).lambda_value
    return None


def estimate_two_phase(
    channel,
    epsilon: float,
    delta: float,
    ensemble: UnitaryEnsemble,
    seed: int,
    *,
    claimed_lambda=None,
    waive_preconditions: bool = False,
) -> EstimationResult:
    """Phase 1 draws t unitaries uniformly; phase 2 samples among them k-wise."""
    run = _Run("two-phase", channel, epsilon, delta, seed, ensemble)
    plan = plan_two_phase(epsilon, delta, run.channel.dim, ensemble.size)
    failures = []
    lam = _claimed(claimed_lambda)
    if lam is None:
        run.flags.append("4l-copy lambda unverifiable; trusting the ensemble claim")
    elif lam > 0.0 and math.log2(lam) > plan.lambda_required_log2:  # lambda = 0 passes
        failures.append(
            f"lambda <= (eps^2/(2^5 d^2))^l violated:"
            f" log2(lambda) = {math.log2(lam):g} > {plan.lambda_required_log2:g}"
        )
    run.gate(plan, failures, waive_preconditions)
    pool = run.indices("phase1_indices", plan.r_phase1, ensemble.size, plan.pool_size)
    sub_table = _fidelity_table(run.channel, ensemble)[pool]
    if plan.pool_size == 1:
        positions = np.zeros(plan.n, dtype=np.int64)
        run.ledger.record("phase2_tape_seed", 0)
    else:
        w = plan.width_phase2
        positions = run.tape_indices(
            "phase2_tape_seed", plan.r_phase2, plan.k * w, plan.n * w, plan.theta_log2,
            plan.pool_size, plan.n,
        )
    return run.finish(plan, pool[positions], sub_table[positions])
