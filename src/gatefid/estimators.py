"""The five average-fidelity estimation algorithms with exact bit ledgers.

All five run one experiment and differ only in how they draw unitary indices:
Haar gaussians, iid indices, one k-wise tape, one single draw, or two phases.
Each estimator checks its design certificate or preconditions, calls a pure
planner (every sample count and pseudorandomness parameter from epsilon,
delta, dimension and ensemble size), draws its indices and finishes. The
private ``_Run`` owns the shared steps: the timer, the channel type and
dimension checks; the plan-time size check against RUN_MEMORY_CAP; the three
counted draws, each one call that draws from a BitSource and ledgers the bits
under a label (gaussians; iid indices, decoded from the bytes of the words
drawn; and the k-wise tape draw of indices, on its counted seed bits); the one
rule that reads the drawn members' success probabilities; the precondition
gate (epsilon < F/2, PreconditionError unless waived, a waived run diagnostic
with its failures in ``flags``); and the finish, which checks that the ledger
equals the bits drawn and decides each outcome bit by one Bernoulli draw on
the exactly simulated success probability, from a separate uncounted stream
(measurement models quantum, not classical, randomness).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ensembles import UnitaryEnsemble, checked_lambda, design_epsilon_from_lambda, lambda_t
from .errors import (
    CapacityError,
    NumericalError,
    ParameterError,
    PlanningError,
    PreconditionError,
)
from .prg import (
    KwisePlan,
    RandomnessLedger,
    generate_tape,
    index_width,
    indices_from_packed,
)
from .quantum import RUN_MEMORY_CAP, KrausChannel, gate_fidelities
# Not called here any more (tables come from one batched kernel call, lambda
# from ensembles.lambda_t, indices from packed bytes); kept importable from
# this module, where perfbench/spans.py looks them up.
from .ensembles import tpe_lambda  # noqa: F401
from .prg import indices_from_bits  # noqa: F401
from .quantum import gate_fidelity_vector  # noqa: F401
from .streams import BitSource, measurement_rng

ALGORITHMS = ("naive-haar", "design-iid", "kwise-design", "single-qtpe", "two-phase")

# An ensemble with second singular value below this is treated as an exact 2-design.
EXACT_DESIGN_LAMBDA = 1e-10
# Bits drawn per Haar unitary: 2 d^2 Box-Muller gaussians at 64 bits per uniform.
# naive-haar draws and ledgers them all, since a physical run needs the whole
# unitary to implement U and U^dag, but transforms only the 2d of a trial's
# state (BitSource.take_gaussians with step d).
HAAR_BITS_PER_DIM2 = 128
# Phase-1 sample cap for the two-phase algorithm.
T_CAP = 1 << 20
# _Run.reserve refuses a plan past RUN_MEMORY_CAP before any bit is drawn. The
# model: a trial holds its unitary id, probability, outcome and the outcome's
# uniform (32 bytes, rounded up); while drawn, each stream bit it reads is
# charged 2 bytes, an over-bound that leaves every plan's exit code as it was
# (a bit holds a quarter byte: its drawn word and that word's big-endian copy,
# which its index is decoded from), a k-wise tape prg.tape_bytes, each
# drawn 64-bit word 8 bytes, and each Box-Muller gaussian read 40 bytes (its
# uniform and value, half of its pair's radius and angle, then its share of the
# complex state: 32 bytes, plus 8 of margin). Without the margin naive-haar's
# model was only 3% above its traced peak at d = 4, epsilon = 0.05 (544 bytes a
# trial against 529), and 11-75% above it at d = 1, 2 and 8; with it the model
# is at least 13% above the peak (d = 4, whose peak includes about 30 KB for
# the fidelity kernel's zero-padded last tile).

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
    return gate_fidelities(ch, ensemble.first_columns())


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
class IidPlan:
    """n independent draws of `width` bits each: Haar unitaries or ensemble indices."""

    n: int
    width: int

    @property
    def total_bits(self) -> int:
        return self.n * self.width


def _iid_plan(budget: float, delta: float, width: int) -> IidPlan:
    """n = ceil(3 budget^-2 ln(2/delta)) draws: the Chernoff count for a deviation of `budget`."""
    return IidPlan(math.ceil(3.0 / budget**2 * math.log(2.0 / delta)), width)


def plan_naive_haar(epsilon: float, delta: float, d: int) -> IidPlan:
    _check_eps_delta(epsilon, delta)
    return _iid_plan(epsilon, delta, HAAR_BITS_PER_DIM2 * d * d)


def _kwise_draw(epsilon: float, delta: float, n: int, width: int, split: int) -> KwisePlan:
    """The one rule for a k-wise draw of n width-bit indices: k = ceil(e^(-1/3) eps^2 n / split^2)
    and theta = (delta / (2 split)) (eps/n)^(eps^2 n / (4 split^2)).

    split is 1 for kwise-design and 2 for two-phase's phase 2, which shares (eps, delta) with
    its phase 1.
    """
    k = math.ceil(_E_THIRD * epsilon**2 * n / split**2)
    exponent = epsilon**2 * n / (4.0 * split**2)
    theta_log2 = math.log2(delta / (2.0 * split)) + exponent * math.log2(epsilon / n)
    return KwisePlan(n, k, width, theta_log2)


def plan_kwise_design(epsilon: float, delta: float, set_size: int) -> KwisePlan:
    """The k-wise design estimator's draw.

    n = ceil(16 log2(1/delta) / eps^2), k = ceil(e^(-1/3) eps^2 n),
    theta = (delta/2) (eps/n)^(eps^2 n / 4). The plan refuses k < 2, as at delta near 1.
    """
    _check_eps_delta(epsilon, delta)
    n = math.ceil(16.0 * math.log2(1.0 / delta) / epsilon**2)
    w = index_width(set_size)
    if w == 0:
        raise ParameterError("set of size 1 leaves nothing to sample")
    return _kwise_draw(epsilon, delta, n, w, 1)


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
    lambda_required_log2: float
    n: int
    phase1: IidPlan  # the pool of unitaries drawn uniformly
    phase2: KwisePlan | None  # the n k-wise positions in the pool; None for a pool of one
    precondition_failures: tuple

    @property
    def total_bits(self) -> int:
        return self.phase1.total_bits + (self.phase2.r if self.phase2 else 0)


def plan_two_phase(epsilon: float, delta: float, d: int, set_size: int) -> TwoPhasePlan:
    """Two-phase parameters with moment order L = ceil(log2(16/delta)):
    pool size t = ceil(2^11 L/(eps^2 d)), required lambda = (eps^2/(2^5 d^2))^L,
    n = ceil(16 log2(4/delta)/eps^2), k = ceil(e^(-1/3) eps^2 n / 4) and
    theta = (delta/4)(eps/n)^(eps^2 n/16)."""
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
    phase2 = None
    if pool >= 2:
        phase2 = _kwise_draw(epsilon, delta, n, index_width(pool), 2)
    return TwoPhasePlan(
        order, lambda_req_log2, n, IidPlan(pool, index_width(set_size)), phase2, tuple(failures)
    )


# ---------------------------------------------------------------------------
# estimators


class _Run:
    """The shared steps, from the timer through the drawn members' probabilities to the result.

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

    def reserve(self, trials: int, bits: int = 0, words: int = 0, gaussians: int = 0, tape: int = 0) -> None:
        """Refuse a plan of `trials` trials reading `bits` stream bits, a `tape`-byte k-wise tape,
        or `gaussians` gaussians out of `words` words, once it would hold over RUN_MEMORY_CAP bytes."""
        need = 32 * trials + 2 * bits + tape + 8 * words + 40 * gaussians
        if need > RUN_MEMORY_CAP:
            raise CapacityError(
                f"{trials} trials of {self.algorithm} need {need / 2**20:.0f} MiB of draws"
                f" and outcomes, over the {RUN_MEMORY_CAP >> 20} MiB cap"
            )

    def take_gaussians(self, label: str, count: int, bits: int, step: int) -> np.ndarray:
        """Draw `count` counted normals, ledgered as the planner's `bits`; return every step-th."""
        gauss = self.source.take_gaussians(count, step)
        self.ledger.record(label, bits)
        return gauss

    def indices(self, label: str, bits: int, set_size: int, n: int) -> np.ndarray:
        """n indices in [0, set_size) decoded from `bits` = n w counted bits, read from the
        drawn words' bytes."""
        packed, start = self.source.take_packed(bits)
        self.ledger.record(label, bits)
        return indices_from_packed(packed, start, set_size, n)

    def tape_draw(self, label: str, plan: KwisePlan, size: int) -> np.ndarray:
        """The plan's n indices in [0, size), decoded from the bytes of its tape on r counted
        seed bits. generate_tape is a module global, so a wrapper set here sees every tape."""
        seed = self.source.take_bits(plan.r)
        self.ledger.record(label, plan.r)
        return indices_from_packed(generate_tape(plan, seed).packed, 0, size, plan.n)

    def probabilities(self, ensemble: UnitaryEnsemble, ids: np.ndarray) -> np.ndarray:
        """Success probabilities of the members `ids`: whole-set table rows when the set is no
        larger than the draw, else the drawn members' columns alone, so no large product is
        folded whole. Both sides give the same bytes, as gate_fidelities computes a member's
        probability as one float whatever batch it is in; the rule only picks the cheaper side.
        Wrappers of the module's two helpers see each call."""
        if ensemble.size <= len(ids):
            return _fidelity_table(self.channel, ensemble)[ids]
        return _fidelity_columns(self.channel, ensemble.first_columns(ids))

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


def estimate_naive_haar(channel, epsilon: float, delta: float, seed: int) -> EstimationResult:
    """Fresh Haar unitary per trial, n = ceil(3 eps^-2 ln(2/delta)) trials, ledgered whole; a trial
    forms only its state U|0>, z0 / |z0| for z0 column 0 of U's Ginibre matrix (Mezzadri 2007)."""
    run = _Run("naive-haar", channel, epsilon, delta, seed)
    d = run.channel.dim
    plan = plan_naive_haar(epsilon, delta, d)
    run.reserve(plan.n, words=plan.total_bits // 64, gaussians=plan.n * 2 * d)
    # every d-th normal: the real, then imaginary parts of each Ginibre matrix's column 0
    gauss = run.take_gaussians("haar_unitaries", plan.n * 2 * d * d, plan.total_bits, d)
    z0 = gauss.reshape(plan.n, 2, d)
    states = (z0[:, 0] + 1j * z0[:, 1]) / np.linalg.norm(z0, axis=(1, 2))[:, None]
    return run.finish(plan, np.arange(plan.n), _fidelity_columns(run.channel, states))


def _fidelity_columns(ch: KrausChannel, columns: np.ndarray) -> np.ndarray:
    """Success probabilities for a batch of preparation columns, shape (n, d)."""
    return gate_fidelities(ch, columns)


def _certify_design(ensemble: UnitaryEnsemble, epsilon: float, lambda2) -> bool:
    """Whether the ensemble is an exact 2-design; PlanningError unless epsilon_2 < epsilon/2."""
    lam = lambda_t(ensemble, 2, lambda2)
    eps2 = design_epsilon_from_lambda(lam, ensemble.dim)
    exact = lam <= EXACT_DESIGN_LAMBDA
    if not exact and eps2 >= epsilon / 2.0:
        raise PlanningError(
            f"ensemble {ensemble.label!r} certifies only epsilon_2 = {eps2:g}"
            f" >= epsilon/2 = {epsilon / 2.0:g}; design too coarse for the target"
        )
    return exact


def estimate_design_iid(
    channel, epsilon: float, delta: float, ensemble: UnitaryEnsemble, seed: int, *, lambda2=None
) -> EstimationResult:
    """Independent uniform draws from a certified (approximate) 2-design."""
    run = _Run("design-iid", channel, epsilon, delta, seed, ensemble)
    exact = _certify_design(ensemble, epsilon, lambda2)
    _check_eps_delta(epsilon, delta)
    plan = _iid_plan(epsilon if exact else epsilon / 2.0, delta, index_width(ensemble.size))
    run.reserve(plan.n, plan.total_bits)
    ids = run.indices("indices", plan.total_bits, ensemble.size, plan.n)
    return run.finish(plan, ids, run.probabilities(ensemble, ids))


def estimate_kwise_design(
    channel, epsilon: float, delta: float, ensemble: UnitaryEnsemble, seed: int, *, lambda2=None
) -> EstimationResult:
    """Design sampling driven by an approximately k-wise independent bit tape."""
    run = _Run("kwise-design", channel, epsilon, delta, seed, ensemble)
    _certify_design(ensemble, epsilon, lambda2)
    plan = plan_kwise_design(epsilon, delta, ensemble.size)
    run.reserve(plan.n, tape=plan.tape_bytes)
    if epsilon >= run.channel.exact_fidelity:
        run.flags.append("epsilon >= exact average fidelity; the deviation guarantee is void")
    ids = run.tape_draw("tape_seed", plan, ensemble.size)
    return run.finish(plan, ids, run.probabilities(ensemble, ids))


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
    run.reserve(plan.n)
    failures = []
    lam4 = _lambda4_or_none(ensemble, claimed_lambda)
    if lam4 is None:
        run.flags.append("4-copy lambda unverifiable at this size; trusting the ensemble claim")
    elif lam4 > plan.lambda_required:
        failures.append(f"lambda <= 1/(4 d^3) violated: {lam4:g} > {plan.lambda_required:g}")
    run.gate(plan, failures, waive_preconditions)
    chosen = run.indices("index", plan.width, ensemble.size, 1)
    p = run.probabilities(ensemble, chosen)
    return run.finish(plan, np.repeat(chosen, plan.n), np.repeat(p, plan.n))


def _lambda4_or_none(ensemble: UnitaryEnsemble, claimed):
    """The claimed or computed 4-copy lambda; None where tpe_lambda refuses the
    size, or for a non-group past d = 2 (Lanczos cost grows with s times steps,
    and files with d > 2 were not timed)."""
    if claimed is None and not ensemble.group and ensemble.dim > 2:
        return None
    try:
        return lambda_t(ensemble, 4, claimed)
    except CapacityError:
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
    # with eps < 1, L >= 5 and d <= MAX_DIM = 64 the pool holds over 2^11 * 5 / 64 = 160 ids,
    # so phase 2 is planned; a pool member is charged as a trial
    run.reserve(plan.n + plan.phase1.n, plan.phase1.total_bits, tape=plan.phase2.tape_bytes)
    failures = []
    lam = None if claimed_lambda is None else checked_lambda(claimed_lambda)
    if lam is None:
        run.flags.append("4l-copy lambda unverifiable; trusting the ensemble claim")
    elif lam > 0.0 and math.log2(lam) > plan.lambda_required_log2:  # lambda = 0 passes
        failures.append(
            f"lambda <= (eps^2/(2^5 d^2))^l violated:"
            f" log2(lambda) = {math.log2(lam):g} > {plan.lambda_required_log2:g}"
        )
    run.gate(plan, failures, waive_preconditions)
    pool = run.indices("phase1_indices", plan.phase1.total_bits, ensemble.size, plan.phase1.n)
    ids = pool[run.tape_draw("phase2_tape_seed", plan.phase2, len(pool))]
    return run.finish(plan, ids, run.probabilities(ensemble, ids))
